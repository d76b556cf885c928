"""Tests of the benchmark's tracer: self time of nested spans, restoring
every wrapper, and traced jobs matching untraced ones.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import pytest

import tracing
import workloads

workloads.load_library()


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0, 10] calls a [1, 4], which calls b [2, 3]; then b [5, 9]
    tr = tracing.Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    b = tr.span(lambda: None, "strings.b")
    a = tr.span(lambda: b(), "baire.a")

    def body():
        a()
        b()
    tr.span(body, "machine.outer")()
    assert [tr.names[s] for s in tr.sid] == ["machine.outer", "baire.a", "strings.b", "strings.b"]
    assert list(tr.parent) == [-1, 0, 1, 0]
    assert list(tracing.self_times(tr.parent, tr.t0, tr.t1)) == [3.0, 2.0, 1.0, 4.0]
    groups = {"b": {"strings.b"}, "a_or_b": {"baire.a", "strings.b"}}
    assert tracing.outer_times(tr.names, tr.sid, tr.parent, tr.t0, tr.t1, groups) == \
        {"b": 5.0, "a_or_b": 7.0}


def test_recursive_spans_are_counted_once():
    # f [0, 10] calls itself [2, 6]; the group time is the outer call only
    tr = tracing.Tracer(clock=fake_clock(0, 2, 6, 10))
    calls = []

    def f(depth):
        calls.append(depth)
        if depth == 0:
            g(1)
    g = tr.span(f, "funcs.f")
    g(0)
    assert tracing.outer_times(tr.names, tr.sid, tr.parent, tr.t0, tr.t1,
                               {"f": {"funcs.f"}}) == {"f": 10.0}
    assert list(tracing.self_times(tr.parent, tr.t0, tr.t1)) == [6.0, 4.0]


def _snapshot() -> dict:
    out = {}
    for mod in tracing.metrent_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for mkey, mvalue in vars(value).items():
                    out[(mod.__name__, key, mkey)] = mvalue
    return out


def test_every_wrapper_is_restored():
    before = _snapshot()
    tr = tracing.Tracer()
    tr.install()
    try:
        during = _snapshot()
        changed = {k for k in before if during[k] is not before[k]}
        # a function imported by name into other modules is patched there too
        assert {("metrent.strings", "tuple_strs"), ("metrent.baire", "tuple_strs"),
                ("metrent.reprs", "tuple_strs"), ("metrent.machine", "tuple_strs")} <= changed
        assert during[("metrent.strings", "tuple_strs")] is during[("metrent.reprs", "tuple_strs")]
        assert {("metrent.baire", "Name", "__call__"), ("metrent.machine", "Ctx", "ask"),
                ("metrent.schauder", "RootSum", "bounds"),
                ("metrent.reprs", "cauchy_metric_program")} <= changed
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_spans_round_trip_through_a_file(tmp_path):
    tr = tracing.Tracer()
    with tr:
        workloads.job_metered_metric(workloads.make_inputs("metered_metric", 3, "small"),
                                     workloads.OpLog(tr))
    path = tmp_path / "spans.bin"
    tr.write(str(path))
    back = tracing.read_spans(str(path))
    assert back["names"] == tr.names
    for key, arr in (("sid", tr.sid), ("start", tr.t0), ("end", tr.t1),
                     ("parent", tr.parent), ("run", tr.run)):
        assert back[key] == arr


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_job_matches_untraced(workload):
    inputs = workloads.make_inputs(workload, 7, "small")
    plain = workloads.OpLog()
    workloads.JOBS[workload](inputs, plain)
    tr = tracing.Tracer()
    traced = workloads.OpLog(tr)
    with tr:
        workloads.JOBS[workload](inputs, traced)
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    assert plain.attempted == traced.attempted
    assert plain.digest() == traced.digest()
    assert (plain.metered_steps, plain.oracle_queries) == \
        (traced.metered_steps, traced.oracle_queries)

    m = tracing.layer_metrics(tr)
    assert [name for name, _ in tracing.PER_LAYER_METRICS] == list(m)
    # spans of one operation carry its run id
    runs = {tr.run[i] for i, s in enumerate(tr.sid)}
    assert runs <= set(range(traced.attempted + 1)) and len(runs) > 1
    if workload in ("metered_metric", "basis"):
        # every metered run of these jobs is made by the benchmark itself
        assert m["machine.steps"] == traced.metered_steps > 0
        assert m["machine.asks"] == traced.oracle_queries
    if workload == "metered_metric":
        assert m["machine.runs"] == traced.attempted
        assert m["reprs.metric_calls"] > 0 and m["compact.approx_calls"] > 0
    if workload == "entropy_cli":
        assert m["entropy.cover_exact_s"] > 0 and m["entropy.cover_greedy_s"] > 0
        assert m["entropy.dist_evals"] > 0 and m["machine.runs"] > 0
    if workload == "basis":
        assert m["schauder.haar_eval_calls"] > 0 and m["banach.norm_queries"] > 0
    if workload == "translate":
        assert m["banach.translated_queries"] > 0 and m["compact.length_queries"] > 0
        assert m["machine.runs"] == 0
