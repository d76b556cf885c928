"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of every ``metrent``
module from outside the library: no file under ``src/`` changes.  Each call
of a wrapped function records one span (name, start, end, parent span, run
id).  Spans are kept in flat arrays in memory and written out when the run
ends.  Per-layer numbers are derived from the spans afterwards: a layer is
the module a span's function is defined in, and a span's self time is its
duration minus the time covered by its direct child spans.

Because modules import functions by name (``from .strings import
tuple_strs``), a function is patched in every loaded ``metrent`` module
whose attribute is the same function object.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import json
import sys
import time
import types
import zlib
from array import array

LAYERS = ("strings", "baire", "machine", "reprs", "compact", "entropy",
          "funcs", "schauder", "banach", "cli")

# Factories whose closures answer name queries through _with_length_branch;
# their queries are split by tag into coefficient and norm queries.
BANACH_BRANCH_FACTORIES = ("banach_name", "dsq_to_xi", "lp_to_xi")

COUNTER_KEYS = ("tuple_chars", "name_hits", "dist_hits", "steps",
                "budget_exhausted")


def _layer(module_name: str) -> str | None:
    head, _, tail = module_name.partition(".")
    return tail if head == "metrent" and tail in LAYERS else None


_COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def _defines_closures(fn) -> bool:
    """True when fn's body defines a function or lambda (a factory)."""
    return any(isinstance(c, types.CodeType) and c.co_name not in _COMPREHENSIONS
               for c in fn.__code__.co_consts)


class Tracer:
    """Collects spans from wrapped ``metrent`` callables.

    ``run_id`` is set by the caller before each benchmark operation, so the
    spans of one operation share an identifier; zero marks job-level work
    between operations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def span_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, fn, name: str):
        """Wrap ``fn`` so each call records a span called ``name``."""
        sid = self.span_id(name)
        clock, stack, t1 = self.clock, self._stack, self.t1
        sid_append, t0_append = self.sid.append, self.t0.append
        t1_append, parent_append = t1.append, self.parent.append
        run_append = self.run.append
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(t1)
            sid_append(sid)
            parent_append(stack[-1])
            run_append(tracer.run_id)
            t1_append(0.0)
            stack.append(i)
            t0_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- special wrappers -------------------------------------------------
    def _wrap_tuple_strs(self, fn, name):
        inner = self.span(fn, name)
        counters = self.counters

        def tuple_strs(parts):
            out = inner(parts)
            counters["tuple_chars"] += len(out)
            return out
        return tuple_strs

    def _wrap_name_call(self, fn, name):
        inner = self.span(fn, name)
        counters = self.counters

        def __call__(self_, a):
            if a in self_._cache:
                counters["name_hits"] += 1
            return inner(self_, a)
        return __call__

    def _wrap_cloud_d(self, fn, name):
        inner = self.span(fn, name)
        counters = self.counters

        def d(self_, i, j):
            if (i, j) in self_._cache or (j, i) in self_._cache:
                counters["dist_hits"] += 1
            return inner(self_, i, j)
        return d

    def _wrap_metered_run(self, fn, name):
        inner = self.span(fn, name)
        counters = self.counters
        exhausted = sys.modules["metrent.machine"].BudgetExceeded

        def metered_run(*args, **kwargs):
            try:
                result = inner(*args, **kwargs)
            except exhausted as e:
                counters["budget_exhausted"] += 1
                counters["steps"] += e.report.steps_used
                raise
            counters["steps"] += result[1].steps_used
            return result
        return metered_run

    def _wrap_covering_number(self, fn, name):
        by_mode = {m: self.span(fn, f"{name}[{m}]") for m in ("exact", "greedy")}

        def covering_number(K, n, mode="exact"):
            return by_mode.get(mode, fn)(K, n, mode)
        return covering_number

    def _wrap_name_init(self, fn, name):
        tracer = self

        def __init__(self_, f, *args, **kwargs):
            return fn(self_, tracer._wrap_name_fn(f), *args, **kwargs)
        return __init__

    def _wrap_name_fn(self, f):
        """Give the string function of a new Name a span in the layer that
        defined it.  All-zeros queries to names built by
        _with_length_branch are length queries."""
        if not isinstance(f, types.FunctionType) or hasattr(f, "__wrapped__"):
            return f
        layer = _layer(f.__module__)
        if layer is None:
            return f
        if f.__qualname__ == "_with_length_branch.<locals>.fn":
            length = self.span(f, "compact.length_query")

            def fn(a):
                return length(a) if a == "0" * len(a) else f(a)
            fn.__wrapped__ = f
            return fn
        return self.span(f, f"{layer}.{f.__qualname__}")

    def _wrap_length_branch(self, fn, name):
        """Wrap the branch function handed to _with_length_branch.  Branch
        calls made by the length scan belong to the length query; calls that
        answer a query to the name get a span named by the factory and, for
        the Banach factories, by the tag (coefficient or norm query)."""
        tracer = self
        scan_sid = self.span_id("compact.length_query")

        def _with_length_branch(branch, *args, **kwargs):
            layer = _layer(branch.__module__) or "compact"
            factory = branch.__qualname__.split(".")[0]
            if layer == "banach" and factory in BANACH_BRANCH_FACTORIES:
                tagged = {"0": tracer.span(branch, f"banach.{factory}.coeff"),
                          "1": tracer.span(branch, f"banach.{factory}.norm")}
            else:
                whole = tracer.span(branch, f"{layer}.{branch.__qualname__}")
                tagged = {"0": whole, "1": whole}
            sid, stack = tracer.sid, tracer._stack

            def traced_branch(a):
                top = stack[-1]
                if top >= 0 and sid[top] == scan_sid:
                    return branch(a)
                return tagged.get(a[:1], branch)(a)
            traced_branch.__wrapped__ = branch
            return fn(traced_branch, *args, **kwargs)
        return _with_length_branch

    def _wrap_factory(self, fn, name):
        """Span the factory call and give the closures it returns spans in
        their own layer."""
        inner = self.span(fn, name)
        tracer = self
        running_time = sys.modules["metrent.machine"].RunningTime

        def wrap_result(r):
            if isinstance(r, types.FunctionType) and not hasattr(r, "__wrapped__"):
                layer = _layer(r.__module__)
                return tracer.span(r, f"{layer}.{r.__qualname__}") if layer else r
            if isinstance(r, tuple):
                return tuple(wrap_result(x) for x in r)
            if isinstance(r, running_time) and r.evaluator is not None:
                r.evaluator = wrap_result(r.evaluator)
            return r

        def factory(*args, **kwargs):
            return wrap_result(inner(*args, **kwargs))
        return factory

    _SPECIAL = {
        "strings.tuple_strs": "_wrap_tuple_strs",
        "baire.Name.__call__": "_wrap_name_call",
        "baire.Name.__init__": "_wrap_name_init",
        "entropy.PointCloud.d": "_wrap_cloud_d",
        "machine.metered_run": "_wrap_metered_run",
        "entropy.covering_number": "_wrap_covering_number",
        "compact._with_length_branch": "_wrap_length_branch",
    }

    def _make_wrapper(self, fn, name: str):
        special = self._SPECIAL.get(name)
        if special is not None:
            return getattr(self, special)(fn, name)
        if _defines_closures(fn):
            return self._wrap_factory(fn, name)
        return self.span(fn, name)

    # -- install / uninstall ----------------------------------------------
    def _targets(self, modules):
        """(owner, attribute, function, span name) for every public
        function and method defined in the given modules, plus the hooks
        named in _SPECIAL."""
        out = []
        for mod in modules:
            layer = _layer(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if not attr.startswith("_") or name in self._SPECIAL:
                        out.append((mod, attr, obj, name))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for mattr, mobj in list(vars(obj).items()):
                        name = f"{layer}.{obj.__name__}.{mattr}"
                        public = not mattr.startswith("_") or mattr == "__call__" \
                            or name in self._SPECIAL
                        if public and isinstance(mobj, (types.FunctionType, staticmethod)):
                            out.append((obj, mattr, mobj, name))
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        loaded = metrent_modules()
        for owner, attr, obj, name in self._targets(loaded):
            if isinstance(obj, staticmethod):
                self._patch(owner, attr, staticmethod(self._make_wrapper(obj.__func__, name)))
                continue
            wrapper = self._make_wrapper(obj, name)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in loaded:
                for a, v in list(vars(mod).items()):
                    if v is obj:
                        self._patch(mod, a, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -----------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the zlib-compressed
        arrays sid, start, end, parent, run in that order."""
        header = {"names": self.names, "count": len(self.sid),
                  "fields": ["sid:i", "start:d", "end:d", "parent:i", "run:i"]}
        blob = b"".join(a.tobytes() for a in (self.sid, self.t0, self.t1,
                                               self.parent, self.run))
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(zlib.compress(blob, 1))


def read_spans(path: str) -> dict:
    """Inverse of Tracer.write: the names table and the five span arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = zlib.decompress(fh.read())
    n = header["count"]
    out, pos = {"names": header["names"]}, 0
    for field in header["fields"]:
        key, code = field.split(":")
        a = array(code)
        a.frombytes(blob[pos:pos + n * a.itemsize])
        pos += n * a.itemsize
        out[key] = a
    return out


def metrent_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "metrent" or name.startswith("metrent."))]


# ---------------------------------------------------------------------------
# analysis

def self_times(parent, t0, t1) -> array:
    """Self time of every span: its duration minus the durations of its
    direct children.  Spans are stored in start order, so a child's index
    is always above its parent's."""
    n = len(t0)
    child = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += t1[i] - t0[i]
    for i in range(n):
        child[i] = t1[i] - t0[i] - child[i]
    return child


def outer_times(names, sid, parent, t0, t1, groups: dict[str, set]) -> dict[str, float]:
    """Inclusive time of each group of span names, counting only spans with
    no ancestor in the same group, so recursion is not counted twice."""
    keys = list(groups)
    bits = [0] * len(names)
    for k, key in enumerate(keys):
        for j, nm in enumerate(names):
            if nm in groups[key]:
                bits[j] |= 1 << k
    inside = array("q", bytes(8 * len(t0)))
    totals = [0.0] * len(keys)
    for i in range(len(t0)):
        p = parent[i]
        above = inside[p] if p >= 0 else 0
        own = bits[sid[i]]
        inside[i] = above | own
        fresh = own & ~above
        while fresh:
            low = fresh & -fresh
            totals[low.bit_length() - 1] += t1[i] - t0[i]
            fresh ^= low
    return dict(zip(keys, totals))


PER_LAYER_METRICS = (
    ("strings.tuple_calls", "count"), ("strings.tuple_chars", "count"),
    ("strings.proj_calls", "count"), ("strings.self_s", "s"),
    ("baire.name_calls", "count"), ("baire.name_hit_ratio", "ratio"),
    ("baire.self_s", "s"),
    ("machine.runs", "count"), ("machine.asks", "count"),
    ("machine.steps", "count"), ("machine.budget_exhausted", "count"),
    ("machine.self_s", "s"),
    ("reprs.metric_calls", "count"), ("reprs.self_s", "s"),
    ("compact.approx_calls", "count"), ("compact.approx_s", "s"),
    ("compact.length_queries", "count"), ("compact.length_query_s", "s"),
    ("compact.self_s", "s"),
    ("entropy.cover_exact_s", "s"), ("entropy.cover_greedy_s", "s"),
    ("entropy.packing_s", "s"), ("entropy.dialog_cover_s", "s"),
    ("entropy.dist_evals", "count"), ("entropy.dist_hit_ratio", "ratio"),
    ("entropy.self_s", "s"),
    ("funcs.pl_eval_calls", "count"), ("funcs.pl_eval_s", "s"),
    ("funcs.modulus_s", "s"), ("funcs.self_s", "s"),
    ("schauder.fs_eval_calls", "count"), ("schauder.haar_eval_calls", "count"),
    ("schauder.synthesis_s", "s"), ("schauder.enclosure_rounds", "count"),
    ("schauder.self_s", "s"),
    ("banach.coeff_queries", "count"), ("banach.norm_queries", "count"),
    ("banach.norm_query_s", "s"), ("banach.translated_queries", "count"),
    ("banach.self_s", "s"),
    ("cli.self_s", "s"),
)

_TIMED_GROUPS = {
    "compact.approx_s": {"compact.unit_interval_approx",
                         "compact.unit_interval_short_approx.<locals>.approx"},
    "compact.length_query_s": {"compact.length_query"},
    "entropy.cover_exact_s": {"entropy.covering_number[exact]"},
    "entropy.cover_greedy_s": {"entropy.covering_number[greedy]"},
    "entropy.packing_s": {"entropy.packing_witness", "entropy.packing_exponent"},
    "entropy.dialog_cover_s": {"entropy.dialog_cover_experiment"},
    "funcs.pl_eval_s": {"funcs.PiecewiseLinear.__call__"},
    "funcs.modulus_s": {"funcs.continuity_modulus", "funcs.lp_modulus"},
    "schauder.synthesis_s": {"schauder.fs_partial_sum_pl",
                             "schauder.HaarSystem.combo_pieces"},
    "banach.norm_query_s": {f"banach.{f}.norm" for f in BANACH_BRANCH_FACTORIES},
}

_COUNTED_GROUPS = {
    "strings.tuple_calls": {"strings.tuple_strs"},
    "strings.proj_calls": {"strings.proj", "strings.proj_value"},
    "baire.name_calls": {"baire.Name.__call__"},
    "machine.runs": {"machine.metered_run"},
    "machine.asks": {"machine.Ctx.ask", "machine.Ctx.ask_prefix"},
    "reprs.metric_calls": {"reprs.cauchy_metric",
                           "reprs.cauchy_metric_program.<locals>.prog",
                           "reprs.relativized_metric_program.<locals>.prog"},
    "compact.approx_calls": _TIMED_GROUPS["compact.approx_s"],
    "compact.length_queries": {"compact.length_query"},
    "entropy.dist_evals": {"entropy.PointCloud.d"},
    "funcs.pl_eval_calls": {"funcs.PiecewiseLinear.__call__"},
    "schauder.fs_eval_calls": {"schauder.fs_eval"},
    "schauder.haar_eval_calls": {"schauder.haar_eval"},
    "schauder.enclosure_rounds": {"schauder.RootSum.bounds"},
    "banach.coeff_queries": {f"banach.{f}.coeff" for f in BANACH_BRANCH_FACTORIES},
    "banach.norm_queries": {f"banach.{f}.norm" for f in BANACH_BRANCH_FACTORIES},
    "banach.translated_queries": (
        {f"banach.{f}.<locals>.fn" for f in ("xi_to_dsq", "xi_to_lp")}
        | {f"banach.{f}.{tag}" for f in ("dsq_to_xi", "lp_to_xi")
           for tag in ("coeff", "norm")}),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced job, by the names in
    PER_LAYER_METRICS (trace.overhead_s is added by the caller)."""
    names, sid = tracer.names, tracer.sid
    own = self_times(tracer.parent, tracer.t0, tracer.t1)
    layer_of = [nm.split(".", 1)[0] for nm in names]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = [0] * len(names)
    for i, s in enumerate(own):
        self_s[layer_of[sid[i]]] += s
        calls[sid[i]] += 1
    by_name = dict(zip(names, calls))
    out: dict[str, float] = {}
    for key, group in _COUNTED_GROUPS.items():
        out[key] = sum(by_name.get(nm, 0) for nm in group)
    out.update(outer_times(names, sid, tracer.parent, tracer.t0, tracer.t1,
                           _TIMED_GROUPS))
    c = tracer.counters
    out["strings.tuple_chars"] = c["tuple_chars"]
    out["baire.name_hit_ratio"] = c["name_hits"] / out["baire.name_calls"] \
        if out["baire.name_calls"] else 0.0
    out["entropy.dist_hit_ratio"] = c["dist_hits"] / out["entropy.dist_evals"] \
        if out["entropy.dist_evals"] else 0.0
    out["machine.steps"] = c["steps"]
    out["machine.budget_exhausted"] = c["budget_exhausted"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return {key: out[key] for key, _ in PER_LAYER_METRICS}
