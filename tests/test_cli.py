import contextlib
import functools
import io
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metrent import cli
from metrent.cli import main
from metrent.compact import unit_interval_space
from metrent.entropy import (EXACT_COVER_CAP, PointCloud, covering_number,
                             farthest_first, packing_exponent, packing_witness)


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "metrent.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_bounds_table(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bounds", "--n-max", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,dialog_bound"
    assert lines[1] == "0,2"
    assert lines[4] == "3,26"
    assert lines[11] == "10,222"


def test_entropy_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["entropy", "--n-max", "3", "--samples", "12", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()
    assert rows[0].startswith("n,packing_exp,cover_exact,cover_greedy,bound_thm")
    assert len(rows) == 5
    for line in rows[1:]:
        cells = line.split(",")
        assert int(cells[7]) >= 1           # classes observed
        assert int(cells[8]) == int(cells[0])   # l(n) = n reference
    # the n+c table shifts the reference column by c
    c = tmp_path / "c.csv"
    assert main(args + ["--l-table", "n+2", "--out", str(c)]) == 0
    for line in c.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert int(cells[8]) == int(cells[0]) + 2


def _main_stdout(argv):
    """(exit code, standard output) of cli.main on argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def test_reused_parser_keeps_no_state():
    # main parses with one parser per process; each call in a sequence on
    # that parser prints what the same call printed on a new parser
    entropy = ["entropy", "--samples", "3", "--n-max", "1"]
    calls = [entropy, ["bounds"], ["bounds", "--n-max", "-1"], entropy]
    first = {}
    for argv in calls:
        cli._parser.cache_clear()
        first[tuple(argv)] = _main_stdout(argv)
    assert first[("bounds", "--n-max", "-1")] == (2, "")
    cli._parser.cache_clear()
    parser = cli._parser()
    for argv in calls:
        assert _main_stdout(argv) == first[tuple(argv)]
    assert cli._parser() is parser


def test_entropy_empty_sample(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["entropy", "--samples", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "n,packing_exp,cover_exact,cover_greedy,bound_thm,"
        "bound_lorentz_lo,bound_lorentz_hi,classes_observed,l_ref"]


def test_eval_tables(tmp_path):
    out = tmp_path / "fs.csv"
    assert main(["eval", "--basis", "fs", "--n-max", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level,sup_error"
    # the frozen per-level interpolation errors 2^(-2k-2)
    for k, line in enumerate(lines[1:]):
        level, err = line.split(",")
        assert int(level) == k
        assert Fraction(err) == Fraction(1, 1 << (2 * k + 2))
    out2 = tmp_path / "haar.csv"
    assert main(["eval", "--basis", "haar", "--n-max", "12",
                 "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 13


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("args, golden", [
    (["--basis", "fs", "--n-max", "10"], "eval_fs_n10.csv"),
    (["--basis", "haar", "--p", "3/2", "--n-max", "12"], "eval_haar_p3-2_n12.csv"),
])
def test_eval_matches_golden_bytes(tmp_path, args, golden):
    out = tmp_path / golden
    assert main(["eval", *args, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_entropy_matches_golden_bytes(tmp_path):
    # 80 samples: the greedy cover column runs above the exact-cover cap
    out = tmp_path / "entropy.csv"
    assert main(["entropy", "--n-max", "8", "--samples", "80", "--seed", "3",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "entropy_n8_s80_seed3.csv").read_bytes()


def test_entropy_across_the_sample_scale_matches_golden_bytes(tmp_path):
    # rows n > 8 put the cover radius below the 2^-8 grid step of the samples
    out = tmp_path / "entropy.csv"
    assert main(["entropy", "--n-max", "12", "--samples", "20", "--seed", "5",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "entropy_n12_s20_seed5.csv").read_bytes()


def _cli_cloud(monkeypatch, tmp_path, samples, seed):
    """The point cloud that ``metrent entropy`` covers, caught at its first
    covering_number call."""
    seen = []
    real = cli.covering_number

    def spy(K, n, mode="exact"):
        seen.append(K)
        return real(K, n, mode)

    monkeypatch.setattr(cli, "covering_number", spy)
    assert main(["entropy", "--n-max", "0", "--samples", str(samples),
                 "--seed", str(seed), "--out", str(tmp_path / "e.csv")]) == 0
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("samples", [1, 2, 20, 21, 80])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_scaled_cli_cloud_matches_fraction_cloud(monkeypatch, tmp_path,
                                                 samples, seed):
    ks = cli._sample_numerators(samples, seed)
    pts = [Fraction(k, 1 << cli._SAMPLE_SCALE) for k in ks]
    reference = PointCloud(pts, lambda i, j: abs(pts[i] - pts[j]))
    cloud = _cli_cloud(monkeypatch, tmp_path, samples, seed)
    assert cloud.points == ks
    for n in range(13):
        shift = n - cli._SAMPLE_SCALE
        if samples <= EXACT_COVER_CAP:
            assert covering_number(cloud, shift, "exact") == \
                covering_number(reference, n, "exact")
        assert covering_number(cloud, shift, "greedy") == \
            covering_number(reference, n, "greedy")
        assert packing_witness(cloud, shift) == packing_witness(reference, n)
        assert packing_exponent(cloud, shift) == packing_exponent(reference, n)
    _, radii = farthest_first(cloud, 0)
    assert all(type(d) is int for d in radii[1:])
    assert cloud._cache and all(type(d) is int for d in cloud._cache.values())


@pytest.mark.parametrize("samples", [1, 20, 80])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_integer_dialog_check_matches_fraction_check(monkeypatch, tmp_path,
                                                     samples, seed):
    # the CLI checks its dialog classes on the numerators k in 2^-8 units;
    # the same names checked on the points k/2^8 in exact Fractions must
    # give the same report at every n
    calls = []
    real = cli.dialog_cover_experiment

    def spy(*args):
        report = real(*args)
        calls.append((args, report))
        return report

    monkeypatch.setattr(cli, "dialog_cover_experiment", spy)
    assert main(["entropy", "--n-max", "12", "--samples", str(samples),
                 "--seed", str(seed), "--out", str(tmp_path / "e.csv")]) == 0
    monkeypatch.undo()
    assert [args[5] for args, _ in calls] == list(range(13))
    M = unit_interval_space()
    for (names, ks, prog, budget, l, n, _, u), report in calls:
        assert u == cli._SAMPLE_SCALE and all(type(k) is int for k in ks)
        points = [Fraction(k, 1 << u) for k in ks]
        assert report == real(names, points, prog, budget, l, n, M.exact_dist, 0)
        assert type(report.max_class_dist) is Fraction


@pytest.mark.parametrize("args", [
    ["translate", "--kind", "xi-to-dsq", "--trace", "{tmp}/missing.trace"],
    ["eval", "--basis", "haar", "--p", "abc"],
    ["eval", "--basis", "haar", "--p", "0"],
    ["eval", "--basis", "haar", "--p=-3/2"],
    ["eval", "--basis", "haar", "--p", "1/0"],
    ["eval", "--basis", "fs", "--n-max", "1", "--out", "{tmp}/no-such-dir/fs.csv"],
    ["entropy", "--samples", "4", "--l-table", "3,1"],
    ["entropy", "--samples", "4", "--l-table", "n+-2"],
    ["entropy", "--samples", "-3"],
    ["entropy", "--n-max", "-1"],
    ["eval", "--n-max", "-2"],
    ["bounds", "--n-max", "-1"],
    ["entropy", "--samples", "4", "--l-table", "n+x"],
])
def test_bad_input_is_config_error(tmp_path, args):
    rc, _, err = run_cli([a.format(tmp=tmp_path) for a in args])
    assert rc == 2
    assert "config-error" in err
    assert "Traceback" not in err


def test_translate_roundtrip(tmp_path):
    from metrent.baire import trace_of
    from metrent.banach import (BanachReprParams, banach_name, dsq_query,
                                fs_vector)
    from metrent.funcs import PiecewiseLinear
    from metrent.machine import exp_max_time
    from metrent.schauder import FSSystem

    params = BanachReprParams(S=exp_max_time())
    f = PiecewiseLinear.build([0, 1], [0, 1])
    phi = banach_name(fs_vector(f), params, FSSystem(), lambda n: n + 4)
    # make a trace large enough for one point-value query
    from metrent.banach import xi_to_dsq
    probe = xi_to_dsq(phi, params)
    wanted = dsq_query(3, 1, 1)
    probe(wanted)                         # force the needed queries
    queries = list(phi._cache.keys())
    trace = tmp_path / "xi.trace"
    trace.write_text(trace_of(phi, queries) + "\n")
    out = tmp_path / "dsq.trace"
    rc = main(["translate", "--kind", "xi-to-dsq", "--trace", str(trace),
               "--queries", wanted, "--out", str(out)])
    assert rc == 0
    line = out.read_text().splitlines()[0]
    assert line.split("\t")[0] == wanted
    assert line.split("\t")[1] == probe(wanted)


@pytest.mark.parametrize("from_file", [True, False])
def test_undecodable_trace_is_config_error(tmp_path, from_file):
    # a trace that is not text, read from a file or from standard input
    bad = b"\xff\xfe\n"
    argv = ["translate", "--kind", "xi-to-dsq"]
    if from_file:
        path = tmp_path / "bad.trace"
        path.write_bytes(bad)
        argv += ["--trace", str(path)]
    proc = subprocess.run([sys.executable, "-m", "metrent.cli", *argv],
                          input=bad, capture_output=True)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "config-error: trace is not UTF-8 text" in err
    assert "Traceback" not in err


def test_translate_missing_queries(tmp_path, capsys):
    trace = tmp_path / "short.trace"
    trace.write_text("0\t1\n")
    rc = main(["translate", "--kind", "xi-to-dsq", "--trace", str(trace),
               "--queries", "000"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config-error:")


def test_non_binary_trace_line_is_config_error():
    # the trace reader rejects the line before any query is asked
    rc, err = _run_main(["translate", "--kind", "xi-to-dsq"], "0\t1x\n")
    assert rc == 2
    assert err == ("config-error: trace line 1: query and answer "
                   "must be binary strings\n")


def test_help_documents_columns():
    rc, out, _ = run_cli(["--help"])
    assert rc == 0
    for col in ("packing_exp", "cover_exact", "cover_greedy", "bound_thm",
                "bound_lorentz_lo", "classes_observed", "dialog_bound",
                "sup_error"):
        assert col in out



@functools.cache
def _recorded_trace(kind):
    """The trace lines a source name of the kind's input type answers when
    the translated name is asked one query, and that query."""
    from metrent.baire import Name
    from metrent.banach import (BanachReprParams, banach_name, coeff_query,
                                delta_square_name, dsq_query, fs_vector,
                                haar_vector, lp_name, lp_query)
    from metrent.cli import _TRANSLATIONS
    from metrent.funcs import (PiecewiseLinear, chi, continuity_modulus,
                               lp_modulus, modulus_fn)
    from metrent.machine import exp_max_time
    from metrent.schauder import FSSystem, HaarSystem

    params, p = BanachReprParams(S=exp_max_time()), Fraction(2)
    f = PiecewiseLinear.build([0, Fraction(1, 2), 1], [0, 1, Fraction(1, 4)])
    g = chi(0, Fraction(1, 2))
    src, query = {
        "xi-to-dsq": (banach_name(fs_vector(f), params, FSSystem(), lambda n: n + 4),
                      dsq_query(2, 1, 1)),
        "dsq-to-xi": (delta_square_name(f, modulus_fn(continuity_modulus(f, 8))),
                      coeff_query(2, 1, 3)),
        "xi-to-lp": (banach_name(haar_vector(g, p), params, HaarSystem(p), lambda n: n + 4),
                     lp_query(0, 1, 1, 1)),
        "lp-to-xi": (lp_name(g, p, modulus_fn(lp_modulus(g, 2, 8))), coeff_query(1, 1, 3)),
    }[kind]
    seen = Name(src)
    _TRANSLATIONS[kind](seen, params)(query)
    return [f"{a}\t{b}" for a, b in seen._cache.items()], query


KINDS = list(cli._TRANSLATIONS)

# trace lines "query<TAB>answer" over short queries, with answers that are
# sometimes not binary, plus lines without a tab
trace_lines = st.one_of(
    st.tuples(st.text("01", max_size=4), st.text("01x", max_size=6)).map("\t".join),
    st.text("01x \t", max_size=6))


def _run_main(argv, stdin_text):
    """cli.main on argv with the given standard input: (exit code, stderr),
    argparse's own exits included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        saved = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()))
        try:
            rc = main(argv)
        except SystemExit as e:          # argparse rejects the argv
            rc = e.code
        finally:
            sys.stdin = saved
    return rc, err.getvalue()


@pytest.mark.parametrize("kind", KINDS)
def test_translate_empty_trace_without_queries(kind):
    # building a translation reads nothing from the source trace
    assert _run_main(["translate", "--kind", kind], "") == (0, "")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("queries", ["0a1", "0|x", "00|0 1|1"])
def test_non_binary_query_is_config_error(kind, queries):
    # the queries are read as the trace lines are: binary strings only
    rc, err = _run_main(["translate", "--kind", kind, "--queries", queries], "")
    bad = next(q for q in queries.split("|") if q.strip("01"))
    assert (rc, err) == (2, f"config-error: query {bad!r} is not a binary string\n")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["entropy", "bounds", "eval", "translate"]),
       st.integers(-3, 4), st.integers(-3, 30),
       st.sampled_from(["n", "n+2", "1,2,3", "3,1", "n+-2", "n+x", "x", ""]),
       st.sampled_from(["2", "3/2", "0", "-1", "abc", "1/0"]),
       st.sampled_from(["fs", "haar"]), st.sampled_from(KINDS + ["moon"]),
       st.lists(trace_lines, max_size=4), st.sampled_from(["", "0", "1|00", "x"]))
def test_exit_code_contract_fuzz(cmd, n_max, samples, l_table, p, basis, kind,
                                 lines, queries):
    # each subcommand gets only the flags it declares
    if cmd == "translate":
        argv = [cmd, "--kind", kind, f"--queries={queries}"]
    else:
        argv = [cmd, f"--n-max={n_max}"]
    if cmd == "entropy":
        argv += [f"--samples={samples}", f"--l-table={l_table}"]
    if cmd == "eval":
        argv += ["--basis", basis, f"--p={p}"]
    rc, err = _run_main(argv, "\n".join(lines))
    assert rc in (0, 2, 3), (argv, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["translate", "--kind", "xi-to-dsq", "--seed", "1"],
    ["bounds", "--samples", "3"],
    ["eval", "--l-table", "n"],
    ["entropy", "--S", "expmax"],
    ["entropy", "--space", "unit-interval"],    # the only space there is
])
def test_unread_flag_is_rejected(argv):
    rc, err = _run_main(argv, "")
    assert rc == 2
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["translate", "--kind", "bogus"],
    ["eval", "--basis", "bogus"],
    ["entropy", "--rep", "bogus"],
])
def test_unknown_choice_is_a_usage_error(argv):
    # argparse's choices are the one check on --kind, --basis and --rep
    rc, err = _run_main(argv, "")
    assert rc == 2
    assert "invalid choice: 'bogus'" in err and "config-error" not in err


# one answer of a recorded trace altered: kept, cut, extended, replaced
corruptions = st.sampled_from([
    lambda a: a, lambda a: a[:-1], lambda a: a[1:], lambda a: a + "0",
    lambda a: a + "1", lambda a: a[:len(a) // 2], lambda a: "0",
    lambda a: "", lambda a: "x", lambda a: "1" * 50])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 20), corruptions,
       st.sampled_from(["", "|0", "|x"]))
def test_translate_exit_code_on_altered_traces(kind, i, alter, extra):
    lines, query = _recorded_trace(kind)
    lines = list(lines)
    q, _, a = lines[i % len(lines)].partition("\t")
    lines[i % len(lines)] = f"{q}\t{alter(a)}"
    argv = ["translate", "--kind", kind, f"--queries={query}{extra}"]
    rc, err = _run_main(argv, "\n".join(lines))
    assert rc in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
