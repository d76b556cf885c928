import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from metrent.cli import main


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


def test_entropy_empty_sample(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["entropy", "--samples", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "n,packing_exp,cover_exact,cover_greedy,bound_thm,"
        "bound_lorentz_lo,bound_lorentz_hi,classes_observed,l_ref"]


def test_unknown_space_config_error():
    rc, _, err = run_cli(["entropy", "--space", "moon"])
    assert rc == 2
    assert "config-error" in err


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


@pytest.mark.parametrize("args", [
    ["translate", "--kind", "xi-to-dsq", "--trace", "{tmp}/missing.trace"],
    ["eval", "--basis", "haar", "--p", "abc"],
    ["eval", "--basis", "haar", "--p", "0"],
    ["eval", "--basis", "haar", "--p=-3/2"],
    ["eval", "--basis", "haar", "--p", "1/0"],
    ["eval", "--basis", "fs", "--n-max", "1", "--out", "{tmp}/no-such-dir/fs.csv"],
    ["entropy", "--samples", "4", "--l-table", "3,1"],
    ["entropy", "--samples", "4", "--l-table", "n+-2"],
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


def test_translate_missing_queries(tmp_path):
    trace = tmp_path / "short.trace"
    trace.write_text("0\t1\n")
    rc = main(["translate", "--kind", "xi-to-dsq", "--trace", str(trace),
               "--queries", "000"])
    assert rc == 2


def test_help_documents_columns():
    rc, out, _ = run_cli(["--help"])
    assert rc == 0
    for col in ("packing_exp", "cover_exact", "cover_greedy", "bound_thm",
                "bound_lorentz_lo", "classes_observed", "dialog_bound",
                "sup_error"):
        assert col in out
