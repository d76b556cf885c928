"""The experiment scripts in scripts/ run as written: each exits 0 and every
CSV it writes has a header and at least one row of the header's width."""

import csv
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("basis_tables.py", []),
    ("bound_tables.py", []),
    ("entropy_unit_interval.py",
     ["--n-max", "3", "--samples", "20", "--out", "e.csv"]),
])
def test_script_writes_its_tables(tmp_path, script, args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    tables = sorted(tmp_path.glob("*.csv"))
    assert tables, "no CSV written"
    for table in tables:
        header, *rows = csv.reader(table.read_text().splitlines())
        assert header and rows, table.name
        assert all(len(row) == len(header) for row in rows), table.name
