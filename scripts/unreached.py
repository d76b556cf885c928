#!/usr/bin/env python3
"""Line census of the tier-1 suite: every statement in src/metrent that no
test runs.

A ``sitecustomize`` module put first on PYTHONPATH makes every Python
process of the run, the pytest process and the CLI tests' subprocesses
alike, trace the lines it runs in src/metrent and write them out at exit.
The traces are merged, and each outermost statement that never ran is
printed as ``module:line: source``.  Docstrings are not statements here.

Tracing slows the suite about fourfold, so the acceptance tests with a
wall-clock gate (C01's 10 s, C04's 120 s) run untraced, in a pytest run of
their own; every other test runs traced.  The summary of both runs is
printed for reference, and a failed test does not fail the census.

Run from anywhere, stdlib only:

    python scripts/unreached.py
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metrent"
TRACE_ENV = "METRENT_LINE_TRACE_DIR"
# the acceptance tests whose wall-clock gate tracing would push over
TIMED_TESTS = ("tests/test_acceptance.py::test_c01_encoding_suite",
               "tests/test_acceptance.py::test_c04_dialog_bounds")

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_out = os.environ.get({env!r})
_pkg = {pkg!r}
_hits = set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_pkg):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def _dump():
    sys.settrace(None)
    path = os.path.join(_out, "lines-%d.txt" % os.getpid())
    with open(path, "w") as fh:
        fh.writelines("%s\\t%d\\n" % hit for hit in _hits)


if _out:
    sys.settrace(_global)
    threading.settrace(_global)
    atexit.register(_dump)
'''


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    out = []
    for field in ("body", "orelse", "finalbody"):
        out += [s for s in getattr(stmt, field, []) if isinstance(s, ast.stmt)]
    for handler in getattr(stmt, "handlers", []):
        out += handler.body
    for case in getattr(stmt, "cases", []):
        out += case.body
    return out


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _own_lines(stmt: ast.stmt, kids: list[ast.stmt]) -> range:
    """The lines that belong to the statement itself: its decorators and
    header for a compound statement, all of it for a simple one."""
    first = min([stmt.lineno] + [d.lineno for d in
                                 getattr(stmt, "decorator_list", [])])
    last = kids[0].lineno - 1 if kids else stmt.end_lineno
    return range(first, max(last, stmt.lineno) + 1)


def _ran(stmt: ast.stmt, hit: set[int]) -> bool:
    """Whether a traced line belongs to the statement or to one inside it.
    A def line runs at import, so it does not count as the function
    running."""
    kids = [k for k in _children(stmt) if not _is_docstring(k)]
    is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    if not is_def and any(k in hit for k in _own_lines(stmt, kids)):
        return True
    return any(_ran(k, hit) for k in kids)


def _unreached(body: list[ast.stmt], hit: set[int]):
    """Each outermost statement of ``body`` that did not run."""
    for stmt in body:
        if _is_docstring(stmt):
            continue
        if _ran(stmt, hit):
            yield from _unreached(_children(stmt), hit)
        else:
            yield stmt


def _pytest(args: list[str], paths: list[str], env: dict) -> subprocess.CompletedProcess:
    paths = paths + [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, capture_output=True, text=True)


def _run_suite(trace_dir: str) -> list[subprocess.CompletedProcess]:
    """The traced run of every test but the timed ones, then the untraced
    run of those."""
    with open(os.path.join(trace_dir, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE.format(env=TRACE_ENV, pkg=str(PACKAGE) + os.sep))
    deselect = [arg for test in TIMED_TESTS for arg in ("--deselect", test)]
    return [_pytest(["--continue-on-collection-errors", *deselect], [trace_dir],
                    {TRACE_ENV: trace_dir}),
            _pytest(list(TIMED_TESTS), [], {})]


def _merged_hits(trace_dir: str) -> dict[str, set[int]]:
    hits: dict[str, set[int]] = {}
    for path in Path(trace_dir).glob("lines-*.txt"):
        for row in path.read_text().splitlines():
            name, _, line = row.rpartition("\t")
            hits.setdefault(name, set()).add(int(line))
    return hits


def main() -> int:
    with tempfile.TemporaryDirectory() as trace_dir:
        runs = _run_suite(trace_dir)
        hits = _merged_hits(trace_dir)
        processes = len(list(Path(trace_dir).glob("lines-*.txt")))
    for what, proc in zip((f"tier-1 under tracing ({processes} traced processes)",
                           "timed acceptance tests, untraced"), runs):
        tail = proc.stdout.strip().splitlines()
        print(f"{what}: {tail[-1] if tail else 'no output'} (exit {proc.returncode})")
        for row in tail:
            if row.startswith(("FAILED", "ERROR")):
                print(f"  {row}")
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        for stmt in _unreached(tree.body, hits.get(str(path), set())):
            print(f"{path.stem}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
            count += 1
    print(f"{count} unreached statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
