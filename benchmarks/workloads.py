"""The four benchmark workloads: seeded inputs, the fixed job, and the
checks on every output.

Inputs come only from the benchmark seed and are plain numbers; every
library object is built inside the job, so that a traced job sees all of
its library calls.  Jobs reach the library through module attributes
(``machine.metered_run``), which the tracer patches.

Each operation (one CLI invocation, one metered run, one query to a
translated name) goes through ``OpLog.run``, which times it, tags it with a
run id when tracing, and counts it as attempted.  An operation fails when it
raises or when its output misses the contract tolerance; the job's output
digest is compared with the recorded reference by the caller.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("entropy_cli", "metered_metric", "basis", "translate")

# The CLI reports exact covers for clouds of at most this many points.
EXACT_COVER_CAP = 20

# Job sizes.  "full" is what the benchmark measures; "small" keeps the same
# shape for the benchmark's own tests.
SIZES = {
    "full": {
        "entropy_samples": (EXACT_COVER_CAP, 80, 80, 80, 80),
        "entropy_n_max": 8,
        "eq_pairs": 360, "eq_n_max": 10,
        "compact_pairs": 100, "compact_n_max": 8,
        "fs_eval_n_max": 6, "haar_eval_n_max": 12,
        "haar_norm_fns": 2, "fs_norm_fns": 2, "fs_norm_n_max": 2,
        "pl_fns": 5, "step_fns": 5,
    },
    "small": {
        "entropy_samples": (EXACT_COVER_CAP, 30, 30),
        "entropy_n_max": 4,
        "eq_pairs": 6, "eq_n_max": 4,
        "compact_pairs": 3, "compact_n_max": 3,
        "fs_eval_n_max": 3, "haar_eval_n_max": 6,
        "haar_norm_fns": 1, "fs_norm_fns": 1, "fs_norm_n_max": 1,
        "pl_fns": 1, "step_fns": 1,
    },
}

HAAR_P_CHOICES = ("1", "2", "3", "3/2")
PL_SCALES = (1, 2, 3)          # corpus strata: dyadic breakpoint scales
STEP_SCALES = (2, 3)
PL_QUERIES = [(n, r, m) for n in (0, 3, 6, 10)
              for (r, m) in ((1, 1), (1, 2), (3, 2), (0, 0), (1, 0), (5, 3))]
STEP_QUERIES = [(n, k, l, m) for n in (0, 3, 6, 10)
                for (k, l, m) in ((0, 1, 0), (1, 3, 2), (0, 1, 1), (1, 2, 1),
                                  (3, 7, 3), (0, 5, 3))]


def load_library():
    """Import every metrent module from this checkout's ``src``."""
    if not (SRC / "metrent" / "__init__.py").is_file():
        raise SystemExit(f"metrent sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import metrent
    import metrent.cli  # noqa: F401  (imports every other module)
    if Path(metrent.__file__).resolve().parent != SRC / "metrent":
        raise SystemExit(f"metrent imported from {metrent.__file__}, not {SRC}")


CALIB_EVERY_S = 0.2


class OpLog:
    """Latencies, failures and metered totals of one job.

    With a ``calibrate`` callable, the log also times it between operations
    at most every CALIB_EVERY_S seconds, so that the machine's speed is
    sampled throughout the job; ``calib_spent`` is the time those samples
    took, which is not part of the job.
    """

    def __init__(self, tracer=None, calibrate=None):
        self.tracer = tracer
        self.calibrate = calibrate
        self.calib: list[float] = []
        self.calib_spent = 0.0
        self._next_calib = time.perf_counter() + CALIB_EVERY_S
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metered_steps = 0
        self.oracle_queries = 0
        self._digest = hashlib.sha256()

    def run(self, fn, *args):
        """Time one operation; None when it raised (counted as failed)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        t = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # every failure mode counts, then the job goes on
            self.latencies.append(time.perf_counter() - t)
            self.fail(f"op {self.attempted}: {type(e).__name__}: {e}")
            self.record("raised", type(e).__name__)
            result = None
        else:
            self.latencies.append(time.perf_counter() - t)
        if self.tracer is not None:
            self.tracer.run_id = 0
        if self.calibrate is not None and time.perf_counter() >= self._next_calib:
            self.calib.append(self.calibrate())
            self.calib_spent += self.calib[-1]
            self._next_calib = time.perf_counter() + CALIB_EVERY_S
        return result

    def metered(self, report) -> None:
        self.metered_steps += report.steps_used
        self.oracle_queries += len(report.queries)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def check(self, ok: bool, msg: str) -> None:
        if not ok:
            self.fail(msg)

    def record(self, *items) -> None:
        self._digest.update(repr(items).encode() + b"\n")

    def digest(self) -> str:
        return self._digest.hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _grid_point(rnd: random.Random, denom: int = 256) -> Fraction:
    return Fraction(rnd.randrange(0, denom + 1), denom)


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    s = SIZES[size]
    rnd = _rng(workload, seed)
    if workload == "entropy_cli":
        return {"runs": [(count, rnd.randrange(1 << 30)) for count in s["entropy_samples"]],
                "n_max": s["entropy_n_max"]}
    if workload == "metered_metric":
        return {"eq": [(_grid_point(rnd), _grid_point(rnd)) for _ in range(s["eq_pairs"])],
                "eq_n_max": s["eq_n_max"],
                "compact": [(_grid_point(rnd), _grid_point(rnd))
                            for _ in range(s["compact_pairs"])],
                "compact_n_max": s["compact_n_max"]}
    if workload == "basis":
        return {"fs_eval_n_max": s["fs_eval_n_max"],
                "haar_eval_n_max": s["haar_eval_n_max"],
                "haar_p": rnd.choice(HAAR_P_CHOICES),
                "haar_fns": [_step_data(rnd, 3, inner=3, span=8, den=4)
                             for _ in range(s["haar_norm_fns"])],
                "fs_fns": [_pl_data(rnd, 3) for _ in range(s["fs_norm_fns"])],
                "fs_norm_n_max": s["fs_norm_n_max"]}
    if workload == "translate":
        return {"pl": [_pl_data(rnd, PL_SCALES[i % len(PL_SCALES)])
                       for i in range(s["pl_fns"])],
                "step": [_step_data(rnd, STEP_SCALES[i % len(STEP_SCALES)],
                                    inner=2, span=4, den=2)
                         for i in range(s["step_fns"])]}
    raise ValueError(f"unknown workload {workload!r}")


def _pl_data(rnd: random.Random, scale: int):
    xs = [Fraction(t, 1 << scale) for t in range((1 << scale) + 1)]
    ys = [Fraction(rnd.randrange(-8, 9), 8) for _ in xs]
    return xs, ys


def _step_data(rnd: random.Random, scale: int, inner: int, span: int, den: int):
    pool = [Fraction(k, 1 << scale) for k in range(1, 1 << scale)]
    cuts = [Fraction(0)] + sorted(rnd.sample(pool, inner)) + [Fraction(1)]
    levels = [Fraction(rnd.randrange(-span, span + 1), den) for _ in range(len(cuts) - 1)]
    return cuts, levels


# ---------------------------------------------------------------------------
# reference values computed here, independently of the library

def pl_value(xs, ys, x: Fraction) -> Fraction:
    if x < xs[0] or x > xs[-1]:
        return Fraction(0)
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return Fraction(0)


def step_integral(cuts, levels, a: Fraction, b: Fraction) -> Fraction:
    sign = 1
    if b < a:
        a, b, sign = b, a, -1
    total = Fraction(0)
    for lo, hi, lev in zip(cuts, cuts[1:], levels):
        w = min(b, hi) - max(a, lo)
        if w > 0:
            total += lev * w
    return sign * total


def line_cover_count(points, radius: Fraction) -> int:
    """Fewest closed radius-balls centred at sample points that cover a set
    of points on the line: sweep from the left, centre each ball at the
    rightmost point within reach of the leftmost uncovered one."""
    pts = sorted(points)
    count, i = 0, 0
    while i < len(pts):
        count += 1
        j = i
        while j + 1 < len(pts) and pts[j + 1] - pts[i] <= radius:
            j += 1
        reach = pts[j] + radius
        while i < len(pts) and pts[i] <= reach:
            i += 1
    return count


def _norm_ok(norm_sq: Fraction, z: int, n: int) -> bool:
    """|sqrt(norm_sq) - z/(n+1)| <= 1/(n+1), compared through squares."""
    scaled = norm_sq * (n + 1) ** 2
    return max(z - 1, 0) ** 2 <= scaled <= (z + 1) ** 2


def _capture(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# jobs

def job_entropy_cli(inp: dict, log: OpLog) -> None:
    """``metrent entropy`` through cli.main, once at the exact-cover cap and
    four times above it.  Checks each CSV row against a line sweep over the
    same sample points."""
    from metrent import cli
    n_max = inp["n_max"]
    for samples, cli_seed in inp["runs"]:
        argv = ["entropy", "--n-max", str(n_max), "--samples", str(samples),
                "--seed", str(cli_seed)]
        res = log.run(_capture, cli.main, argv)
        if res is None:
            continue
        rc, text = res
        log.record(samples, cli_seed, rc, text)
        if rc != 0:
            log.fail(f"entropy {argv}: exit {rc}")
            continue
        rnd = random.Random(cli_seed)
        points = [Fraction(rnd.randrange(0, 257), 256) for _ in range(samples)]
        rows = list(csv.DictReader(io.StringIO(text)))
        bad = [r for r in rows if not _entropy_row_ok(r, points, samples)]
        log.check([int(r["n"]) for r in rows] == list(range(n_max + 1)) and not bad,
                  f"entropy {argv}: rows {bad or [r['n'] for r in rows]}")


def _entropy_row_ok(r: dict, points, samples: int) -> bool:
    n = int(r["n"])
    best = line_cover_count(points, Fraction(1, 1 << n))
    exact = int(r["cover_exact"]) if r["cover_exact"] else None
    return ((exact is not None) == (samples <= EXACT_COVER_CAP)
            and (exact is None or exact == best)
            and int(r["cover_greedy"]) >= best
            and (1 << int(r["packing_exp"])) <= best
            and int(r["classes_observed"]) >= best
            and int(r["l_ref"]) == n
            and float(r["bound_lorentz_lo"]) <= float(r["bound_lorentz_hi"]))


def job_metered_metric(inp: dict, log: OpLog) -> None:
    """Thousands of short metered runs: equality from the Cauchy metric on
    paired Cauchy names (C03 shape) and the compact-space metric on paired
    compact names with the default approximation chooser (C06 shape)."""
    from metrent import baire, compact, machine, reprs, strings
    M = compact.unit_interval_space()
    metric = reprs.cauchy_metric_program(M)
    prog, T_eq = machine.equality_from_metric(metric, reprs.cauchy_metric_time())
    budget = machine.RunningTime(lambda l, n: 8 * T_eq.bound(l, n) + 8)
    l2 = lambda k: 2 * (k + 1)
    for x, y in inp["eq"]:
        chi = baire.pair_names(reprs.cauchy_name(M, compact.unit_interval_short_approx(x)),
                               reprs.cauchy_name(M, compact.unit_interval_short_approx(y)))
        d = abs(x - y)
        for n in range(inp["eq_n_max"] + 1):
            res = log.run(machine.metered_run, prog, chi, "1" * n, budget, l2)
            if res is None:
                continue
            out, rep, _ = res
            log.metered(rep)
            log.record(out, rep.steps_used, len(rep.queries))
            log.check(not (d <= Fraction(1, 1 << (n + 1)) and out != "1")
                      and not (d > Fraction(1, 1 << n) and out != "0"),
                      f"equality {x}, {y} at n={n}: {out!r}")
    params = compact.CompactReprParams(ell=compact.unit_interval_ell,
                                       S=machine.const_time(1))
    T = compact.compact_metric_time(params)
    cprog = compact.compact_metric_program(params)
    run_budget = machine.RunningTime(lambda l, m: 64 * T.bound(l, m) + 64)
    for x, y in inp["compact"]:
        chi = baire.pair_names(compact.compact_name(M, params, x),
                               compact.compact_name(M, params, y))
        lc = compact.name_length_fn(chi)
        for n in range(inp["compact_n_max"] + 1):
            a = strings.nat_str(n)
            res = log.run(machine.metered_run, cprog, chi, a, run_budget, lc)
            if res is None:
                continue
            out, rep, _ = res
            log.metered(rep)
            log.record(out, rep.steps_used, len(rep.queries))
            z = strings.decode_int(out)
            log.check(abs(abs(x - y) - Fraction(z, n + 1)) <= Fraction(1, n + 1)
                      and rep.steps_used <= 24 * T.bound(lc, len(a)) + 24,
                      f"compact metric {x}, {y} at n={n}: {z}, {rep.steps_used} steps")


def job_basis(inp: dict, log: OpLog) -> None:
    """Basis synthesis: ``metrent eval`` for both bases through cli.main,
    and the metered norm program on Haar-coefficient (p = 2) and
    hat-coefficient names."""
    from metrent import banach, cli, compact, funcs, machine, schauder, strings
    n_fs = inp["fs_eval_n_max"]
    res = log.run(_capture, cli.main, ["eval", "--basis", "fs", "--n-max", str(n_fs)])
    if res is not None:
        rc, text = res
        log.record("fs", rc, text)
        rows = list(csv.DictReader(io.StringIO(text)))
        # the hat interpolant of x(1-x) on step 2^-L misses by h^2/4 at midpoints
        want = [Fraction(1, 4 ** (level + 1)) for level in range(n_fs + 1)]
        log.check(rc == 0 and [Fraction(r["sup_error"]) for r in rows] == want,
                  f"eval fs: exit {rc}, rows {rows}")
    p_txt, n_haar = inp["haar_p"], inp["haar_eval_n_max"]
    res = log.run(_capture, cli.main,
                  ["eval", "--basis", "haar", "--p", p_txt, "--n-max", str(n_haar)])
    if res is not None:
        rc, text = res
        log.record("haar", rc, text)
        p = Fraction(p_txt)
        want = [(i, Fraction(1, 1 << i.bit_length()), (i.bit_length() - 1) / p)
                for i in range(1, n_haar + 1)]
        got = [(int(r["i"]), Fraction(r["coef"]), Fraction(r["exp2"]))
               for r in csv.DictReader(io.StringIO(text))]
        log.check(rc == 0 and got == want, f"eval haar p={p_txt}: exit {rc}")

    ell = lambda n: n + 4
    params = banach.BanachReprParams(S=machine.exp_max_time())
    T = banach.banach_time(params)
    budget = machine.RunningTime(lambda l, n: 64 * T.bound(l, n) + 64)
    prog = banach.banach_norm_program(params)
    p2 = Fraction(2)
    runs = []
    for cuts, levels in inp["haar_fns"]:
        f = funcs.StepFn.build(cuts, levels)
        phi = banach.banach_name(banach.haar_vector(f, p2), params,
                                 schauder.HaarSystem(p2), ell)
        norm_sq = sum((lev * lev * (b - a) for a, b, lev in zip(cuts, cuts[1:], levels)),
                      Fraction(0))
        runs.append((phi, norm_sq, 0))
    for xs, ys in inp["fs_fns"]:
        f = funcs.PiecewiseLinear.build(xs, ys)
        phi = banach.banach_name(banach.fs_vector(f), params, schauder.FSSystem(), ell)
        sup = max(abs(y) for y in ys)
        runs.append((phi, sup * sup, inp["fs_norm_n_max"]))
    for phi, norm_sq, n_max in runs:
        lfn = compact.name_length_fn(phi)
        for n in range(n_max + 1):
            res = log.run(machine.metered_run, prog, phi, strings.nat_str(n), budget, lfn)
            if res is None:
                continue
            out, rep, _ = res
            log.metered(rep)
            z = strings.decode_int(out)
            log.record(out, rep.steps_used, len(rep.queries))
            log.check(_norm_ok(norm_sq, z, n), f"norm at n={n}: {z}, want^2 {norm_sq}")


def job_translate(inp: dict, log: OpLog) -> None:
    """Round trips point value -> hat coefficients -> point value and
    integral -> Haar coefficients -> integral (C10 shape) over a corpus of
    fresh names, each asked a fixed query grid."""
    from metrent import banach, funcs, machine
    params = banach.BanachReprParams(S=machine.exp_max_time())
    p = Fraction(2)
    for xs, ys in inp["pl"]:
        f = funcs.PiecewiseLinear.build(xs, ys)
        mu = funcs.modulus_fn(funcs.continuity_modulus(f, 16))
        psi = banach.xi_to_dsq(banach.dsq_to_xi(banach.delta_square_name(f, mu), params),
                               params)
        for n, r, m in PL_QUERIES:
            v = log.run(banach.dsq_value, psi, n, r, m)
            if v is None:
                continue
            log.record(str(v))
            exact = pl_value(xs, ys, Fraction(r, 1 << m))
            log.check(abs(exact - v) <= Fraction(2, 1 << n),
                      f"point value at {r}/2^{m}, n={n}: {v} vs {exact}")
    for cuts, levels in inp["step"]:
        f = funcs.StepFn.build(cuts, levels)
        mu = funcs.modulus_fn(funcs.lp_modulus(f, 2, 16))
        psi = banach.xi_to_lp(banach.lp_to_xi(banach.lp_name(f, p, mu), params, p),
                              params, p)
        for n, k, l, m in STEP_QUERIES:
            v = log.run(banach.lp_value, psi, k, l, m, n)
            if v is None:
                continue
            log.record(str(v))
            exact = step_integral(cuts, levels, Fraction(k, 1 << m), Fraction(l, 1 << m))
            log.check(abs(exact - v) <= Fraction(2, 1 << n),
                      f"integral over [{k}, {l}]/2^{m}, n={n}: {v} vs {exact}")


JOBS = {
    "entropy_cli": job_entropy_cli,
    "metered_metric": job_metered_metric,
    "basis": job_basis,
    "translate": job_translate,
}
