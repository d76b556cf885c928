"""Experiment harness: the entropy run (dialog classes against covering
numbers), name translation, basis evaluation, and bound tables, all emitted
as deterministic CSV.

Exit codes: 0 on success, 2 on a ConfigError (a bad request, including a
flag the subcommand does not read), 3 on a ContractError (a name broke its
representation or its budget during the run).
"""

from __future__ import annotations

import argparse
import csv
import functools
import random
import sys
from fractions import Fraction

from .baire import name_from_trace, trace_of
from .banach import (BanachReprParams, dsq_to_xi, lp_to_xi, xi_to_dsq,
                     xi_to_lp)
from .compact import unit_interval_short_approx, unit_interval_space
from .entropy import (EXACT_COVER_CAP, ApproxSetSpec, PointCloud,
                      covering_number, dialog_cover_experiment,
                      dialog_length_bound, lorentz_bounds, packing_exponent)
from .funcs import PiecewiseLinear, modulus_fn, sup_dist_pl
from .machine import equality_from_metric, exp_max_time, RunningTime
from .reprs import cauchy_metric_program, cauchy_metric_time, cauchy_name
from .schauder import (_grid_hats, fs_partial_sum_pl, haar_integral,
                       haar_scale_exp, haar_support)
from .strings import ConfigError, ContractError, InvalidConfig, is_binstr

COLUMNS_DOC = """\
CSV columns:
  entropy:
    n               precision exponent (radius 2^-n)
    packing_exp     floor-lb size of the greedy maximal separated set
    cover_exact     exact minimal ball count (centers on sample points)
    cover_greedy    greedy farthest-point ball count
    bound_thm       dialog bound 2(T(T+1)+1) with T the metered budget
    bound_lorentz_lo / bound_lorentz_hi
                    full-approximation-set entropy bounds (natural log)
    classes_observed  dialog classes among the sampled names
    l_ref           the reference column l(n) for the sampled name class
  bounds:
    t, dialog_bound   the map t -> 2(t(t+1)+1)
  eval (fs):
    level, sup_error  partial-sum error of the hat expansion per level
  eval (haar):
    i, p, coef, exp2  exact integral coef * 2^exp2 over the left half-support
                      (coef its step form, exp2 the element's scale exponent)
"""


def _parse_l_table(spec: str):
    if spec == "n":
        return lambda n: n
    try:
        if spec.startswith("n+"):
            c = int(spec[2:])
            if c < 0:
                raise InvalidConfig(f"negative offset {c}")
            return lambda n: n + c
        return modulus_fn([int(v) for v in spec.split(",")])
    except ValueError as e:
        raise ConfigError(f"bad length table {spec!r}: {e}") from e


_SAMPLE_SCALE = 8


def _sample_numerators(count: int, seed: int) -> list[int]:
    """Numerators k of the sample points k / 2^_SAMPLE_SCALE in [0, 1]."""
    rnd = random.Random(seed)
    return [rnd.randrange(0, (1 << _SAMPLE_SCALE) + 1) for _ in range(count)]


def _open_out(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as e:
        raise ConfigError(f"cannot write {path!r}: {e.strerror}") from e


def _write_csv(path, header, rows):
    out = _open_out(path) if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        for r in rows:
            w.writerow(r)
    finally:
        if path:
            out.close()


def cmd_entropy(args) -> int:
    l = _parse_l_table(args.l_table)
    M = unit_interval_space()
    ks = _sample_numerators(args.samples, args.seed)
    # one name per distinct numerator: the dialog experiment meters it once
    by_k = {k: cauchy_name(M, unit_interval_short_approx(
        Fraction(k, 1 << _SAMPLE_SCALE))) for k in set(ks)}
    names = [by_k[k] for k in ks]
    metric = cauchy_metric_program(M)
    eq_prog, T_eq = equality_from_metric(metric, cauchy_metric_time())
    budget = RunningTime(lambda lf, n: 8 * T_eq.bound(lf, n) + 8)
    # in 2^-_SAMPLE_SCALE units: scaling distances and radii keeps each test
    cloud = PointCloud(ks, lambda i, j: abs(ks[i] - ks[j])) if ks else None
    k_dist = lambda a, b: abs(a - b)
    delta = ApproxSetSpec([Fraction(1)] + [
        Fraction(1, 1 << n) for n in range(1, args.n_max + 6)])
    rows = []
    for n in range(args.n_max + 1):
        if not ks:
            break
        report = dialog_cover_experiment(names, ks, eq_prog, budget, l, n,
                                         k_dist, _SAMPLE_SCALE)
        shift = n - _SAMPLE_SCALE
        cover_e = covering_number(cloud, shift, "exact").count \
            if len(cloud) <= EXACT_COVER_CAP else ""
        cover_g = covering_number(cloud, shift, "greedy").count
        lo, hi = lorentz_bounds(delta, n)
        rows.append([n, packing_exponent(cloud, shift), cover_e, cover_g,
                     report.dialog_bound, f"{lo:.6f}", f"{hi:.6f}",
                     report.classes_observed, l(n)])
    _write_csv(args.out, ["n", "packing_exp", "cover_exact", "cover_greedy",
                          "bound_thm", "bound_lorentz_lo", "bound_lorentz_hi",
                          "classes_observed", "l_ref"], rows)
    return 0


def cmd_bounds(args) -> int:
    rows = [[t, dialog_length_bound(t)] for t in range(args.n_max + 1)]
    _write_csv(args.out, ["t", "dialog_bound"], rows)
    return 0


def cmd_eval(args) -> int:
    rows = []
    if args.basis == "fs":
        # the parabola x(1-x) sampled on the grid of step 2^-(level+1), so
        # that the sup distance to the level's partial sum, which is reached
        # at the midpoints of the level's cells, is read on that grid
        for level in range(args.n_max + 1):
            m = 2 << level
            vals = [t * (m - t) for t in range(m + 1)]          # over m^2
            target = PiecewiseLinear._of(range(m + 1), m, vals, m * m)
            lams = _grid_hats(vals, level + 1, (1 << level) + 1)  # over 2 m^2
            pl = fs_partial_sum_pl(lams).scaled(Fraction(1, 2 * m * m))
            rows.append([level, str(sup_dist_pl(target, pl))])
        _write_csv(args.out, ["level", "sup_error"], rows)
        return 0
    p = _parse_p(args.p)                # haar, the other --basis choice
    for i in range(1, args.n_max + 1):
        lo, q, _ = haar_support(i)
        rows.append([i, str(p), str(haar_integral(i, lo, q)),
                     str(haar_scale_exp(i, p))])
    _write_csv(args.out, ["i", "p", "coef", "exp2"], rows)
    return 0


def _parse_p(spec: str) -> Fraction:
    try:
        p = Fraction(spec)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad exponent --p {spec!r}") from e
    if p <= 0:
        raise ConfigError(f"exponent --p must be positive, got {spec!r}")
    return p


# the translations `--kind` chooses from, each as (name, params) -> name
_TRANSLATIONS = {
    "xi-to-dsq": xi_to_dsq,
    "dsq-to-xi": dsq_to_xi,
    "xi-to-lp": lambda name, params: xi_to_lp(name, params, Fraction(2)),
    "lp-to-xi": lambda name, params: lp_to_xi(name, params, Fraction(2)),
}


def cmd_translate(args) -> int:
    # read bytes and decode strictly: standard input's own decoder would
    # turn undecodable bytes into surrogates instead of failing
    try:
        if args.trace:
            with open(args.trace, "rb") as fh:
                data = fh.read()
        else:
            data = sys.stdin.buffer.read()
        text = data.decode("utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read trace {args.trace!r}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"trace is not UTF-8 text: {e.reason} at byte {e.start}") from e
    src = name_from_trace(text)
    queries = args.queries.split("|") if args.queries else []
    for q in queries:
        if not is_binstr(q):
            raise InvalidConfig(f"query {q!r} is not a binary string")
    params = BanachReprParams(S=exp_max_time())
    trace = trace_of(_TRANSLATIONS[args.kind](src, params), queries)
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(trace + "\n")
    else:
        print(trace)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once per process: it reads only constants,
    and each parse_args call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="metrent",
        description="entropy experiments, name translation, and bound tables",
        epilog=COLUMNS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand declares only the flags its handler reads
    def table(p):
        p.add_argument("--n-max", dest="n_max", type=int, default=6)
        p.add_argument("--out", default="")

    p = sub.add_parser("entropy", help="dialog classes vs covering numbers")
    table(p)
    p.add_argument("--rep", default="cauchy", choices=("cauchy",))
    p.add_argument("--l-table", dest="l_table", default="n",
                   help="length function: 'n', 'n+C', or a comma table")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("bounds", help="dialog length bound table")
    table(p)

    p = sub.add_parser("eval", help="basis evaluation tables")
    table(p)
    p.add_argument("--basis", default="fs", choices=("fs", "haar"))
    p.add_argument("--p", default="2")

    p = sub.add_parser("translate", help="translate a traced name")
    p.add_argument("--out", default="")
    p.add_argument("--kind", required=True, choices=_TRANSLATIONS)
    p.add_argument("--trace", default="")
    p.add_argument("--queries", default="",
                   help="'|'-separated queries the output trace must cover")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"entropy": cmd_entropy, "bounds": cmd_bounds, "eval": cmd_eval,
                "translate": cmd_translate}
    try:
        for flag, dest in (("--n-max", "n_max"), ("--samples", "samples")):
            v = getattr(args, dest, 0)
            if v < 0:
                raise ConfigError(f"{flag} must be non-negative, got {v}")
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config-error: {e}", file=sys.stderr)
        return 2
    except ContractError as e:
        print(f"contract-violation: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
