"""Representations of metric spaces: standard reals, Cauchy, relativized
Cauchy, products, and the co-r.e. rejection procedure.

Decoders accept any value satisfying the contract; generators are
deterministic (least admissible index, round-to-nearest with ties away from
zero).  All "is a name" checks are finite-depth semi-decisions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable

from .baire import LengthFn, Name, pair_names
from .machine import Ctx, RunningTime, paired, precision_input, quarter_round
from .strings import (Dyadic, InvalidConfig, MalformedName, decode_int,
                      encode_int, nat_str, parse_nat, parse_nats, proj_value,
                      round_ratio, tuple_strs)


# ---------------------------------------------------------------------------
# metric space descriptions

@dataclass
class MetricSpaceSpec:
    """A separable metric space given by a dense sequence and a discrete
    metric evaluator.

    ``dist(i, j, precision)`` returns a rational within 1/(precision+1) of
    d(r_i, r_j); for the library's dyadic spaces it is exact.  ``exact_dist``
    compares arbitrary points exactly: metric queries are answered and
    names validated with it, so every space must supply it.
    """

    label: str
    point: Callable[[int], object]
    dist: Callable[[int, int, int], Fraction]
    exact_dist: Callable[[object, object], Fraction]
    approx_index: Callable[[object, int], int] | None = None


def _line_dist(a, b) -> Fraction:
    """|a - b| on the real line; only operands that are not Fractions yet
    are converted."""
    if not isinstance(a, Fraction):
        a = Fraction(a)
    if not isinstance(b, Fraction):
        b = Fraction(b)
    return abs(a - b)


def _zigzag(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1


def _cantor(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def dyadic_line_point(i: int) -> Fraction:
    w = (isqrt(8 * i + 1) - 1) // 2
    t = w * (w + 1) // 2
    scale = i - t
    a = w - scale
    num = a // 2 if a % 2 == 0 else -(a + 1) // 2
    return Fraction(num, 1 << scale)


def dyadic_line_index(x: Fraction) -> int:
    d = Dyadic.from_fraction(x)
    return _cantor(_zigzag(d.num), d.scale)


def dyadic_line_space() -> MetricSpaceSpec:
    """The real line with the diagonal enumeration of all dyadics."""
    def dist(i: int, j: int, precision: int) -> Fraction:
        return abs(dyadic_line_point(i) - dyadic_line_point(j))

    def approx(x, n: int) -> int:
        x = Fraction(x) if not isinstance(x, Fraction) else x
        top = dyadic_line_index(x)
        tol = Fraction(1, n + 1)
        for i in range(top + 1):
            if abs(dyadic_line_point(i) - x) <= tol:
                return i
        return top

    return MetricSpaceSpec(
        label="dyadic-line",
        point=dyadic_line_point,
        dist=dist,
        exact_dist=_line_dist,
        approx_index=approx,
    )


# ---------------------------------------------------------------------------
# the standard representation of the reals

def real_name(x: Dyadic | Fraction, label: str = "") -> Name:
    """Name with phi(n) an integer encoding and |x - phi(n)/(n+1)| <= 1/(n+1);
    the generator picks round(x*(n+1)) with ties away from zero."""
    xf = x.as_fraction() if isinstance(x, Dyadic) else Fraction(x)

    def fn(a: str) -> str:
        n = parse_nat(a)
        if n is None:
            return ""
        return encode_int(round_ratio(xf.numerator * (n + 1), xf.denominator))

    return Name(fn, label=label or f"real({xf})")


def real_decode(phi: Name, n: int) -> tuple[Fraction, Fraction]:
    """Value z/(n+1) together with its error bound 1/(n+1)."""
    z = decode_int(phi(nat_str(n)))
    return Fraction(z, n + 1), Fraction(1, n + 1)


def real_validate(phi: Name, depth: int):
    """Finite-depth consistency of the real-name contract: decodability and
    pairwise |z_n/(n+1) - z_m/(m+1)| <= 1/(n+1) + 1/(m+1)."""
    return _validate(lambda n: real_decode(phi, n)[0], _line_dist, depth)


def _too_far(d: Fraction, n: int, m: int) -> bool:
    """d exceeds the pair bound 1/(n+1) + 1/(m+1) of precisions n and m."""
    return d > Fraction(1, n + 1) + Fraction(1, m + 1)


def _validate(decode: Callable[[int], object],
              dist: Callable[[object, object], Fraction], depth: int):
    """("rejected", n) for the first n <= depth that ``decode`` rejects,
    else ("rejected", (n, m)) for the first pair n < m too far apart under
    ``dist``, else ("consistent", None)."""
    vals = []
    for n in range(depth + 1):
        try:
            vals.append(decode(n))
        except MalformedName:
            return ("rejected", n)
    for n in range(depth + 1):
        for m in range(n + 1, depth + 1):
            if _too_far(dist(vals[n], vals[m]), n, m):
                return ("rejected", (n, m))
    return ("consistent", None)


# ---------------------------------------------------------------------------
# Cauchy representation

def _index_answer(approx: Callable[[int], int], a: str) -> str:
    """The index layout's answer to the numeral a = n: approx(n), the index
    of a 1/(n+1)-approximation; epsilon when a is not a numeral."""
    n = parse_nat(a)
    return "" if n is None else nat_str(approx(n))


def cauchy_name(M: MetricSpaceSpec, approx: Callable[[int], int],
                label: str = "") -> Name:
    """phi(n) = index of a 1/(n+1)-approximation, per the caller-certified
    ``approx``."""
    return Name(lambda a: _index_answer(approx, a),
                label=label or f"cauchy[{M.label}]")


def cauchy_index(phi: Name, n: int) -> int:
    i = parse_nat(phi(nat_str(n)))
    if i is None:
        raise MalformedName(f"query {n}: not an index")
    return i


def cauchy_validate(phi: Name, depth: int, M: MetricSpaceSpec):
    """Rejects on a certified violation of
    d(r_phi(i), r_phi(j)) <= 1/(i+1) + 1/(j+1) up to the given depth."""
    return _validate(lambda n: M.point(cauchy_index(phi, n)), M.exact_dist,
                     depth)


def cauchy_metric_program(M: MetricSpaceSpec) -> Callable[[Ctx], None]:
    """Integer encoding z with |d(x,y) - z/(n+1)| <= 1/(n+1) from a paired
    oracle <phi, psi>: the index pair is read at 4n+3 and the discrete
    metric evaluated at precision 2n+1.  The contract holds when the
    discrete metric is exact (all library spaces); an approximate one adds
    its approximation error."""
    def prog(ctx: Ctx) -> None:
        n = precision_input(ctx)
        ans = ctx.ask(nat_str(4 * n + 3))
        i, j = paired(parse_nats(2, ans))
        ctx.tick(len(ans) + len(ctx.input) + 4)
        v = M.dist(i, j, 2 * n + 1)
        ctx.emit(encode_int(round_ratio(v.numerator * (n + 1), v.denominator)))
    return prog


def cauchy_metric_time(kappa: int = 6) -> RunningTime:
    """T(l,n) = t(l(n+3), n+1) for the discrete-metric cost t(a,b) =
    kappa*(a+b) + kappa."""
    def bound(l: LengthFn, n: int) -> int:
        return kappa * (l(n + 3) + n + 1) + kappa
    return RunningTime(bound, label="t(l(n+3),n+1)")


# ---------------------------------------------------------------------------
# relativized Cauchy representation

def relativized_cauchy_name(M: MetricSpaceSpec, approx: Callable[[int], int],
                            label: str = "") -> Name:
    """Layout: phi("0" + n) is an approximation index; phi("1" + <k,m,n>) is
    an integer z with |d(r_k, r_m) - z/(n+1)| <= 1/(n+1); other queries
    answer epsilon."""
    def fn(a: str) -> str:
        if a == "":
            return ""
        if a[0] == "0":
            return _index_answer(approx, a[1:])
        return metric_answer(M, a[1:])

    return Name(fn, label=label or f"rel-cauchy[{M.label}]")


def metric_query(i: int, j: int, n: int) -> str:
    """The metric-branch query "1" + <i, j, n>."""
    return "1" + tuple_strs([nat_str(i), nat_str(j), nat_str(n)])


def metric_answer(M: MetricSpaceSpec, rest: str) -> str:
    """Answer to the metric query "1" + rest for rest = <i, j, n>: the
    integer round(d(r_i, r_j) * (n+1)); epsilon when rest is not a triple
    of numerals."""
    idx = parse_nats(3, rest)
    if idx is None:
        return ""
    i, j, n = idx
    d = M.exact_dist(M.point(i), M.point(j))
    return encode_int(round_ratio(d.numerator * (n + 1), d.denominator))


def relativized_metric_program() -> Callable[[Ctx], None]:
    """Metric from a paired relativized-Cauchy oracle.

    Queries approximation indices at precision 8n+7 and the metric branch at
    precision 4n+3, then rounds z'/4 to the output grid; the three error
    terms add to exactly 1/(n+1) at contract level.
    """
    def prog(ctx: Ctx) -> None:
        n = precision_input(ctx)
        i, j = paired(parse_nats(2, ctx.ask("0" + nat_str(8 * n + 7))))
        ans2 = ctx.ask(metric_query(i, j, 4 * n + 3))
        zp = decode_int(paired(proj_value(1, 2, ans2)))
        ctx.tick(len(ans2) + 4)
        ctx.emit(quarter_round(zp))
    return prog


def relativized_metric_time(kappa: int = 10) -> RunningTime:
    """Budget of shape max(l(n+4), n) up to the recorded constant."""
    def bound(l: LengthFn, n: int) -> int:
        return kappa * (max(l(n + 4), n) + 1) + kappa
    return RunningTime(bound, label="max{l(n+4),n}")


# ---------------------------------------------------------------------------
# products

def product_name_list(names) -> Name:
    """Iterated binary pairing <phi_1, <phi_2, ...>>."""
    names = list(names)
    if len(names) == 1:
        return names[0]
    return pair_names(names[0], product_name_list(names[1:]))


def box_product_length(d: int, C: int) -> LengthFn:
    """Length of the d-fold product of real names of points with supremum
    norm below 2^C: n -> 2d(n + C + 4)."""
    return lambda n: 2 * d * (n + C + 4)


# ---------------------------------------------------------------------------
# co-r.e. rejection

def co_re_reject(phi: Name, M: MetricSpaceSpec, budget: int):
    """Dovetail over index pairs (i, j) up to ``budget`` trials, rejecting
    with a witness on a certified violation of
    d(r_phi(i), r_phi(j)) <= 1/(i+1) + 1/(j+1).  Never rejects valid names.
    """
    trials = 0
    s = 0
    while trials < budget:
        for i in range(s + 1):
            j = s - i
            if trials >= budget:
                return ("undecided", None)
            trials += 1
            try:
                a = cauchy_index(phi, i)
                b = cauchy_index(phi, j)
            except MalformedName:
                return ("rejected", (i, j))
            if _too_far(M.exact_dist(M.point(a), M.point(b)), i, j):
                return ("rejected", (i, j))
        s += 1
    return ("undecided", None)


# ---------------------------------------------------------------------------
# CSV loading for finite dyadic spaces

_DIST_FORMULAS = {
    "abs": lambda p, q: abs(p[0] - q[0]),
    "sup": lambda p, q: max(abs(a - b) for a, b in zip(p, q)),
}


def space_from_csv(path: str, dist_id: str = "sup") -> MetricSpaceSpec:
    """Finite space from a CSV of dyadic coordinates plus a distance formula
    identifier ("abs" for the line, "sup" for the supremum metric)."""
    if dist_id not in _DIST_FORMULAS:
        raise InvalidConfig(f"unknown distance formula {dist_id!r}")
    formula = _DIST_FORMULAS[dist_id]
    points: list[tuple[Fraction, ...]] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            points.append(tuple(Fraction(cell) for cell in row))
    def pt(i: int):
        return points[i % len(points)]
    return MetricSpaceSpec(
        label=f"csv[{path}:{dist_id}]",
        point=pt,
        dist=lambda i, j, precision: formula(pt(i), pt(j)),
        exact_dist=formula,
    )
