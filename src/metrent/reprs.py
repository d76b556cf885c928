"""Representations of metric spaces: standard reals, Cauchy, relativized
Cauchy, and the co-r.e. rejection procedure.

Decoders accept any value satisfying the contract; generators are
deterministic (least admissible index, round-to-nearest with ties away from
zero).  All "is a name" checks are finite-depth semi-decisions.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable

from .baire import LengthFn, Name
from .machine import Ctx, RunningTime, paired, precision_input, quarter_round
from .strings import (MalformedName, _dyadic, _frac, _Record, decode_int,
                      encode_int, nat_str, parse_nat, parse_nats, proj_value,
                      round_ratio, tuple_strs)


# ---------------------------------------------------------------------------
# metric space descriptions

class MetricSpaceSpec(_Record):
    """A separable metric space given by a dense sequence and a discrete
    metric evaluator.

    ``dist(i, j)`` returns d(r_i, r_j) exactly, as a pair of integers
    (p, q) with q > 0 and d(r_i, r_j) = p/q, not necessarily in lowest
    terms.  Metric queries and ``cauchy_metric_program`` put p/q on their
    output grid without building a Fraction.
    ``exact_dist`` compares arbitrary points exactly: the validators, the
    co-r.e. rejection and the dialog check use it.  ``approx_index(x, n)``
    is the index of a 1/(n+1)-approximation of x: compact names read it.
    Every space must supply both.
    """

    def __init__(self, label: str, point: Callable[[int], object],
                 dist: Callable[[int, int], tuple[int, int]],
                 exact_dist: Callable[[object, object], Fraction],
                 approx_index: Callable[[object, int], int]):
        self.label = label
        self.point = point
        self.dist = dist
        self.exact_dist = exact_dist
        self.approx_index = approx_index


def _line_dist(a, b) -> Fraction:
    """|a - b| on the real line."""
    return abs(_frac(a) - _frac(b))


def _zigzag(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1


def _cantor(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def _dyadic_line_node(i: int) -> tuple[int, int]:
    """(num, scale) with point i = num / 2^scale."""
    w = (isqrt(8 * i + 1) - 1) // 2
    t = w * (w + 1) // 2
    scale = i - t
    a = w - scale
    num = a // 2 if a % 2 == 0 else -(a + 1) // 2
    return num, scale


def dyadic_line_point(i: int) -> Fraction:
    num, scale = _dyadic_line_node(i)
    return Fraction(num, 1 << scale)


def _dyadic_gap(a: int, s: int, b: int, t: int) -> tuple[int, int]:
    """|a/2^s - b/2^t| as (p, 2^u) on the finer grid u = max(s, t)."""
    u = max(s, t)
    return abs((a << (u - s)) - (b << (u - t))), 1 << u


def dyadic_line_index(x: Fraction) -> int:
    num, scale = _dyadic(x)
    return _cantor(_zigzag(num), scale)


def dyadic_line_space() -> MetricSpaceSpec:
    """The real line with the diagonal enumeration of all dyadics."""
    def dist(i: int, j: int) -> tuple[int, int]:
        return _dyadic_gap(*_dyadic_line_node(i), *_dyadic_line_node(j))

    def approx(x, n: int) -> int:
        x = _frac(x)
        top = dyadic_line_index(x)
        tol = Fraction(1, n + 1)
        for i in range(top):
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

def real_name(x: Fraction) -> Name:
    """Name with phi(n) an integer encoding and |x - phi(n)/(n+1)| <= 1/(n+1);
    the generator picks round(x*(n+1)) with ties away from zero."""
    xf = _frac(x)
    p, q = xf.numerator, xf.denominator

    def fn(a: str) -> str:
        n = parse_nat(a)
        if n is None:
            return ""
        return _grid_answer(p, q, n)

    return Name(fn, label=f"real({xf})")


def _grid_answer(p: int, q: int, n: int) -> str:
    """The encoded integer round(p/q * (n+1)), ties away from zero, for
    q > 0: p/q put on the output grid of precision n."""
    return encode_int(round_ratio(p * (n + 1), q))


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


def cauchy_name(M: MetricSpaceSpec, approx: Callable[[int], int]) -> Name:
    """phi(n) = index of a 1/(n+1)-approximation, per the caller-certified
    ``approx``."""
    return Name(lambda a: _index_answer(approx, a), label=f"cauchy[{M.label}]")


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
    oracle <phi, psi>: the index pair is read at 4n+3 and the exact discrete
    metric put on the grid of precision n."""
    def prog(ctx: Ctx) -> None:
        n = precision_input(ctx)
        ans = ctx.ask(nat_str(4 * n + 3))
        i, j = paired(parse_nats(2, ans))
        ctx.tick(len(ans) + len(ctx.input) + 4)
        ctx.emit(_grid_answer(*M.dist(i, j), n))
    return prog


def cauchy_metric_time() -> RunningTime:
    """T(l,n) = t(l(n+3), n+1) for the discrete-metric cost t(a,b) =
    6(a+b) + 6."""
    def bound(l: LengthFn, n: int) -> int:
        return 6 * (l(n + 3) + n + 1) + 6
    return RunningTime(bound)


# ---------------------------------------------------------------------------
# relativized Cauchy representation

def _relativized_layout(approx: Callable[[int], int],
                        metric: Callable[[str], str], label: str) -> Name:
    """The relativized layout: phi("0" + n) is the index approx(n) of a
    1/(n+1)-approximation, the empty query answers epsilon, and every other
    query goes to ``metric``."""
    def fn(a: str) -> str:
        if a[:1] == "0":
            return _index_answer(approx, a[1:])
        return metric(a) if a else ""

    return Name(fn, label=label)


def relativized_cauchy_name(M: MetricSpaceSpec,
                            approx: Callable[[int], int]) -> Name:
    """Layout: phi("0" + n) is an approximation index; phi("1" + <k,m,n>) is
    an integer z with |d(r_k, r_m) - z/(n+1)| <= 1/(n+1); other queries
    answer epsilon."""
    return _relativized_layout(approx, lambda a: metric_answer(M, a[1:]),
                               f"rel-cauchy[{M.label}]")


def metric_query(i: int, j: int, n: int) -> str:
    """The metric-branch query "1" + <i, j, n>."""
    return "1" + tuple_strs([nat_str(i), nat_str(j), nat_str(n)])


def metric_answer(M: MetricSpaceSpec, rest: str) -> str:
    """Answer to the metric query "1" + rest for rest = <i, j, n>: the
    exact discrete metric dist(i, j) put on the grid of precision n, within
    1/(n+1) of d(r_i, r_j); epsilon when rest is not a triple of numerals."""
    idx = parse_nats(3, rest)
    if idx is None:
        return ""
    i, j, n = idx
    return _grid_answer(*M.dist(i, j), n)


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


def relativized_metric_time() -> RunningTime:
    """Budget of shape max(l(n+4), n) up to the recorded constant 10."""
    def bound(l: LengthFn, n: int) -> int:
        return 10 * (max(l(n + 4), n) + 1) + 10
    return RunningTime(bound)


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
