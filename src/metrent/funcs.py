"""Exact piecewise carriers: step functions and piecewise-linear functions
with dyadic breakpoints, their norms, integrals, smoothing, and moduli.

Functions are treated as zero outside their breakpoint span, so norms and
distances are taken over the whole line.  Everything is exact rational
arithmetic; p-th-power integrals require integer p.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable

from .strings import InvalidConfig, _frac, _FrozenRecord, ceil_lb_ratio


class StepFn(_FrozenRecord):
    """Right-open step function: value levels[i] on [cuts[i], cuts[i+1])."""

    def __init__(self, cuts: tuple[Fraction, ...],
                 levels: tuple[Fraction, ...]):
        if len(cuts) != len(levels) + 1:
            raise InvalidConfig("need one more cut than levels")
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise InvalidConfig("cuts must be strictly increasing")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "levels", levels)

    @staticmethod
    def build(cuts: Iterable, levels: Iterable) -> "StepFn":
        return StepFn(tuple(map(_frac, cuts)), tuple(map(_frac, levels)))

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        if x < self.cuts[0] or x >= self.cuts[-1]:
            return Fraction(0)
        return self.levels[bisect_right(self.cuts, x) - 1]

    def integral(self, a, b) -> Fraction:
        """Exact integral over [a, b]."""
        a, b = _frac(a), _frac(b)
        if b < a:
            return -self.integral(b, a)
        total = Fraction(0)
        for i, lev in enumerate(self.levels):
            lo = max(a, self.cuts[i])
            hi = min(b, self.cuts[i + 1])
            if hi > lo:
                total += lev * (hi - lo)
        return total

    def jump_sizes(self) -> list[Fraction]:
        vals = [Fraction(0), *self.levels, Fraction(0)]
        return [abs(b - a) for a, b in zip(vals, vals[1:])]


def chi(a, b) -> StepFn:
    """Characteristic function of [a, b)."""
    return StepFn.build([a, b], [1])


class PiecewiseLinear(_FrozenRecord):
    """Continuous piecewise-linear function interpolating values at
    breakpoints, zero outside the span."""

    def __init__(self, xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]):
        if len(xs) != len(ys) or len(xs) < 2:
            raise InvalidConfig("need matching breakpoints and values (>= 2)")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InvalidConfig("breakpoints must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @staticmethod
    def build(xs: Iterable, ys: Iterable) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple(map(_frac, xs)), tuple(map(_frac, ys)))

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        if x < self.xs[0] or x > self.xs[-1]:
            return Fraction(0)
        # the first segment whose right end is >= x
        i = max(bisect_left(self.xs, x) - 1, 0)
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def sup_norm(self) -> Fraction:
        return max(abs(y) for y in self.ys)

    def scaled(self, c) -> "PiecewiseLinear":
        c = _frac(c)
        return PiecewiseLinear(self.xs, tuple(c * y for y in self.ys))


def sup_dist_pl(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact supremum distance; attained on the union of breakpoint grids."""
    xs = sorted(set(f.xs) | set(g.xs))
    return max(abs(f(x) - g(x)) for x in xs)


# ---------------------------------------------------------------------------
# exact |linear|^p integration and mixed distances

def _abs_linear_pow_integral(v0: Fraction, v1: Fraction, width: Fraction,
                             p: int) -> Fraction:
    """Integral of |v0 + (v1 - v0) t / width|^p over t in [0, width], for
    width > 0."""
    if v0 == v1:
        return abs(v0) ** p * width
    if v0 * v1 < 0:
        root = width * v0 / (v0 - v1)
        return (_abs_linear_pow_integral(v0, Fraction(0), root, p)
                + _abs_linear_pow_integral(Fraction(0), v1, width - root, p))
    # single sign: antiderivative of |linear|^p
    hi, lo = abs(v1), abs(v0)
    slope = (v1 - v0) / width
    return abs((hi ** (p + 1) - lo ** (p + 1)) / (slope * (p + 1)))


def _pieces(f) -> list[Fraction]:
    if isinstance(f, StepFn):
        return list(f.cuts)
    return list(f.xs)


def _eval_left(f, x: Fraction, lo: Fraction) -> Fraction:
    """Limit from the left at x within the piece starting at lo."""
    if isinstance(f, StepFn):
        mid = (lo + x) / 2
        return f(mid)
    return f(x)


def p_power_dist(f, g, p: int) -> Fraction:
    """Integral of |f - g|^p over the line, exact, for f, g each a StepFn or
    PiecewiseLinear (integer p)."""
    cuts = sorted(set(_pieces(f)) | set(_pieces(g)))
    total = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        # f(a) is the value just right of a: step functions are right-open
        v0 = f(a) - g(a)
        v1 = _eval_left(f, b, a) - _eval_left(g, b, a)
        total += _abs_linear_pow_integral(v0, v1, b - a, p)
    return total


def shifted_p_power_dist(f: StepFn, h: Fraction, p: int) -> Fraction:
    """Integral of |f(x + h) - f(x)|^p, exact."""
    shifted = StepFn(tuple(c - h for c in f.cuts), f.levels)
    return p_power_dist(shifted, f, p)


# ---------------------------------------------------------------------------
# moduli

def _least_moduli(up_to: int, scale: int, rate: Fraction, width: Fraction,
                  spread: Callable[[Fraction], Fraction]) -> list[int]:
    """Row n is the least m >= 0 with spread(2^-m) <= 2^-(n*scale), for a
    non-decreasing spread with spread(h) = h * rate whenever h <= width.
    Let m_w be the least m with 2^-m <= width.  Every row whose closed form
    n*scale + ceil(log2 rate) exceeds m_w is that closed form; the rows
    below it are found by stepping m, which stops by m_w.  A zero rate
    makes every row 0."""
    if rate == 0:
        return [0] * (up_to + 1)
    tail = ceil_lb_ratio(rate)
    m_w = max(0, ceil_lb_ratio(1 / width))
    looped = min(up_to + 1, max(0, (m_w - tail) // scale + 1))
    table = []
    m = 0
    spread_m = spread(Fraction(1)) if looped else None
    for n in range(looped):
        target = Fraction(1, 1 << (n * scale))
        while spread_m > target:
            m += 1
            spread_m = spread(Fraction(1, 1 << m))
        table.append(m)
    return table + [n * scale + tail for n in range(looped, up_to + 1)]


def lp_modulus(f: StepFn, p: int, up_to: int) -> list[int]:
    """Exact least L^p-modulus of a step function, tabulated for n <= up_to:
    mu(n) = least m with sup over 0 < |h| <= 2^-m of the shift distance at
    most 2^-n.  The shift distance in t is piecewise linear with vertices at
    breakpoint gaps, so the supremum is evaluated at finitely many points.
    Below the smallest gap g the shifts slide each jump over its own
    interval, so the p-th power distance is exactly t * sum |jump|^p and
    the search is needed only for the first rows (see _least_moduli)."""
    gaps = sorted({abs(a - b) for a in f.cuts for b in f.cuts if a != b})

    @cache
    def shift_dist(t: Fraction) -> Fraction:
        return shifted_p_power_dist(f, t, p)

    def worst(h: Fraction) -> Fraction:
        return max(shift_dist(t) for t in [g for g in gaps if g <= h] + [h])

    jumps = sum(j ** p for j in f.jump_sizes())
    # a single cut has no gaps, and its zero jump sum makes every row 0
    return _least_moduli(up_to, p, jumps, min(gaps, default=Fraction(1)), worst)


def continuity_modulus(f: PiecewiseLinear, up_to: int) -> list[int]:
    """Exact least modulus of continuity of a piecewise-linear function,
    tabulated for n <= up_to.  The oscillation is taken over the breakpoint
    span [xs[0], xs[-1]] only: the carrier is zero outside it, so a nonzero
    end value is a jump that this modulus does not count.  Within the
    narrowest segment width the oscillation is h times the largest |slope|,
    so the search is needed only for the first rows (see _least_moduli)."""
    def osc(h: Fraction) -> Fraction:
        cands = set(f.xs)
        for x in f.xs:
            cands.add(x + h)
            cands.add(x - h)
        pts = sorted(c for c in cands if f.xs[0] <= c <= f.xs[-1])
        vals = [f(u) for u in pts]
        best = Fraction(0)
        for i, u in enumerate(pts):
            fu = vals[i]
            for j in range(i, len(pts)):
                if pts[j] - u > h:
                    break
                best = max(best, abs(fu - vals[j]))
        return best

    widths = [x1 - x0 for x0, x1 in zip(f.xs, f.xs[1:])]
    slope = max(abs(y1 - y0) / w for y0, y1, w in zip(f.ys, f.ys[1:], widths))
    return _least_moduli(up_to, 1, slope, min(widths), osc)


def modulus_fn(table: list[int]) -> Callable[[int], int]:
    """Extend a tabulated modulus or length table to a total non-decreasing
    function; past the table it grows by one per step, which stays a valid
    modulus.  Raises InvalidConfig on an empty or decreasing table or on a
    negative entry."""
    table = list(table)
    if not table:
        raise InvalidConfig("empty table")
    if table[0] < 0:
        raise InvalidConfig(f"negative table entry {table[0]}")
    if any(b < a for a, b in zip(table, table[1:])):
        raise InvalidConfig(f"table {table} is not non-decreasing")

    def mu(n: int) -> int:
        if n < len(table):
            return table[n]
        return table[-1] + (n - len(table) + 1)
    return mu


# ---------------------------------------------------------------------------
# smoothing operators

def smooth(f: StepFn, m: int) -> PiecewiseLinear:
    """Sliding average A_m(f)(x) = 2^m * integral of f over
    [x - 2^-(m+1), x + 2^-(m+1)]; piecewise linear with breakpoints at the
    cuts of f shifted by the half-window."""
    w = Fraction(1, 1 << (m + 1))
    xs = sorted({c + s for c in f.cuts for s in (w, -w)})
    ys = [(1 << m) * f.integral(x - w, x + w) for x in xs]
    return PiecewiseLinear(tuple(xs), tuple(ys))


def approx_check(f: StepFn, mu, n: int, p: int) -> tuple[bool, Fraction, Fraction]:
    """Strict inequality ||f - A_mu(n) f||_p < 2^-n, compared via exact
    p-th powers.  Returns (ok, lhs^p, rhs^p)."""
    g = smooth(f, mu(n))
    lhs = p_power_dist(f, g, p)
    rhs = Fraction(1, 1 << (n * p))
    return lhs < rhs, lhs, rhs


def lp_modulus_shift_check(f: StepFn, mu, m: int, up_to: int) -> bool:
    """Check on the breakpoint grid that n -> mu(n + m) is a modulus of
    continuity of A_m(f)."""
    g = smooth(f, m)
    table = continuity_modulus(g, up_to)
    return all(mu(n + m) >= table[n] for n in range(up_to + 1))
