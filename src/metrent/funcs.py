"""Exact piecewise carriers: step functions and piecewise-linear functions
with dyadic breakpoints, their norms, integrals, smoothing, and moduli.

Functions are treated as zero outside their breakpoint span, so norms and
distances are taken over the whole line.  A carrier holds integers: its
breakpoints are numerators over one least common denominator (2^s for a
dyadic carrier), and its values numerators over another, so equal functions
hold equal integers and compare and hash equal.  Evaluation, integrals,
distances, smoothing and the moduli work on these integers, and sweep two
carriers over the merged integer grid of their breakpoints.  Fractions
remain at the boundary: the ``xs``/``ys`` and ``cuts``/``levels`` fields,
each result, and the pieces of a p-th-power distance on which the
difference changes sign.  p-th-power integrals require integer p.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Callable, Iterable

from .strings import InvalidConfig, _frac, _FrozenRecord, ceil_lb_ratio


def _over(vals) -> tuple[tuple[int, ...], int]:
    """(numerators, d): the rationals vals over their least common
    denominator d."""
    d = math.lcm(*(v.denominator for v in vals))
    return tuple(v.numerator * (d // v.denominator) for v in vals), d


def _least(nums, d: int) -> tuple[tuple[int, ...], int]:
    """nums / d over the least denominator."""
    g = math.gcd(d, *nums)
    return tuple(a // g for a in nums) if g > 1 else tuple(nums), d // g


def _fracs(nums, d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, d) for a in nums)


class _Carrier(_FrozenRecord):
    """Breakpoints _x[i] / _d and values _y[i] / _yd, each over its least
    denominator; records compare and hash by these integers."""

    def _values(self) -> tuple:
        return self._x, self._d, self._y, self._yd

    def _fill(self, x, d: int, y, yd: int) -> None:
        for name, v in (("_x", x), ("_d", d), ("_y", y), ("_yd", yd)):
            object.__setattr__(self, name, v)

    @classmethod
    def _of(cls, x, d: int, y, yd: int):
        """The carrier with breakpoints x / d and values y / yd, for integer
        tables the caller has checked."""
        f = object.__new__(cls)
        f._fill(*_least(x, d), *_least(y, yd))
        return f


class StepFn(_Carrier):
    """Right-open step function: value levels[i] on [cuts[i], cuts[i+1]).
    Cuts and levels are rationals, each read exactly as a Fraction (so a
    float or Decimal is taken at its exact value)."""

    def __init__(self, cuts: tuple, levels: tuple):
        if len(cuts) != len(levels) + 1:
            raise InvalidConfig("need one more cut than levels")
        c, d = _over(tuple(map(_frac, cuts)))
        if any(a >= b for a, b in zip(c, c[1:])):
            raise InvalidConfig("cuts must be strictly increasing")
        self._fill(c, d, *_over(tuple(map(_frac, levels))))

    cuts = property(lambda self: _fracs(self._x, self._d))
    levels = property(lambda self: _fracs(self._y, self._yd))

    @staticmethod
    def build(cuts: Iterable, levels: Iterable) -> "StepFn":
        return StepFn(tuple(cuts), tuple(levels))

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        t = x.numerator * self._d // x.denominator      # floor(x d)
        c = self._x
        if t < c[0] or t >= c[-1]:
            return Fraction(0)
        return Fraction(self._y[bisect_right(c, t) - 1], self._yd)

    def _at(self, k: int, pts) -> tuple[list[int], int]:
        """(V, den): the value at each of the sorted points t / (k d) is
        V[i] / den."""
        c = self._x if k == 1 else [a * k for a in self._x]
        lev, n = self._y, len(self._y)
        out, i = [], 0
        for t in pts:
            while i < n and c[i + 1] <= t:
                i += 1
            out.append(lev[i] if i < n and c[i] <= t else 0)
        return out, self._yd

    def _sides(self, k: int, pts):
        """(V, L, R, den): V and den as _at gives them, and the limits from
        inside each piece [pts[i], pts[i+1]] at its left end, L[i], and at
        its right end, R[i], over den too."""
        V, den = self._at(k, pts)
        return V, V[:-1], V[:-1], den

    def _prims(self, k: int, pts) -> list[int]:
        """The integral up to each of the sorted points t / (k d), as
        numerators over k d _yd."""
        c = self._x if k == 1 else [a * k for a in self._x]
        lev, n = self._y, len(self._y)
        out, i, acc = [], 0, 0
        for t in pts:
            while i < n and c[i + 1] <= t:
                acc += lev[i] * (c[i + 1] - c[i])
                i += 1
            out.append(acc + lev[i] * (t - c[i]) if i < n and c[i] < t else acc)
        return out

    def integral(self, a, b) -> Fraction:
        """Exact integral over [a, b]."""
        a, b = _frac(a), _frac(b)
        if b < a:
            return -self.integral(b, a)
        k, d = a.denominator * b.denominator, self._d
        lo, hi = self._prims(k, (a.numerator * b.denominator * d,
                                 b.numerator * a.denominator * d))
        return Fraction(hi - lo, k * d * self._yd)

    def jump_sizes(self) -> list[Fraction]:
        vals = (0, *self._y, 0)
        return [Fraction(abs(b - a), self._yd) for a, b in zip(vals, vals[1:])]


def chi(a, b) -> StepFn:
    """Characteristic function of [a, b)."""
    return StepFn.build([a, b], [1])


class PiecewiseLinear(_Carrier):
    """Piecewise-linear function interpolating values at breakpoints, zero
    outside the span: continuous on the span, and jumping to zero at a
    span end where its value is not zero.  Breakpoints and values are read
    exactly as Fractions, as for StepFn."""

    def __init__(self, xs: tuple, ys: tuple):
        if len(xs) != len(ys) or len(xs) < 2:
            raise InvalidConfig("need matching breakpoints and values (>= 2)")
        x, d = _over(tuple(map(_frac, xs)))
        if any(a >= b for a, b in zip(x, x[1:])):
            raise InvalidConfig("breakpoints must be strictly increasing")
        self._fill(x, d, *_over(tuple(map(_frac, ys))))

    xs = property(lambda self: _fracs(self._x, self._d))
    ys = property(lambda self: _fracs(self._y, self._yd))

    @staticmethod
    def build(xs: Iterable, ys: Iterable) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple(xs), tuple(ys))

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        q = x.denominator
        t = x.numerator * self._d                       # x d = t / q
        xs, ys = self._x, self._y
        if t < xs[0] * q or t > xs[-1] * q:
            return Fraction(0)
        # the first segment whose right end is >= x
        i = max(bisect_left(xs, -(-t // q)) - 1, 0)
        x0, x1 = xs[i], xs[i + 1]
        return Fraction(ys[i] * (x1 * q - t) + ys[i + 1] * (t - x0 * q),
                        (x1 - x0) * q * self._yd)

    def _at(self, k: int, pts) -> tuple[list[int], int]:
        """(V, den): the value at each of the sorted points t / (k d) is
        V[i] / den, where den is _yd times the lcm of the segment widths, so
        that an interpolated value has an integer numerator too."""
        x = self._x if k == 1 else [a * k for a in self._x]
        y = self._y
        widths = [b - a for a, b in zip(x, x[1:])]
        lcm = math.lcm(*widths)
        mult = [lcm // w for w in widths]
        out, j, lo, hi = [], 1, x[0], x[-1]
        for t in pts:
            if t < lo or t > hi:
                out.append(0)
                continue
            while x[j] < t:
                j += 1
            out.append((y[j - 1] * (x[j] - t) + y[j] * (t - x[j - 1])) * mult[j - 1])
        return out, self._yd * lcm

    def _sides(self, k: int, pts):
        """As StepFn._sides, for a pts that holds every breakpoint: a piece
        that ends at the span's start or starts at its end lies outside the
        span, where the carrier is zero."""
        V, den = self._at(k, pts)
        lo, hi = self._x[0] * k, self._x[-1] * k
        L = [v if t != hi else 0 for t, v in zip(pts[:-1], V)]
        R = [v if t != lo else 0 for t, v in zip(pts[1:], V[1:])]
        return V, L, R, den

    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self._y)), self._yd)

    def scaled(self, c) -> "PiecewiseLinear":
        c = _frac(c)
        return PiecewiseLinear._of(self._x, self._d,
                                   tuple(c.numerator * y for y in self._y),
                                   c.denominator * self._yd)


def _merged(f, g):
    """(X, pts, sides of f, sides of g): the sorted union pts of both
    breakpoint grids as integers over their common denominator X, and f and
    g there as their _sides give them."""
    X = math.lcm(f._d, g._d)
    kf, kg = X // f._d, X // g._d
    pts = sorted({a * kf for a in f._x}.union([b * kg for b in g._x]))
    return X, pts, f._sides(kf, pts), g._sides(kg, pts)


def sup_dist_pl(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact supremum distance over the line.  f - g is linear on each
    piece of the merged breakpoint grid, so the supremum is the largest
    |f - g| at a grid point or as a limit there from inside a piece; the
    limits count where a carrier jumps to zero at a span end."""
    _, _, (F, FL, FR, df), (G, GL, GR, dg) = _merged(f, g)
    pairs = chain(zip(F, G), zip(FL, GL), zip(FR, GR))
    return Fraction(max(abs(a * dg - b * df) for a, b in pairs), df * dg)


# ---------------------------------------------------------------------------
# exact |linear|^p integration and mixed distances

def p_power_dist(f, g, p: int) -> Fraction:
    """Integral of |f - g|^p over the line, exact, for f, g each a StepFn or
    PiecewiseLinear (integer p).

    On each piece [a, b] of the merged grid f - g runs linearly from u, its
    limit at a from inside the piece, to v, its limit at b (a step
    function's level on the piece; zero for a piecewise-linear carrier on a
    piece outside its span).  With U = |u| and V = |v| the integral of
    |linear|^p over the piece is (b - a) / (p + 1) times
    (U^(p+1) - V^(p+1)) / (U - V), an integer polynomial, when u and v do
    not differ in sign, and (U^(p+1) + V^(p+1)) / (U + V) when the
    difference changes sign at the root inside the piece."""
    X, pts, (_, FL, FR, df), (_, GL, GR, dg) = _merged(f, g)
    left = [a * dg - b * df for a, b in zip(FL, GL)]
    right = [a * dg - b * df for a, b in zip(FR, GR)]
    whole, part = 0, Fraction(0)
    for a, b, u, v in zip(pts, pts[1:], left, right):
        U, V = abs(u), abs(v)
        if u == v:
            whole += (b - a) * (p + 1) * U ** p
        elif u * v >= 0:
            whole += (b - a) * ((U ** (p + 1) - V ** (p + 1)) // (U - V))
        else:
            part += Fraction((b - a) * (U ** (p + 1) + V ** (p + 1)), U + V)
    return (part + whole) / (X * (p + 1) * (df * dg) ** p)


def shifted_p_power_dist(f: StepFn, h: Fraction, p: int) -> Fraction:
    """Integral of |f(x + h) - f(x)|^p, exact."""
    h = _frac(h)
    X = math.lcm(f._d, h.denominator)
    k, t = X // f._d, h.numerator * (X // h.denominator)
    shifted = StepFn._of(tuple(c * k - t for c in f._x), X, f._y, f._yd)
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
    c = f._x
    gaps = [Fraction(g, f._d) for g in sorted({b - a for a in c for b in c if a < b})]

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
    x, d, y = f._x, f._d, f._y

    def osc(h: Fraction) -> Fraction:
        X = math.lcm(d, h.denominator)
        k, H = X // d, h.numerator * (X // h.denominator)
        lo, hi = x[0] * k, x[-1] * k
        pts = sorted({t for a in x for t in (a * k - H, a * k, a * k + H)
                      if lo <= t <= hi})
        vals, den = f._at(k, pts)
        # the points within h of pts[i] are pairwise within h
        best = 0
        for i, u in enumerate(pts):
            near = vals[i:bisect_right(pts, u + H, i)]
            best = max(best, max(near) - min(near))
        return Fraction(best, den)

    widths = [b - a for a, b in zip(x, x[1:])]
    slope = max(Fraction(abs(y1 - y0) * d, w * f._yd)
                for y0, y1, w in zip(y, y[1:], widths))
    return _least_moduli(up_to, 1, slope, Fraction(min(widths), d), osc)


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
    X = math.lcm(f._d, 1 << (m + 1))
    k, w = X // f._d, X >> (m + 1)
    xs = sorted({c * k + s for c in f._x for s in (w, -w)})
    lo, hi = f._prims(k, [x - w for x in xs]), f._prims(k, [x + w for x in xs])
    # 2^m times the window integral (hi - lo) / (X _yd)
    return PiecewiseLinear._of(tuple(xs), X, tuple(b - a for a, b in zip(lo, hi)),
                               (X >> m) * f._yd)


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
