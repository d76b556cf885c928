"""Exact piecewise carriers: step functions and piecewise-linear functions
with dyadic breakpoints, their norms, integrals, smoothing, and moduli.

Functions are treated as zero outside their breakpoint span, so norms and
distances are taken over the whole line.  Everything is exact rational
arithmetic; p-th-power integrals require integer p.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .strings import InvalidConfig


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class StepFn:
    """Right-open step function: value levels[i] on [cuts[i], cuts[i+1])."""

    cuts: tuple[Fraction, ...]
    levels: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.cuts) != len(self.levels) + 1:
            raise ValueError("need one more cut than levels")
        if any(a >= b for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValueError("cuts must be strictly increasing")

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

    def sup_norm(self) -> Fraction:
        return max((abs(l) for l in self.levels), default=Fraction(0))

    def p_power_norm(self, p: int) -> Fraction:
        """Integral of |f|^p over the line (integer p)."""
        return sum((abs(l) ** p * (b - a) for l, a, b in
                    zip(self.levels, self.cuts, self.cuts[1:])), Fraction(0))

    def scaled(self, c) -> "StepFn":
        c = _frac(c)
        return StepFn(self.cuts, tuple(c * l for l in self.levels))

    def jump_sizes(self) -> list[Fraction]:
        vals = [Fraction(0), *self.levels, Fraction(0)]
        return [abs(b - a) for a, b in zip(vals, vals[1:])]


def chi(a, b) -> StepFn:
    """Characteristic function of [a, b)."""
    return StepFn.build([a, b], [1])


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function interpolating values at
    breakpoints, zero outside the span."""

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("need matching breakpoints and values (>= 2)")
        if any(a >= b for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")

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

    def add(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        xs = sorted(set(self.xs) | set(other.xs))
        return PiecewiseLinear.build(xs, [self(x) + other(x) for x in xs])


def sup_dist_pl(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """Exact supremum distance; attained on the union of breakpoint grids."""
    xs = sorted(set(f.xs) | set(g.xs))
    return max(abs(f(x) - g(x)) for x in xs)


# ---------------------------------------------------------------------------
# exact |linear|^p integration and mixed distances

def _abs_linear_pow_integral(v0: Fraction, v1: Fraction, width: Fraction,
                             p: int) -> Fraction:
    """Integral of |v0 + (v1 - v0) t / width|^p over t in [0, width]."""
    if width == 0:
        return Fraction(0)
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

def lp_modulus(f: StepFn, p: int, up_to: int) -> list[int]:
    """Exact least L^p-modulus of a step function, tabulated for n <= up_to:
    mu(n) = least m with sup over 0 < |h| <= 2^-m of the shift distance at
    most 2^-n.  The shift distance in t is piecewise linear with vertices at
    breakpoint gaps, so the supremum is evaluated at finitely many points."""
    gaps = sorted({abs(a - b) for a in f.cuts for b in f.cuts if a != b})

    def worst(h: Fraction) -> Fraction:
        cands = [g for g in gaps if g <= h] + [h]
        return max(shifted_p_power_dist(f, t, p) for t in cands)

    table = []
    m = 0
    worst_m = worst(Fraction(1))
    for n in range(up_to + 1):
        target = Fraction(1, 1 << (n * p))
        while worst_m > target:
            m += 1
            worst_m = worst(Fraction(1, 1 << m))
        table.append(m)
    return table


def continuity_modulus(f: PiecewiseLinear, up_to: int) -> list[int]:
    """Exact least modulus of continuity of a piecewise-linear function,
    tabulated for n <= up_to."""
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

    table = []
    m = 0
    osc_m = osc(Fraction(1))
    for n in range(up_to + 1):
        target = Fraction(1, 1 << n)
        while osc_m > target:
            m += 1
            osc_m = osc(Fraction(1, 1 << m))
        table.append(m)
    return table


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
    g = smooth(f, mu(n) if callable(mu) else mu[n])
    lhs = p_power_dist(f, g, p)
    rhs = Fraction(1, 1 << (n * p))
    return lhs < rhs, lhs, rhs


def lp_modulus_shift_check(f: StepFn, mu, m: int, up_to: int) -> bool:
    """Check on the breakpoint grid that n -> mu(n + m) is a modulus of
    continuity of A_m(f)."""
    g = smooth(f, m)
    mu_at = (lambda k: mu(k)) if callable(mu) else (lambda k: mu[k])
    table = continuity_modulus(g, up_to)
    for n in range(up_to + 1):
        if mu_at(n + m) < table[n]:
            return False
    return True


# ---------------------------------------------------------------------------
# CSV interchange

def pl_to_csv(f: PiecewiseLinear, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for x, y in zip(f.xs, f.ys):
            w.writerow([str(x), str(y)])


def pl_from_csv(path: str) -> PiecewiseLinear:
    xs, ys = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            xs.append(Fraction(row[0]))
            ys.append(Fraction(row[1]))
    return PiecewiseLinear.build(xs, ys)


def step_to_csv(f: StepFn, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for a, b, l in zip(f.cuts, f.cuts[1:], f.levels):
            w.writerow([str(a), str(b), str(l)])


def step_from_csv(path: str) -> StepFn:
    cuts, levels = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            if not cuts:
                cuts.append(Fraction(row[0]))
            levels.append(Fraction(row[2]))
            cuts.append(Fraction(row[1]))
    return StepFn.build(cuts, levels)
