"""Basis families on the unit interval: the hat-function system for
continuous functions and the p-normalized Haar system for integrable ones.

Haar scale factors 2^((g-1)/p) are kept symbolic: single values are a
rational coefficient times a rational power of two, and sums live in the
ring spanned by the distinct fractional exponents.  Coefficient extraction
runs entirely in "step form" (coefficient times scale), which is rational
for rational step functions; numeric enclosures appear only at
representation boundaries.

Synthesis is linear in the number of coefficients.  Hat partial sums
follow the node recurrence V(q_j) = lam_j + (V(q_j - w_j) + V(q_j + w_j))/2
on integer numerators over one denominator (``_hat_nodes``), so the sup
norm is one ``max`` over integers; Haar combinations are built coarse to
fine as a pyramid, where each element splits its support cell into two
halves that inherit the parent value plus or minus the element's value
(``_haar_pyramid``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .compact import _q_node, q_seq
from .entropy import ContractViolation
from .funcs import PiecewiseLinear, StepFn, sup_dist_pl
from .strings import ceil_lb, round_half_away, round_ratio


# ---------------------------------------------------------------------------
# hat functions (peaks at the node enumeration)

def fs_halfwidth(i: int) -> Fraction:
    return Fraction(1, 1 << ceil_lb(i))


def fs_eval(i: int, x) -> Fraction:
    """max(1 - 2^ceil_lb(i) |x - q_i|, 0), with ceil_lb(0) = 0."""
    x = Fraction(x)
    v = 1 - abs(x - q_seq(i)) / fs_halfwidth(i)
    return v if v > 0 else Fraction(0)


def fs_elem(i: int) -> PiecewiseLinear:
    q, w = q_seq(i), fs_halfwidth(i)
    xs = sorted({Fraction(0), Fraction(1), max(q - w, 0), q, min(q + w, 1)})
    return PiecewiseLinear(tuple(xs), tuple(fs_eval(i, x) for x in xs))


def fs_coeff(f: Callable, j: int) -> Fraction:
    """The j-th hat-expansion coefficient from exact dyadic point values:
    lam_0 = f(0), lam_1 = f(1), and for j >= 2
    lam_j = f(q_j) - (f(q_j - w) + f(q_j + w)) / 2 with w the halfwidth."""
    if j == 0:
        return Fraction(f(Fraction(0)))
    if j == 1:
        return Fraction(f(Fraction(1)))
    q, w = q_seq(j), fs_halfwidth(j)
    return Fraction(f(q)) - (Fraction(f(q - w)) + Fraction(f(q + w))) / 2


def fs_coeffs(f: Callable, up_to: int) -> list[Fraction]:
    """Unique hat-expansion coefficients lam_0 .. lam_{up_to-1} of f."""
    return [fs_coeff(f, j) for j in range(up_to)]


def _hat_nodes(lams) -> tuple[list, int]:
    """(A, S): A[t] / S is the partial sum of lam_0 .. lam_{N-1} (Fractions
    or ints) at the node t / 2^G, G the bit length of N - 2 (0 for N <= 2),
    and A[t] is None where t / 2^G is not a node; S = D 2^G, D the lcm of
    the denominators.  In index order V(q_j) = lam_j + (V(q_j - w_j) +
    V(q_j + w_j)) / 2: later hats vanish at q_j, earlier ones are linear
    across hat j's support, whose ends are earlier nodes.  A level-s value
    has a denominator dividing D 2^s, so the halving is exact."""
    n = len(lams)
    g = (n - 2).bit_length() if n > 2 else 0
    scale = math.lcm(*(lam.denominator for lam in lams)) << g
    num = lambda lam: lam.numerator * (scale // lam.denominator)
    A = [None] * ((1 << g) + 1)
    A[0] = num(lams[0]) if n else 0
    A[1 << g] = num(lams[1]) if n > 1 else 0
    for j in range(2, n):
        c, s = _q_node(j)
        u = 1 << (g - s)
        A[c * u] = num(lams[j]) + (A[(c - 1) * u] + A[(c + 1) * u]) // 2
    return A, scale


def fs_partial_sum_pl(lams: list[Fraction]) -> PiecewiseLinear:
    """The partial sum of the hat expansion as its interpolant on the nodes
    q_0 .. q_{N-1} (and 0, 1), read off the integer node values of
    ``_hat_nodes``."""
    A, scale = _hat_nodes(lams)
    top = len(A) - 1
    nodes = [t for t, a in enumerate(A) if a is not None]
    return PiecewiseLinear(tuple(Fraction(t, top) for t in nodes),
                           tuple(Fraction(A[t], scale) for t in nodes))


def sup_error(f: PiecewiseLinear, lams: list[Fraction]) -> Fraction:
    """Exact supremum distance between f and the partial sum, evaluated on
    the union of both breakpoint grids."""
    return sup_dist_pl(f, fs_partial_sum_pl(lams))


def fs_nonzero_indices(x, count: int) -> list[int]:
    """Indices i < count with fs_eval(i, x) != 0; at most one per
    generation plus the two boundary hats.  Generation g's hats have the
    open supports (2k, 2k+2) 2^-g, k < 2^(g-1), so x = p/q meets the k-th
    one when k = floor(p 2^(g-1) / q) and the division leaves a remainder."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    out = [i for i in (0, 1) if i < count and fs_eval(i, x) > 0]
    g = 1
    while (1 << (g - 1)) + 1 < count:
        k, r = divmod(p << (g - 1), q)
        i = (1 << (g - 1)) + k + 1
        if r and 0 <= k < 1 << (g - 1) and i < count:
            out.append(i)
        g += 1
    return out


def fs_separation(count: int) -> Fraction:
    """Exact minimum pairwise supremum distance among the first ``count``
    hat functions."""
    elems = [fs_elem(i) for i in range(count)]
    best = None
    for i in range(count):
        for j in range(i + 1, count):
            d = sup_dist_pl(elems[i], elems[j])
            if best is None or d < best:
                best = d
    return best


# ---------------------------------------------------------------------------
# symbolic values c * 2^e with rational e

@dataclass(frozen=True)
class ScaledVal:
    """Exact value coef * 2**exp2 with a rational exponent."""

    coef: Fraction
    exp2: Fraction

    def is_zero(self) -> bool:
        return self.coef == 0

    def __mul__(self, other):
        if isinstance(other, ScaledVal):
            return ScaledVal(self.coef * other.coef, self.exp2 + other.exp2)
        return ScaledVal(self.coef * Fraction(other), self.exp2)

    def same_value(self, other: "ScaledVal") -> bool:
        if self.coef == 0 or other.coef == 0:
            return self.coef == other.coef
        a, b = _normalize_term(self.coef, self.exp2), _normalize_term(other.coef, other.exp2)
        return a == b

    def as_fraction(self) -> Fraction:
        if self.exp2.denominator != 1:
            raise ValueError(f"irrational value 2^{self.exp2}")
        e = int(self.exp2)
        return self.coef * (Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e))


def _normalize_term(coef: Fraction, exp2: Fraction) -> tuple[Fraction, Fraction]:
    shift = exp2.numerator // exp2.denominator
    frac = exp2 - shift
    c = coef * (Fraction(1 << shift) if shift >= 0 else Fraction(1, 1 << -shift))
    return (c, frac)


def _iroot(n: int, k: int) -> int:
    """Floor integer k-th root."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def pow2_bounds(e: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of 2**e of width at most 2**(1-prec) * 2**floor(e)."""
    shift = e.numerator // e.denominator
    r = e - shift
    a, b = r.numerator, r.denominator
    t = _iroot(1 << (a + b * prec), b)
    lo = Fraction(t, 1 << prec)
    hi = Fraction(t + 1, 1 << prec)
    base = Fraction(1 << shift) if shift >= 0 else Fraction(1, 1 << -shift)
    return lo * base, hi * base


def frac_root_bounds(x: Fraction, k: int, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of x**(1/k) for x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    t = (x.numerator << (k * prec)) // x.denominator
    r = _iroot(t, k)
    return Fraction(r, 1 << prec), Fraction(r + 2, 1 << prec)


class RootSum:
    """Exact finite sum of rational multiples of rational powers of two,
    normalized on the fractional exponents (which are linearly independent
    over the rationals, so the zero test is coefficient-wise)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Fraction, Fraction] | None = None):
        self.terms: dict[Fraction, Fraction] = {}
        if terms:
            for e, c in terms.items():
                self._add_term(c, e)

    def _add_term(self, coef: Fraction, exp2: Fraction) -> None:
        if coef == 0:
            return
        c, frac = _normalize_term(coef, exp2)
        cur = self.terms.get(frac, Fraction(0)) + c
        if cur == 0:
            self.terms.pop(frac, None)
        else:
            self.terms[frac] = cur

    @staticmethod
    def of(v: ScaledVal | Fraction) -> "RootSum":
        s = RootSum()
        if isinstance(v, ScaledVal):
            s._add_term(v.coef, v.exp2)
        else:
            s._add_term(Fraction(v), Fraction(0))
        return s

    def plus(self, other: "RootSum") -> "RootSum":
        out = RootSum(dict(self.terms))
        out.accumulate(other)
        return out

    def accumulate(self, other: "RootSum", c: Fraction = Fraction(1)) -> None:
        """Add c * other to this sum in place."""
        for e, c0 in other.terms.items():
            self._add_term(c0 * c, e)

    def times(self, other: "RootSum") -> "RootSum":
        out = RootSum()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out._add_term(c1 * c2, e1 + e2)
        return out

    def scaled(self, c: Fraction) -> "RootSum":
        out = RootSum()
        for e, c0 in self.terms.items():
            out._add_term(c0 * c, e)
        return out

    def neg(self) -> "RootSum":
        return self.scaled(Fraction(-1))

    def power(self, p: int) -> "RootSum":
        out = RootSum.of(Fraction(1))
        for _ in range(p):
            out = out.times(self)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        lo = hi = Fraction(0)
        for e, c in self.terms.items():
            blo, bhi = pow2_bounds(e, prec)
            if c >= 0:
                lo += c * blo
                hi += c * bhi
            else:
                lo += c * bhi
                hi += c * blo
        return lo, hi

    def sign(self) -> int:
        if self.is_zero():
            return 0
        prec = 8
        while True:
            lo, hi = self.bounds(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def abs(self) -> "RootSum":
        return self if self.sign() >= 0 else self.neg()


# ---------------------------------------------------------------------------
# the p-normalized Haar system

def haar_gen(k: int) -> int:
    """Generation of basis index k >= 1 (node index k + 1)."""
    return ceil_lb(k + 1)


def haar_scale_exp(k: int, p: Fraction) -> Fraction:
    if k == 0:
        return Fraction(0)
    return Fraction(haar_gen(k) - 1) / p


def haar_support(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(left end, node, right end) of basis index k >= 1."""
    j = k + 1
    q = q_seq(j)
    w = Fraction(1, 1 << ceil_lb(j))
    return q - w, q, q + w


def haar_eval(k: int, p: Fraction, x) -> tuple[int, Fraction]:
    """Sign in {-1, 0, 1} and the symbolic scale exponent (g-1)/p; the
    value is sign * 2^exponent."""
    x = Fraction(x)
    if k == 0:
        return (1, Fraction(0)) if 0 <= x <= 1 else (0, Fraction(0))
    lo, q, hi = haar_support(k)
    e = haar_scale_exp(k, p)
    if lo <= x < q:
        return 1, e
    if q <= x <= hi:
        return -1, e
    return 0, e


def haar_integral(k: int, p: Fraction, a, b) -> ScaledVal:
    """Exact integral of basis index k over [a, b] as coef * 2^exp."""
    a, b = Fraction(a), Fraction(b)
    if b < a:
        v = haar_integral(k, p, b, a)
        return ScaledVal(-v.coef, v.exp2)
    if k == 0:
        lo, hi = max(a, Fraction(0)), min(b, Fraction(1))
        return ScaledVal(max(hi - lo, Fraction(0)), Fraction(0))
    left, q, right = haar_support(k)
    pos = max(min(b, q) - max(a, left), Fraction(0))
    neg = max(min(b, right) - max(a, q), Fraction(0))
    return ScaledVal(pos - neg, haar_scale_exp(k, p))


@dataclass
class HaarExpansion:
    """Coefficients in step form: c[k] = lam_k * 2^((g-1)/p), which is
    rational for rational step functions; lam(k) recovers the symbolic
    basis coefficient, zero past the list."""

    c: list[Fraction]
    p: Fraction

    def lam(self, k: int) -> ScaledVal:
        if k >= len(self.c):
            return ScaledVal(Fraction(0), Fraction(0))
        return ScaledVal(self.c[k], -haar_scale_exp(k, self.p))


def haar_stepform(integral: Callable, k: int) -> Fraction:
    """Step-form coefficient c_k of the function whose integrals over
    [a, b] are integral(a, b), via the local integral differences:
    c_0 = int over [0, 1] and, for k >= 1,
    c_k = (int over left half - int over right half) * 2^(g-1)."""
    if k == 0:
        return integral(0, 1)
    left, q, right = haar_support(k)
    return (integral(left, q) - integral(q, right)) * (1 << (haar_gen(k) - 1))


def haar_coeffs(f: StepFn, p: Fraction, up_to: int) -> HaarExpansion:
    """Unique Haar coefficients c_0 .. c_{up_to-1} of a step function, in
    step form."""
    return HaarExpansion([haar_stepform(f.integral, k) for k in range(up_to)],
                         Fraction(p))


def _is_zero(z) -> bool:
    return z.coef == 0 if isinstance(z, ScaledVal) else z == 0


def _haar_pyramid(zs: list, p: Fraction, zero, shift) -> list[tuple[int, object]]:
    """Constant pieces (level, value) of sum z_k f_{k,p}, left to right; a
    piece at level L has width 2^-L.

    Built coarse to fine: the support of element k >= 1 (level
    haar_gen(k) - 1) splits into the supports of elements 2k and 2k + 1,
    and each half meets exactly one new element, k itself, so its value is
    the parent's plus z_k times the sign and scale ``haar_eval`` gives at
    the half's midpoint.  A cell whose subtree holds only zero coefficients
    is not split.  ``shift(v, z, s, e)`` returns v + z * s * 2^e without
    changing v.  O(len(zs)) ``haar_eval`` calls and value updates."""
    n = len(zs)
    live = [False] * n              # live[k]: a nonzero z in k's subtree
    for k in range(n - 1, 0, -1):
        live[k] = (not _is_zero(zs[k]) or (2 * k < n and live[2 * k])
                   or (2 * k + 1 < n and live[2 * k + 1]))
    root = zero
    if n and not _is_zero(zs[0]):
        root = shift(zero, zs[0], *haar_eval(0, p, Fraction(1, 2)))
    out = []
    stack = [(1, root)]             # (element whose support is the cell, value)
    while stack:
        k, v = stack.pop()
        level = k.bit_length() - 1
        if k >= n or not live[k]:
            out.append((level, v))
            continue
        c = k - (1 << level)
        halves = [v, v]
        if not _is_zero(zs[k]):
            halves = [shift(v, zs[k], *haar_eval(k, p, Fraction(t, 1 << (level + 2))))
                      for t in (4 * c + 1, 4 * c + 3)]
        stack += [(2 * k + 1, halves[1]), (2 * k, halves[0])]
    return out


def step_from_haar(exp: HaarExpansion) -> StepFn:
    """Exact partial sum as a step function on the uniform grid of 2^G
    cells, G the largest generation (values sum rationally because the
    step-form coefficients cancel the symbolic scales)."""
    max_gen = max((haar_gen(k) for k in range(1, len(exp.c))), default=0)
    m = 1 << max_gen
    cuts = [Fraction(t, m) for t in range(m + 1)]
    levels = []
    for level, v in _haar_pyramid(exp.c, exp.p, Fraction(0),
                                  lambda v, c, s, _: v + c * s):
        levels.extend([v] * (1 << (max_gen - level)))
    return StepFn(tuple(cuts), tuple(levels))


def chi_expand(i: int, j: int, p: Fraction) -> HaarExpansion:
    """Haar expansion of the indicator of [q_i, q_j] (requires q_i <= q_j);
    exact, with nonzero indices below max(i, j)."""
    a, b = q_seq(i), q_seq(j)
    if a > b:
        raise ValueError("need q_i <= q_j")
    if a == b:
        return HaarExpansion([Fraction(0)], Fraction(p))
    f = StepFn.build([a, b], [1])
    max_gen = max(_scale_of(a), _scale_of(b), 1)
    exp = haar_coeffs(f, Fraction(p), 1 << max_gen)
    # exactness and the index bound are structural; verify both
    rec = step_from_haar(exp)
    if any(rec(x) != f(x) for x in _midpoints(1 << max_gen)):
        raise ContractViolation(f"Haar expansion of chi[q_{i}, q_{j}] does not reproduce it")
    if any(exp.c[k] != 0 for k in range(max(i, j), len(exp.c))):
        raise ContractViolation(
            f"Haar expansion of chi[q_{i}, q_{j}] has a nonzero index >= {max(i, j)}")
    return exp


def _scale_of(x: Fraction) -> int:
    return (x.denominator).bit_length() - 1


def _midpoints(m: int):
    return [Fraction(2 * t + 1, 2 * m) for t in range(m)]


def haar_unit_norm_power(k: int, p: int) -> Fraction:
    """Exact integral of |f_{k,p}|^p (integer p); equals one for every k."""
    if k == 0:
        return Fraction(1)
    g = haar_gen(k)
    scale_pow = Fraction(1 << (g - 1))          # (2^((g-1)/p))^p
    return scale_pow * Fraction(2, 1 << g)


# ---------------------------------------------------------------------------
# system descriptors

@dataclass
class FSSystem:
    """Hat-function system under the supremum norm."""

    def norm_bounds(self, zs: list[Fraction],
                    prec: int = 24) -> tuple[Fraction, Fraction]:
        """Exact supremum norm of sum z_k e_k as a zero-width enclosure;
        prec is ignored, so callers treat both systems alike."""
        A, scale = _hat_nodes(zs)
        v = Fraction(max(abs(a) for a in A if a is not None), scale)
        return v, v

    def tail_sup(self, lams: list[Fraction], start: int) -> Fraction:
        if not any(lams[start:]):
            return Fraction(0)
        return self.norm_bounds([0] * start + lams[start:])[0]

    def coeff_int(self, lams: list[Fraction], i: int, scale: int) -> int:
        """round(lam_i * scale), ties away from zero; lam_i = 0 past the list."""
        if i >= len(lams):
            return 0
        return round_ratio(lams[i].numerator * scale, lams[i].denominator)

    def tail_within(self, lams: list[Fraction], start: int, eps: Fraction) -> bool:
        """Whether sum_{k >= start} lam_k e_k has supremum norm at most eps."""
        return self.tail_sup(lams, start) <= eps


@dataclass
class HaarSystem:
    """p-normalized Haar system under the L^p norm (p a positive rational)."""

    p: Fraction

    def combo_pieces(self, zs: list) -> list[tuple[Fraction, RootSum]]:
        """Constant pieces (width, value) of sum z_k f_{k,p}, left to right
        across [0, 1]; z entries may be Fractions or symbolic ScaledVals.

        Widths are dyadic and may be unequal: a cell whose finer elements
        all have zero coefficients stays one piece.  Integrals over the
        pieces weight each value by its width, so they do not depend on
        how constant stretches are cut."""
        def shift(v: RootSum, z, s: int, e: Fraction) -> RootSum:
            coef, exp2 = (z.coef, z.exp2 + e) if isinstance(z, ScaledVal) \
                else (Fraction(z), e)
            return v.plus(RootSum.of(ScaledVal(coef * s, exp2)))

        return [(Fraction(1, 1 << level), v)
                for level, v in _haar_pyramid(zs, self.p, RootSum(), shift)]

    def norm_power(self, zs: list) -> RootSum:
        """Integral of |sum z_k f_{k,p}|^p for integer p, exact in the ring."""
        if self.p.denominator != 1:
            raise ValueError("exact norm powers need integer p")
        p = int(self.p)
        total = RootSum()
        for width, v in self.combo_pieces(zs):
            total.accumulate(v.abs().power(p), width)
        return total

    def norm_bounds(self, zs: list, prec: int = 24) -> tuple[Fraction, Fraction]:
        """Certified enclosure of the L^p norm of sum z_k f_{k,p}."""
        u, v = self.p.numerator, self.p.denominator
        if v == 1:
            lo, hi = self.norm_power(zs).bounds(prec + 8)
        else:
            # rational p: bound the integrand numerically piece by piece
            lo = hi = Fraction(0)
            for width, val in self.combo_pieces(zs):
                blo, bhi = val.abs().bounds(prec + 8)
                blo = max(blo, Fraction(0))
                plo, phi_ = _frac_pow_bounds(blo, self.p, prec + 8), \
                    _frac_pow_bounds(bhi, self.p, prec + 8)
                lo += width * plo[0]
                hi += width * phi_[1]
        lo = max(lo, Fraction(0))
        rl = _frac_pow_bounds(lo, Fraction(v, u), prec)
        rh = _frac_pow_bounds(hi, Fraction(v, u), prec)
        return rl[0], rh[1]

    def coeff_int(self, exp: HaarExpansion, i: int, scale: int) -> int:
        """round(lam_i * scale), ties away from zero, within 1/2 + 2^-16 of
        the exact product."""
        v = exp.lam(i)
        s = RootSum.of(ScaledVal(v.coef * scale, v.exp2))
        lo, hi = _tight_bounds(s.bounds, Fraction(1, 1 << 16))
        return round_half_away((lo + hi) / 2)

    def tail_within(self, exp: HaarExpansion, start: int, eps: Fraction) -> bool:
        """Whether a certified upper bound on the L^p norm of the tail
        sum_{k >= start} lam_k f_{k,p} is at most eps."""
        if all(c == 0 for c in exp.c[start:]):
            return True
        tail = [Fraction(0)] * start + [exp.lam(k) for k in range(start, len(exp.c))]
        return self.norm_bounds(tail)[1] <= eps


def _tight_bounds(enclose: Callable[[int], tuple[Fraction, Fraction]],
                  width: Fraction) -> tuple[Fraction, Fraction]:
    """The first enclosure enclose(prec), for prec = 24, 48, 96, ..., that
    is at most ``width`` wide."""
    prec = 24
    while True:
        lo, hi = enclose(prec)
        if hi - lo <= width:
            return lo, hi
        prec *= 2


def _frac_pow_bounds(x: Fraction, e: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of x**e for x >= 0 and rational e >= 0."""
    if x == 0:
        return Fraction(0), Fraction(0)
    num, den = e.numerator, e.denominator
    lo, hi = x ** num, x ** num
    return frac_root_bounds(lo, den, prec)[0], frac_root_bounds(hi, den, prec)[1]


# ---------------------------------------------------------------------------
# coefficient-stream interchange: rows (index, num, scale, exp_num, exp_den)
# encode lam_i = (num / 2^scale) * 2^(exp_num / exp_den)

def coeffs_to_csv(lams, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for i, lam in enumerate(lams):
            if not isinstance(lam, ScaledVal):
                lam = ScaledVal(Fraction(lam), Fraction(0))
            if lam.coef == 0:
                continue
            d = lam.coef.denominator
            scale = d.bit_length() - 1
            if d != 1 << scale:
                raise ValueError(f"coefficient {lam.coef} is not dyadic")
            w.writerow([i, lam.coef.numerator, scale,
                        lam.exp2.numerator, lam.exp2.denominator])


def coeffs_from_csv(path: str) -> list[ScaledVal]:
    out: dict[int, ScaledVal] = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            i, num, scale, en, ed = (int(c) for c in row)
            out[i] = ScaledVal(Fraction(num, 1 << scale), Fraction(en, ed))
    size = max(out, default=-1) + 1
    return [out.get(i, ScaledVal(Fraction(0), Fraction(0))) for i in range(size)]
