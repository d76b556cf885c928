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
(``fs_partial_sum_pl``); Haar combinations are built coarse to fine as a
pyramid, where each element splits its support cell into two halves that
inherit the parent value plus or minus the element's value
(``_haar_pyramid``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .compact import q_seq
from .entropy import ContractViolation
from .funcs import PiecewiseLinear, StepFn, sup_dist_pl
from .strings import ceil_lb


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


def fs_coeffs(f: Callable, up_to: int) -> list[Fraction]:
    """Unique hat-expansion coefficients from exact dyadic point values:
    lam_0 = f(0), lam_1 = f(1), and for j >= 2
    lam_j = f(q_j) - (f(q_j - w) + f(q_j + w)) / 2 with w the halfwidth."""
    out = []
    for j in range(up_to):
        if j == 0:
            out.append(Fraction(f(Fraction(0))))
        elif j == 1:
            out.append(Fraction(f(Fraction(1))))
        else:
            q, w = q_seq(j), fs_halfwidth(j)
            out.append(Fraction(f(q)) - (Fraction(f(q - w)) + Fraction(f(q + w))) / 2)
    return out


def fs_partial_sum_eval(lams: Iterable[Fraction], x) -> Fraction:
    x = Fraction(x)
    return sum((lam * fs_eval(i, x) for i, lam in enumerate(lams) if lam),
               Fraction(0))


def fs_partial_sum_pl(lams: list[Fraction]) -> PiecewiseLinear:
    """The partial sum of the hat expansion as its interpolant on the nodes
    q_0 .. q_{N-1} (and 0, 1).

    Node values follow from V(0) = lam_0, V(1) = lam_1 and, in index order,
    V(q_j) = lam_j + (V(q_j - w_j) + V(q_j + w_j)) / 2: hats after j vanish
    at q_j, and the hats before j are linear across the support of hat j,
    whose ends are earlier nodes.  O(N) exact operations."""
    lam = lambda j: Fraction(lams[j]) if j < len(lams) else Fraction(0)
    vals = {Fraction(0): lam(0), Fraction(1): lam(1)}
    for j in range(2, len(lams)):
        q, w = q_seq(j), fs_halfwidth(j)
        vals[q] = lam(j) + (vals[q - w] + vals[q + w]) / 2
    nodes = sorted(vals)
    return PiecewiseLinear(tuple(nodes), tuple(vals[x] for x in nodes))


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
    basis coefficient."""

    c: list[Fraction]
    p: Fraction

    def lam(self, k: int) -> ScaledVal:
        return ScaledVal(self.c[k], -haar_scale_exp(k, self.p))

    def nonzero_indices(self) -> list[int]:
        return [k for k, v in enumerate(self.c) if v != 0]


def haar_coeffs(f: StepFn, p: Fraction, up_to: int) -> HaarExpansion:
    """Unique Haar coefficients of a step function via the local integral
    differences: in step form
    c_k = (int over left half - int over right half) * 2^(g-1)."""
    c = [f.integral(0, 1)]
    for k in range(1, up_to):
        left, q, right = haar_support(k)
        g = haar_gen(k)
        c.append((f.integral(left, q) - f.integral(q, right)) * (1 << (g - 1)))
    return HaarExpansion(c, Fraction(p))


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

    label: str = "fs"
    norm_kind: str = "sup"

    def coeffs(self, f: PiecewiseLinear, up_to: int) -> list[Fraction]:
        return fs_coeffs(f, up_to)

    def combo_pl(self, zs: list[Fraction]) -> PiecewiseLinear:
        return fs_partial_sum_pl(list(zs))

    def norm_bounds(self, zs: list[Fraction]) -> tuple[Fraction, Fraction]:
        v = self.combo_pl(zs).sup_norm() if any(zs) else Fraction(0)
        return v, v

    def tail_sup(self, lams: list[Fraction], start: int) -> Fraction:
        tail = [Fraction(0)] * start + lams[start:]
        if not any(tail):
            return Fraction(0)
        return self.combo_pl(tail).sup_norm()


@dataclass
class HaarSystem:
    """p-normalized Haar system under the L^p norm (p a positive rational)."""

    p: Fraction
    label: str = "haar"
    norm_kind: str = "lp"

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
    import csv as _csv
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
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
    import csv as _csv
    out: dict[int, ScaledVal] = {}
    with open(path, newline="") as fh:
        for row in _csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            i, num, scale, en, ed = (int(c) for c in row)
            out[i] = ScaledVal(Fraction(num, 1 << scale), Fraction(en, ed))
    size = max(out, default=-1) + 1
    return [out.get(i, ScaledVal(Fraction(0), Fraction(0))) for i in range(size)]
