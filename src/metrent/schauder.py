"""Basis families on the unit interval: the hat-function system for
continuous functions and the p-normalized Haar system for integrable ones.

Haar data is kept in step form: a coefficient lam_k is stored as
c_k = lam_k 2^((g-1)/p) and an element's integral as the integral of its
sign pattern, both rational for rational step functions and both free of
p, so ``step_from_haar``, ``chi_expand`` and the pyramid take no p.  The
scale 2^((g-1)/p) belongs to the system: only ``HaarSystem``,
``haar_eval`` and ``haar_scale_exp`` read p.

For p = u/v in lowest terms the scale is 2^((g-1)v/u), an integer power of
the u-th root of two, so all Haar arithmetic is in one ring of integer
terms.  ``RootSum`` holds sum_j C_j 2^(j/u), 0 <= j < u, keyed by the
index j, with integer numerators C_j over one denominator; a product adds
indices and carries (j1 + j2) // u into a shift of its numerator.
Combinations (``combo_pieces``), norm powers and norm enclosures are sums
in it.  A Haar answer rounds by one of two rules.  A one-term sum
c 2^(j/u) / den, which is every coefficient, rounds exactly by one integer
root (``_round_root``).  A Haar norm, and an integral value of the
translation from Haar coefficients to integrals, round the midpoint of
their first enclosure narrow enough, at precision 24, 48, 96, ...
(``_round_enclosure``).  A sum's enclosure (``_enclosure_nums``) encloses
each 2^(j/u) by an integer root memoized per (j, u, prec); it is linear in
the numerators, so it does not depend on which common denominator they are
taken over, and no Fraction is built per term.

A system answers a name with three methods: ``coeff_int`` rounds a
coefficient (exactly for both systems), ``norm_int`` the norm of
sum (z_k/den) e_k from the integers z_k (exact for hats, from
``_hat_nodes``; for Haar, the midpoint of the first narrow enough
enclosure), and ``tail_within`` tests a tail's norm.

Synthesis is linear in the number of coefficients.  Hat partial sums
follow the node recurrence V(q_j) = lam_j + (V(q_j - w_j) + V(q_j + w_j))/2
on integer numerators over one denominator, one generation at a time
(``_hat_nodes``), so the sup norm is one ``max`` over integers; Haar
combinations are built coarse to fine as a pyramid, where each element
splits its support cell into two halves that inherit the parent value plus
or minus the element's value (``_haar_pyramid``).  One dyadic-cell rule
(``_cell_hats``) finds the elements whose open support holds a point, for
both systems.

Each basis has one coefficient stencil on integers: ``_hat_stencil`` takes
a hat coefficient from three point values and ``_haar_stencil`` a step-form
coefficient from two half-support integrals, each value an integer pair
(v, k) for v / 2^k.  The Banach translations feed them the pairs their
names answer; ``fs_vector``, ``haar_coeffs`` and ``metrent eval`` feed them
a carrier's integer values on a dyadic grid (``_grid_hats``) or its
integrals there, so a coefficient list costs one Fraction per coefficient.
Integer cores (``_hat_num``, ``_haar_sign_integral``, and
``_enclosure_nums``, the one enclosure of a sum of roots of powers of two)
serve the Banach translations, and the public Fraction functions wrap
them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .compact import _q_node, q_seq
from .funcs import PiecewiseLinear, StepFn, _over, chi, sup_dist_pl
from .machine import ContractViolation
from .strings import InvalidConfig, _dyadic, _frac, _Record, ceil_lb, round_ratio


# ---------------------------------------------------------------------------
# hat functions (peaks at the node enumeration)

def _hat_num(i: int, a: int, d: int) -> int:
    """d times hat i's value at x = a/d, for any d > 0: with q_i = c/2^g and
    halfwidth 2^-g, 2^g |x - q_i| = |a 2^g - c d| / d."""
    c, g = _q_node(i)
    return max(d - abs((a << g) - c * d), 0)


def fs_elem(i: int) -> PiecewiseLinear:
    c, g = _q_node(i)                    # q_i = c/2^g, halfwidth 2^-g
    d = 1 << g
    xs = sorted({0, d, max(c - 1, 0), c, min(c + 1, d)})
    return PiecewiseLinear._of(xs, d, [_hat_num(i, x, d) for x in xs], d)


def _hat_stencil(i: int, value: Callable[[int, int], tuple[int, int]]
                 ) -> tuple[int, int]:
    """(a, K) with the i-th hat-expansion coefficient lam_i = a / 2^K, from
    the point values value(c, s) = (v, k), v / 2^k the function at c/2^s:
    lam_0 = f(0), lam_1 = f(1), and for i >= 2, with q_i = c/2^s and
    halfwidth 2^-s, lam_i = f(q_i) - (f(q_i - 2^-s) + f(q_i + 2^-s)) / 2."""
    c, s = _q_node(i)
    v0, k0 = value(c, s)
    if i < 2:
        return v0, k0
    (v1, k1), (v2, k2) = value(c - 1, s), value(c + 1, s)
    K = max(k0, k1, k2) + 1
    return (v0 << (K - k0)) - (v1 << (K - 1 - k1)) - (v2 << (K - 1 - k2)), K


def _grid_hats(vals: list[int], s: int, count: int) -> list[int]:
    """2 lam_i for i < count (count <= 2^s + 1), over the denominator of
    vals, the numerators of a function at t/2^s, t = 0 .. 2^s."""
    value = lambda c, t: (vals[c << (s - t)], 0)
    return [a << (1 - K) for a, K in (_hat_stencil(i, value) for i in range(count))]


def _hat_nodes(zs: list[int]) -> list:
    """A: A[t] / 2^G is the partial sum of z_0 .. z_{N-1} (integers) at the
    node t / 2^G, G the bit length of N - 2 (0 for N <= 2), and A[t] is None
    where t / 2^G is not a node; len(A) = 2^G + 1.  V(q_j) = z_j +
    (V(q_j - w_j) + V(q_j + w_j)) / 2, swept generation by generation: later
    hats vanish at q_j, earlier ones are linear across hat j's support,
    whose ends are earlier nodes.  Generation s holds the nodes c / 2^s, c
    odd, at indices 2^(s-1) + 1 .. 2^s; a level-s value has a denominator
    dividing 2^s, so the halving is exact."""
    n = len(zs)
    g = (n - 2).bit_length() if n > 2 else 0
    A = [None] * ((1 << g) + 1)
    A[0] = zs[0] << g if n else 0
    A[1 << g] = zs[1] << g if n > 1 else 0
    for s in range(1, g + 1):
        w = 1 << (g - s)                    # the halfwidth 2^-s on the grid
        first = (1 << (s - 1)) + 1
        for j, t in zip(range(first, min(n, 2 * first - 1)), range(w, 1 << g, 2 * w)):
            A[t] = (zs[j] << g) + (A[t - w] + A[t + w]) // 2
    return A


def fs_partial_sum_pl(lams: list) -> PiecewiseLinear:
    """The partial sum of the hat expansion as its interpolant on the nodes
    q_0 .. q_{N-1} (and 0, 1), built from the integer node values of
    ``_hat_nodes`` on the numerators over the least common denominator."""
    zs, den = _over(lams)
    A = _hat_nodes(zs)
    nodes = [t for t, a in enumerate(A) if a is not None]
    return PiecewiseLinear._of(nodes, len(A) - 1, [A[t] for t in nodes],
                               den * (len(A) - 1))


def _cell_hats(x: Fraction, count: int):
    """Per generation g, the hat i < count with i >= 2 whose open support
    holds x = p/q, if any.  Generation g's hats have the open supports
    (2k, 2k+2) 2^-g, k < 2^(g-1), so x meets the k-th one when
    k = floor(p 2^(g-1) / q) and the division leaves a remainder; once it
    leaves none, q divides 2^(g-1) and every later 2^(g-1) too."""
    p, q = x.numerator, x.denominator
    half = 1                                # 2^(g-1)
    while half + 1 < count:
        k, r = divmod(p * half, q)
        if not r:
            return
        if 0 <= k < half and half + k + 1 < count:
            yield half + k + 1
        half <<= 1


def fs_nonzero_indices(x, count: int) -> list[int]:
    """Indices i < count whose hat is nonzero at x: the boundary hats 0 and 1
    where they do not vanish, then at most one per generation."""
    x = _frac(x)
    out = [i for i in (0, 1)
           if i < count and _hat_num(i, x.numerator, x.denominator) > 0]
    out.extend(_cell_hats(x, count))
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
# the ring of rational combinations of the u-th roots of powers of two

def _iroot(n: int, k: int) -> int:
    """Floor integer k-th root of n >= 0."""
    if n == 0:
        return 0
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=256)
def _pow2_floor(j: int, u: int, prec: int) -> int:
    """t = floor(2^(j/u + prec)) for 0 <= j < u: 2^(j/u) lies in
    [t, t + 1] / 2^prec."""
    return _iroot(1 << (j + u * prec), u)


def _enclosure_nums(terms: dict[int, int], u: int, prec: int) -> tuple[int, int]:
    """(lo, hi) with sum C 2^(j/u) in [lo, hi] / 2^prec, for integer C keyed
    by 0 <= j < u: C 2^(j/u) lies between C t and C (t + 1) over 2^prec, the
    lower end by the sign of C, for t = _pow2_floor(j, u, prec).  Both ends
    are linear in the C, so a sum over a denominator has the same enclosure
    whichever common denominator its numerators are taken over."""
    base = neg = pos = 0
    for j, c in terms.items():
        if c:
            base += c * _pow2_floor(j, u, prec)
            if c < 0:
                neg += c
            else:
                pos += c
    return base + neg, base + pos


def _pow_bounds(n: int, d: int, a: int, k: int, prec: int) -> tuple[int, int]:
    """(r, r + 2) with (n/d)^(a/k) in [r, r + 2] / 2^prec, for n > 0 and
    d > 0, r = floor(2^prec (n/d)^(a/k)); (0, 0) for n <= 0."""
    if n <= 0:
        return 0, 0
    r = _iroot((n ** a << (k * prec)) // d ** a, k)
    return r, r + 2


def _round_root(c: int, j: int, u: int, den: int) -> int:
    """c 2^(j/u) / den rounded half away from zero, exactly, for den > 0 and
    j >= 0: with X = 2|c| 2^(j/u) / den, the answer is sign(c) floor((X + 1)/2),
    and floor(X) is the integer u-th root of floor((2|c|)^u 2^j / den^u)."""
    y = (_pow_bounds((2 * abs(c)) ** u << j, den ** u, 1, u, 0)[0] + 1) // 2
    return y if c >= 0 else -y


def _round_enclosure(bounds: Callable[[int], tuple[int, int]], den: int,
                     w: int) -> int:
    """round_half_away of the midpoint of the first enclosure
    [lo, hi] / (den 2^prec) = bounds(prec), at precision 24, 48, 96, ...,
    at most 2^-w wide."""
    prec = 24
    while True:
        lo, hi = bounds(prec)
        if (hi - lo) << w <= den << prec:
            return round_ratio(lo + hi, den << (prec + 1))
        prec *= 2


class RootSum:
    """Exact finite sum (1/den) sum_j C_j 2^(j/u), 0 <= j < u, of the u-th
    roots of the powers of two, with integer numerators C_j over one
    denominator den > 0.  The roots 2^(j/u) are linearly independent over
    the rationals, so the zero test is coefficient-wise.  A product's term
    2^((j1 + j2)/u) carries (j1 + j2) // u into a shift of its numerator."""

    __slots__ = ("u", "terms", "den")

    def __init__(self, u: int, terms: dict[int, int], den: int):
        self.u, self.den = u, den
        self.terms = {j: c for j, c in terms.items() if c}

    def _add_term(self, c: int, j: int) -> None:
        """Add c 2^(j/u) / den, for j >= 0."""
        shift, j = divmod(j, self.u)
        cur = self.terms.get(j, 0) + (c << shift)
        if cur:
            self.terms[j] = cur
        else:
            self.terms.pop(j, None)

    def times(self, other: "RootSum") -> "RootSum":
        out = RootSum(self.u, {}, self.den * other.den)
        for j1, c1 in self.terms.items():
            for j2, c2 in other.terms.items():
                out._add_term(c1 * c2, j1 + j2)
        return out

    def power(self, p: int) -> "RootSum":
        """The p-th power, p >= 1."""
        out = self
        for _ in range(p - 1):
            out = out.times(self)
        return out

    def bounds(self, prec: int) -> tuple[int, int]:
        """(lo, hi) with the sum in [lo, hi] / (den 2^prec), sum |C_j| wide:
        the enclosure of _enclosure_nums."""
        return _enclosure_nums(self.terms, self.u, prec)

    def sign(self) -> int:
        if not self.terms:
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
        if self.sign() >= 0:
            return self
        return RootSum(self.u, {j: -c for j, c in self.terms.items()}, self.den)


# ---------------------------------------------------------------------------
# the p-normalized Haar system

def haar_gen(k: int) -> int:
    """Generation of basis index k >= 1 (node index k + 1)."""
    return ceil_lb(k + 1)


def haar_scale_exp(k: int, p: Fraction) -> Fraction:
    """(g-1)/p for generation g = haar_gen(k), and 0 for k = 0."""
    return Fraction(max(haar_gen(k) - 1, 0) * p.denominator, p.numerator)


def haar_support(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """(left end, node, right end) of basis index k >= 1."""
    c, g = _q_node(k + 1)
    return tuple(Fraction(c + t, 1 << g) for t in (-1, 0, 1))


def _haar_sign(k: int, x: Fraction) -> int:
    """Index k's sign pattern at x = a/b: 1 on [0, 1] for k = 0, else, with
    node k + 1 at c/2^g, 1 on [c - 1, c)/2^g, -1 on [c, c + 1]/2^g and 0
    elsewhere, compared as a 2^g against multiples of b."""
    a, b = x.numerator, x.denominator
    if k == 0:
        return int(0 <= a <= b)
    c, g = _q_node(k + 1)
    a <<= g
    return 1 if (c - 1) * b <= a < c * b else -1 if c * b <= a <= (c + 1) * b else 0


def haar_eval(k: int, p: Fraction, x) -> tuple[int, Fraction]:
    """Sign in {-1, 0, 1} and the symbolic scale exponent (g-1)/p; the
    value is sign * 2^exponent."""
    return _haar_sign(k, _frac(x)), haar_scale_exp(k, p)


def _haar_sign_integral(k: int, a: int, b: int, d: int) -> int:
    """d 2^haar_gen(k) times the integral over [a/d, b/d] (d > 0) of index
    k's sign pattern: 1 on [0, 1] for k = 0, else, with node k + 1 at c/2^g,
    1 on (c-1, c)/2^g and -1 on (c, c+1)/2^g."""
    if b < a:
        return -_haar_sign_integral(k, b, a, d)
    c, g = _q_node(k + 1) if k else (1, 0)
    a, b = a << g, b << g
    overlap = lambda lo, hi: max(min(b, hi * d) - max(a, lo * d), 0)
    return overlap(c - 1, c) - (overlap(c, c + 1) if k else 0)


def haar_integral(k: int, a, b) -> Fraction:
    """Exact integral of basis index k's sign pattern over [a, b]: the step
    form of its integral, which f_{k,p} scales by 2^haar_scale_exp(k, p)."""
    a, b = Fraction(a), Fraction(b)
    d = a.denominator * b.denominator
    return Fraction(_haar_sign_integral(k, a.numerator * b.denominator,
                                        b.numerator * a.denominator, d),
                    d << haar_gen(k))


def _haar_stencil(k: int, integral: Callable[[int, int], tuple[int, int]]
                  ) -> tuple[int, int]:
    """(a, K) with the step-form coefficient c_k = a / 2^K, from the
    integrals integral(a, g) = (v, j), v / 2^j the integral over
    [a, a + 1] / 2^g: c_0 is the integral over [0, 1] and, for k >= 1 with
    node k + 1 at c/2^g, c_k = (left half - right half) 2^(g-1), the halves
    being [c - 1, c] / 2^g and [c, c + 1] / 2^g."""
    if k == 0:
        return integral(0, 0)
    c, g = _q_node(k + 1)
    (v1, j1), (v2, j2) = integral(c - 1, g), integral(c, g)
    K = max(j1, j2)
    return ((v1 << (K - j1)) - (v2 << (K - j2))) << (g - 1), K


def haar_coeffs(f: StepFn, up_to: int) -> list[Fraction]:
    """Unique Haar coefficients c_0 .. c_{up_to-1} of a step function, in
    step form, from its integrals up to the points of the grid of step 2^-G,
    G the largest generation."""
    G = ceil_lb(up_to)
    X = math.lcm(f._d, 1 << G)
    prims = f._prims(X // f._d, range(0, X + 1, X >> G))     # over X _yd
    integral = lambda a, g: (prims[(a + 1) << (G - g)] - prims[a << (G - g)], 0)
    den = X * f._yd
    return [Fraction(_haar_stencil(k, integral)[0], den) for k in range(up_to)]


def _haar_pyramid(zs: list, zero=0, shift=lambda v, z, k, s: v + s * z
                  ) -> list[tuple[int, object]]:
    """Constant pieces (level, value) of sum z_k times element k, left to
    right; a piece at level L has width 2^-L.  The default zero and shift
    sum step forms: element k is its p-free sign pattern, s = 1 on the left
    half of its support and s = -1 on the right half, so the pieces are
    rational, and integers for integer z.

    Built coarse to fine: the support of element k >= 1 (level
    haar_gen(k) - 1) splits into the supports of elements 2k and 2k + 1,
    and each half meets exactly one new element, k itself, so its value is
    the parent's plus z_k times element k on that half.  A cell whose
    subtree holds only zero coefficients is not split.  ``shift(v, z, k, s)``
    returns v plus z times element k on the half of its support where its
    sign pattern is s, without changing v; element 0's one half is [0, 1].
    O(len(zs)) value updates."""
    n = len(zs)
    live = [False] * n              # live[k]: a nonzero z in k's subtree
    for k in range(n - 1, 0, -1):
        live[k] = (zs[k] != 0 or (2 * k < n and live[2 * k])
                   or (2 * k + 1 < n and live[2 * k + 1]))
    root = zero
    if n and zs[0]:
        root = shift(zero, zs[0], 0, 1)
    out = []
    stack = [(1, root)]             # (element whose support is the cell, value)
    while stack:
        k, v = stack.pop()
        if k >= n or not live[k]:
            out.append((k.bit_length() - 1, v))
            continue
        z = zs[k]
        halves = (shift(v, z, k, 1), shift(v, z, k, -1)) if z else (v, v)
        stack += [(2 * k + 1, halves[1]), (2 * k, halves[0])]
    return out


def step_from_haar(c: list[Fraction]) -> StepFn:
    """Exact partial sum of the step-form coefficients c as a step function
    on the uniform grid of 2^G cells, G the largest generation, summed on
    their numerators over the least common denominator."""
    max_gen = max((haar_gen(k) for k in range(1, len(c))), default=0)
    zs, den = _over(c)
    levels = []
    for level, v in _haar_pyramid(zs):
        levels.extend([v] * (1 << (max_gen - level)))
    m = 1 << max_gen
    return StepFn._of(range(m + 1), m, levels, den)


def chi_expand(i: int, j: int) -> list[Fraction]:
    """Step-form Haar coefficients of the indicator of [q_i, q_j] (requires
    q_i <= q_j); exact, with nonzero indices below max(i, j)."""
    a, b = q_seq(i), q_seq(j)
    if a > b:
        raise InvalidConfig("need q_i <= q_j")
    if a == b:
        return [Fraction(0)]
    f = chi(a, b)
    max_gen = max(_dyadic(a)[1], _dyadic(b)[1], 1)
    c = haar_coeffs(f, 1 << max_gen)
    # exactness and the index bound are structural; verify both
    rec = step_from_haar(c)
    if any(rec(x) != f(x) for x in _midpoints(1 << max_gen)):
        raise ContractViolation(f"Haar expansion of chi[q_{i}, q_{j}] does not reproduce it")
    if any(c[k] != 0 for k in range(max(i, j), len(c))):
        raise ContractViolation(
            f"Haar expansion of chi[q_{i}, q_{j}] has a nonzero index >= {max(i, j)}")
    return c


def _midpoints(m: int):
    return [Fraction(2 * t + 1, 2 * m) for t in range(m)]


# ---------------------------------------------------------------------------
# system descriptors

class FSSystem(_Record):
    """Hat-function system under the supremum norm."""

    def norm_int(self, zs: list[int], den: int, scale: int) -> int:
        """round(scale * ||sum (z_k/den) e_k||), ties away from zero: the
        norm is exact, max |A| / (2^G den) over the integer node values."""
        A = _hat_nodes(zs)
        return round_ratio(max(abs(a) for a in A if a is not None) * scale,
                           (len(A) - 1) * den)

    def coeff_int(self, lams: list[Fraction], i: int, scale: int) -> int:
        """round(lam_i * scale), ties away from zero; lam_i = 0 past the list."""
        if i >= len(lams):
            return 0
        return round_ratio(lams[i].numerator * scale, lams[i].denominator)

    def tail_within(self, lams: list[Fraction], start: int, eps: Fraction) -> bool:
        """Whether sum_{k >= start} lam_k e_k has supremum norm at most eps."""
        if not any(lams[start:]):
            return eps >= 0
        zs, den = _over(lams[start:])
        A = _hat_nodes([0] * start + list(zs))
        return max(abs(a) for a in A if a is not None) * eps.denominator \
            <= eps.numerator * den * (len(A) - 1)


class HaarSystem(_Record):
    """p-normalized Haar system under the L^p norm (p = u/v a positive
    rational in lowest terms): the one place that holds p.  Vectors are
    step-form lists; combinations are sums in the ring of u-th roots."""

    def __init__(self, p: Fraction):
        self.p = p

    def _scale_split(self, i: int, sign: int) -> tuple[int, int]:
        """(shift, j) with sign * haar_scale_exp(i, p) = shift + j/u and
        0 <= j < u: the exponent (g-1)/p is (g-1) v / u."""
        return divmod(sign * max(haar_gen(i) - 1, 0) * self.p.denominator,
                      self.p.numerator)

    def combo_pieces(self, zs: list[int], den: int) -> list[tuple[int, RootSum]]:
        """Constant pieces (level, value) of sum (z_k/den) f_{k,p}, left to
        right across [0, 1], for integers z_k; a piece at level L has width
        2^-L and every value is a RootSum over den.

        Levels may be unequal: a cell whose finer elements all have zero
        coefficients stays one piece.  Integrals over the pieces weight
        each value by its width, so they do not depend on how constant
        stretches are cut."""
        u = self.p.numerator

        def shift(v: RootSum, z: int, k: int, s: int) -> RootSum:
            # element k at the midpoint of the half where its sign is s
            c, g = _q_node(k + 1) if k else (1, 0)
            sign, e = haar_eval(k, self.p, Fraction(2 * c - s, 2 << g))
            out = RootSum(u, v.terms, den)
            out._add_term(sign * z, e.numerator * (u // e.denominator))
            return out

        return _haar_pyramid(zs, RootSum(u, {}, den), shift)

    def norm_power(self, pieces) -> RootSum:
        """Integral of |v|^p over the constant pieces (level, v) of a
        function, all v over one denominator, for integer p: its L^p norm
        to the p-th power, exact in the ring."""
        if self.p.denominator != 1:
            raise InvalidConfig("exact norm powers need integer p")
        p = self.p.numerator
        top = max((level for level, _ in pieces), default=0)
        total = RootSum(p, {}, pieces[0][1].den ** p << top if pieces else 1)
        for level, v in pieces:
            for j, c in v.abs().power(p).terms.items():
                total._add_term(c << (top - level), j)
        return total

    def _pieces_norm_bounds(self, pieces, prec: int) -> tuple[int, int]:
        """(lo, hi) with the L^p norm of the function with the constant
        pieces (level, v) in [lo, hi] / 2^prec, certified."""
        u, v = self.p.numerator, self.p.denominator
        if v == 1:
            total = self.norm_power(pieces)
            (lo, hi), d = total.bounds(prec + 8), total.den << (prec + 8)
        else:
            # rational p: bound the integrand numerically piece by piece
            top = max(level for level, _ in pieces)
            lo = hi = 0
            for level, val in pieces:
                blo, bhi = val.abs().bounds(prec + 8)
                q = val.den << (prec + 8)
                lo += _pow_bounds(blo, q, u, v, prec + 8)[0] << (top - level)
                hi += _pow_bounds(bhi, q, u, v, prec + 8)[1] << (top - level)
            d = 1 << (prec + 8 + top)
        return _pow_bounds(lo, d, v, u, prec)[0], _pow_bounds(hi, d, v, u, prec)[1]

    def norm_int(self, zs: list[int], den: int, scale: int) -> int:
        """scale * ||sum (z_k/den) f_{k,p}||_p rounded, within 1/2 + 1/8 of
        the exact product: the rounded midpoint of the first enclosure of
        the product at most 1/4 wide (``_round_enclosure``)."""
        pieces = self.combo_pieces(zs, den)

        def bounds(prec: int) -> tuple[int, int]:
            lo, hi = self._pieces_norm_bounds(pieces, prec)
            return lo * scale, hi * scale
        return _round_enclosure(bounds, 1, 2)

    def coeff_int(self, c: list[Fraction], i: int, scale: int) -> int:
        """round(lam_i * scale), ties away from zero, exactly, with
        lam_i = c_i 2^-haar_scale_exp(i, p) formed from the step form: one
        term C 2^(j/u) / D (``_round_root``); lam_i = 0 past the list."""
        if i >= len(c):
            return 0
        shift, j = self._scale_split(i, -1)                   # shift <= 0
        return _round_root(c[i].numerator * scale, j, self.p.numerator,
                           c[i].denominator << -shift)

    def tail_within(self, c: list[Fraction], start: int, eps: Fraction) -> bool:
        """Whether a certified upper bound on the L^p norm of the tail
        sum_{k >= start} lam_k f_{k,p} is at most eps.  The tail is summed
        in step form on its numerators over one denominator, so each of its
        pieces is one integer term."""
        if not any(c[start:]):
            return eps >= 0
        zs, den = _over(c[start:])
        pieces = [(level, RootSum(self.p.numerator, {0: z}, den))
                  for level, z in _haar_pyramid([0] * start + list(zs))]
        return self._pieces_norm_bounds(pieces, 24)[1] * eps.denominator \
            <= eps.numerator << 24
