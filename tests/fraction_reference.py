"""The references the library is tested against.  Most are its Fraction
bodies from before its integer carriers and its integer root ring: the
carriers ``RefStep`` and ``RefPL`` with their evaluation and integral, the
sup and p-th-power distances, smoothing and the two moduli, the hat values,
the hat and Haar coefficient formulas on point values and integrals, the
Fraction ``RootSum`` ring with the Haar norm path built on it (combination
pieces, norm power and enclosure, tail test), and the norm answer of a
Banach name from a Fraction coefficient list.  The others are exhaustive
or exact: a name's length by scan (``length_of``), the exact line cover
(``interval_cover_count``), and the integer test of a rounded power of two
(``rounds_root``) for the one-term Haar answers.  The Fraction bodies do
Fraction arithmetic on Fraction fields only, except for the library's
floor integer root ``_iroot``.  The two distances differ from the old
bodies in one place: on each piece of the merged grid they take a
piecewise-linear function's limits from inside the piece (``_inside``), so
a nonzero value at a span end counts as the jump to zero that it is."""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache

from metrent.baire import Name, _check_scan_depth, _level_lengths
from metrent.compact import q_seq
from metrent.funcs import PiecewiseLinear, _least_moduli
from metrent.schauder import (FSSystem, _iroot, fs_partial_sum_pl, haar_eval,
                              haar_gen, haar_support)
from metrent.strings import InvalidConfig, _frac, ceil_lb, round_half_away


class RefStep:
    """Right-open step function: value levels[i] on [cuts[i], cuts[i+1])."""

    def __init__(self, cuts, levels):
        self.cuts = tuple(map(_frac, cuts))
        self.levels = tuple(map(_frac, levels))

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        if x < self.cuts[0] or x >= self.cuts[-1]:
            return Fraction(0)
        return self.levels[bisect_right(self.cuts, x) - 1]

    def integral(self, a, b) -> Fraction:
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

    def jump_sizes(self) -> list:
        vals = [Fraction(0), *self.levels, Fraction(0)]
        return [abs(b - a) for a, b in zip(vals, vals[1:])]


class RefPL:
    """Piecewise-linear function interpolating values at breakpoints, zero
    outside the span."""

    def __init__(self, xs, ys):
        self.xs = tuple(map(_frac, xs))
        self.ys = tuple(map(_frac, ys))

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        if x < self.xs[0] or x > self.xs[-1]:
            return Fraction(0)
        i = max(bisect_left(self.xs, x) - 1, 0)
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def sup_norm(self) -> Fraction:
        return max(abs(y) for y in self.ys)


def ref(f):
    """The Fraction twin of a library carrier."""
    if isinstance(f, PiecewiseLinear):
        return RefPL(f.xs, f.ys)
    return RefStep(f.cuts, f.levels)


def _pieces(f) -> list:
    return list(f.cuts) if isinstance(f, RefStep) else list(f.xs)


def _inside(f, a, b, x):
    """f's limit at x, an end of the piece [a, b] of a grid that holds f's
    breakpoints, from inside the piece: a step function's level there, and
    zero for a piecewise-linear function on a piece outside its span."""
    if isinstance(f, RefStep):
        return f(a)
    if b <= f.xs[0] or a >= f.xs[-1]:
        return Fraction(0)
    return f(x)


def sup_dist_pl(f, g) -> Fraction:
    xs = sorted(set(f.xs) | set(g.xs))
    at_points = [abs(f(x) - g(x)) for x in xs]
    limits = [abs(_inside(f, a, b, x) - _inside(g, a, b, x))
              for a, b in zip(xs, xs[1:]) for x in (a, b)]
    return max(at_points + limits)


def _abs_linear_pow_integral(v0, v1, width, p: int) -> Fraction:
    """Integral of |v0 + (v1 - v0) t / width|^p over t in [0, width]."""
    if v0 == v1:
        return abs(v0) ** p * width
    if v0 * v1 < 0:
        root = width * v0 / (v0 - v1)
        return (_abs_linear_pow_integral(v0, Fraction(0), root, p)
                + _abs_linear_pow_integral(Fraction(0), v1, width - root, p))
    hi, lo = abs(v1), abs(v0)
    slope = (v1 - v0) / width
    return abs((hi ** (p + 1) - lo ** (p + 1)) / (slope * (p + 1)))


def p_power_dist(f, g, p: int) -> Fraction:
    cuts = sorted(set(_pieces(f)) | set(_pieces(g)))
    total = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        v0 = _inside(f, a, b, a) - _inside(g, a, b, a)
        v1 = _inside(f, a, b, b) - _inside(g, a, b, b)
        total += _abs_linear_pow_integral(v0, v1, b - a, p)
    return total


def shifted_p_power_dist(f: RefStep, h, p: int) -> Fraction:
    return p_power_dist(RefStep([c - h for c in f.cuts], f.levels), f, p)


def smooth(f: RefStep, m: int) -> RefPL:
    w = Fraction(1, 1 << (m + 1))
    xs = sorted({c + s for c in f.cuts for s in (w, -w)})
    return RefPL(xs, [(1 << m) * f.integral(x - w, x + w) for x in xs])


def lp_modulus(f: RefStep, p: int, up_to: int) -> list[int]:
    gaps = sorted({abs(a - b) for a in f.cuts for b in f.cuts if a != b})

    @cache
    def shift_dist(t):
        return shifted_p_power_dist(f, t, p)

    def worst(h):
        return max(shift_dist(t) for t in [g for g in gaps if g <= h] + [h])

    jumps = sum(j ** p for j in f.jump_sizes())
    return _least_moduli(up_to, p, jumps, min(gaps, default=Fraction(1)), worst)


def continuity_modulus(f: RefPL, up_to: int) -> list[int]:
    def osc(h):
        cands = set(f.xs)
        for x in f.xs:
            cands.add(x + h)
            cands.add(x - h)
        pts = sorted(c for c in cands if f.xs[0] <= c <= f.xs[-1])
        vals = [f(u) for u in pts]
        best = Fraction(0)
        for i, u in enumerate(pts):
            for j in range(i, len(pts)):
                if pts[j] - u > h:
                    break
                best = max(best, abs(vals[i] - vals[j]))
        return best

    widths = [x1 - x0 for x0, x1 in zip(f.xs, f.xs[1:])]
    slope = max(abs(y1 - y0) / w for y0, y1, w in zip(f.ys, f.ys[1:], widths))
    return _least_moduli(up_to, 1, slope, min(widths), osc)


# ---------------------------------------------------------------------------
# hat and Haar coefficients from point values and integrals

def fs_halfwidth(i: int) -> Fraction:
    return Fraction(1, 1 << ceil_lb(i))


def fs_eval(i: int, x) -> Fraction:
    """Hat i at x: max(1 - |x - q_i| / halfwidth, 0)."""
    return max(1 - abs(_frac(x) - q_seq(i)) / fs_halfwidth(i), Fraction(0))


def fs_coeff(f, j: int) -> Fraction:
    """The j-th hat-expansion coefficient from exact dyadic point values:
    lam_0 = f(0), lam_1 = f(1), and for j >= 2
    lam_j = f(q_j) - (f(q_j - w) + f(q_j + w)) / 2 with w the halfwidth."""
    if j == 0:
        return Fraction(f(Fraction(0)))
    if j == 1:
        return Fraction(f(Fraction(1)))
    q, w = q_seq(j), fs_halfwidth(j)
    return Fraction(f(q)) - (Fraction(f(q - w)) + Fraction(f(q + w))) / 2


def fs_coeffs(f, up_to: int) -> list[Fraction]:
    return [fs_coeff(f, j) for j in range(up_to)]


def sup_error(f, lams) -> Fraction:
    """Exact supremum distance between f and the hat partial sum of lams,
    evaluated on the union of both breakpoint grids."""
    return sup_dist_pl(ref(f), ref(fs_partial_sum_pl(lams)))


def haar_stepform(integral, k: int) -> Fraction:
    """Step-form coefficient c_k of the function whose integrals over
    [a, b] are integral(a, b): c_0 = int over [0, 1] and, for k >= 1,
    c_k = (int over left half - int over right half) * 2^(g-1)."""
    if k == 0:
        return integral(0, 1)
    left, q, right = haar_support(k)
    return (integral(left, q) - integral(q, right)) * (1 << (haar_gen(k) - 1))


def haar_coeffs(f, up_to: int) -> list[Fraction]:
    return [haar_stepform(ref(f).integral, k) for k in range(up_to)]


# ---------------------------------------------------------------------------
# norm answers

def fs_partial_sum(lams) -> RefPL:
    """The hat partial sum by the node recurrence V(q_j) = lam_j +
    (V(q_j - w_j) + V(q_j + w_j)) / 2 on a dict keyed by Fraction nodes."""
    lam = lambda j: Fraction(lams[j]) if j < len(lams) else Fraction(0)
    vals = {Fraction(0): lam(0), Fraction(1): lam(1)}
    for j in range(2, len(lams)):
        q, w = q_seq(j), fs_halfwidth(j)
        vals[q] = lam(j) + (vals[q - w] + vals[q + w]) / 2
    nodes = sorted(vals)
    return RefPL(nodes, [vals[x] for x in nodes])


def _tight_bounds(enclose, width: Fraction) -> tuple[Fraction, Fraction]:
    """The first enclosure enclose(prec), for prec = 24, 48, 96, ..., that
    is at most ``width`` wide."""
    prec = 24
    while True:
        lo, hi = enclose(prec)
        if hi - lo <= width:
            return lo, hi
        prec *= 2


# ---------------------------------------------------------------------------
# the Fraction ring of rational combinations of rational powers of two, and
# the Haar norm path on it

def _split_exp(e: Fraction) -> tuple[int, Fraction]:
    """(floor(e), e - floor(e)): 2^e = 2^shift 2^f with 0 <= f < 1."""
    shift = e.numerator // e.denominator
    return shift, e - shift


def pow2_floor(f: Fraction, prec: int) -> int:
    """t = floor(2^(f + prec)) for 0 <= f < 1."""
    return _iroot(1 << (f.numerator + f.denominator * prec), f.denominator)


def pow2_bounds(e: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of 2^e, 2^(floor(e) - prec) wide."""
    shift, f = _split_exp(e)
    t, scale = pow2_floor(f, prec), Fraction(2) ** shift
    return Fraction(t, 1 << prec) * scale, Fraction(t + 1, 1 << prec) * scale


class RootSum:
    """Exact finite sum of rational multiples of rational powers of two,
    normalized on the fractional exponents: {f: c} for sum c 2^f."""

    def __init__(self, terms=None):
        self.terms: dict[Fraction, Fraction] = {}
        for e, c in (terms or {}).items():
            self._add_term(Fraction(c), Fraction(e))

    def _add_term(self, coef: Fraction, exp2: Fraction) -> None:
        if coef == 0:
            return
        shift, frac = _split_exp(exp2)
        cur = self.terms.get(frac, Fraction(0)) + coef * Fraction(2) ** shift
        if cur == 0:
            self.terms.pop(frac, None)
        else:
            self.terms[frac] = cur

    def plus(self, other: "RootSum") -> "RootSum":
        out = RootSum(dict(self.terms))
        out.accumulate(other)
        return out

    def accumulate(self, other: "RootSum", c=Fraction(1)) -> None:
        """Add c * other to this sum in place."""
        for e, c0 in other.terms.items():
            self._add_term(c0 * c, e)

    def times(self, other: "RootSum") -> "RootSum":
        out = RootSum()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out._add_term(c1 * c2, e1 + e2)
        return out

    def scaled(self, c) -> "RootSum":
        out = RootSum()
        out.accumulate(self, Fraction(c))
        return out

    def power(self, p: int) -> "RootSum":
        out = RootSum({0: 1})
        for _ in range(p):
            out = out.times(self)
        return out

    def bounds(self, prec: int) -> tuple[Fraction, Fraction]:
        """Each term's enclosure from pow2_bounds, its ends swapped for a
        negative coefficient, summed: sum |c| / 2^prec wide."""
        lo = hi = Fraction(0)
        for f, c in self.terms.items():
            blo, bhi = pow2_bounds(f, prec)
            if c < 0:
                blo, bhi = bhi, blo
            lo += c * blo
            hi += c * bhi
        return lo, hi

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
        return self if self.sign() >= 0 else self.scaled(-1)


def frac_root_bounds(x: Fraction, k: int, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of x**(1/k) for x >= 0."""
    if x < 0:
        raise InvalidConfig("negative radicand")
    t = (x.numerator << (k * prec)) // x.denominator
    r = _iroot(t, k)
    return Fraction(r, 1 << prec), Fraction(r + 2, 1 << prec)


def frac_pow_bounds(x: Fraction, e: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of x**e for x >= 0 and rational e >= 0."""
    if x == 0:
        return Fraction(0), Fraction(0)
    return frac_root_bounds(x ** e.numerator, e.denominator, prec)


def combo_pieces(p: Fraction, lams: list) -> list:
    """Constant pieces (width, RootSum) of sum lam_k f_{k,p}, left to right,
    by the coefficient pyramid: each half of element k's support takes the
    parent's value plus lam_k times haar_eval at the half's midpoint; a cell
    whose subtree holds only zero coefficients is one piece."""
    n = len(lams)
    live = [False] * n
    for k in range(n - 1, 0, -1):
        live[k] = (lams[k] != 0 or (2 * k < n and live[2 * k])
                   or (2 * k + 1 < n and live[2 * k + 1]))

    def shift(v, z, k, x):
        s, e = haar_eval(k, p, x)
        return v.plus(RootSum({e: Fraction(z) * s}))

    root = shift(RootSum(), lams[0], 0, Fraction(1, 2)) if n and lams[0] else RootSum()
    out, stack = [], [(1, root)]
    while stack:
        k, v = stack.pop()
        level = k.bit_length() - 1
        if k >= n or not live[k]:
            out.append((Fraction(1, 1 << level), v))
            continue
        c = k - (1 << level)
        halves = [v, v]
        if lams[k]:
            halves = [shift(v, lams[k], k, Fraction(t, 1 << (level + 2)))
                      for t in (4 * c + 1, 4 * c + 3)]
        stack += [(2 * k + 1, halves[1]), (2 * k, halves[0])]
    return out


def norm_power(p: Fraction, pieces) -> RootSum:
    """Integral of |v|^p over the pieces (width, v), for integer p."""
    total = RootSum()
    for width, v in pieces:
        total.accumulate(v.abs().power(int(p)), width)
    return total


def pieces_norm_bounds(p: Fraction, pieces, prec: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of the L^p norm of the function with the pieces
    (width, v): the p-th root of the norm power's enclosure at integer p,
    else of the sum of each piece's enclosed |v|^p."""
    u, v = p.numerator, p.denominator
    if v == 1:
        lo, hi = norm_power(p, pieces).bounds(prec + 8)
    else:
        lo = hi = Fraction(0)
        for width, val in pieces:
            blo, bhi = val.abs().bounds(prec + 8)
            lo += width * frac_pow_bounds(max(blo, Fraction(0)), p, prec + 8)[0]
            hi += width * frac_pow_bounds(bhi, p, prec + 8)[1]
    lo = max(lo, Fraction(0))
    return (frac_pow_bounds(lo, Fraction(v, u), prec)[0],
            frac_pow_bounds(hi, Fraction(v, u), prec)[1])


def stepform_pieces(c: list) -> list:
    """Constant pieces (width, value) of the step-form sum of c, one per
    cell t of the uniform grid of 2^G cells, G the largest generation: the
    sum of c_k times k's sign pattern at the cell's midpoint, over k = 0
    and, per generation g, the one element 2^(g-1) + floor(t 2^(g-1-G))
    whose support holds the cell."""
    G = max((haar_gen(k) for k in range(1, len(c))), default=0)
    out = []
    for t in range(1 << G):
        x = Fraction(2 * t + 1, 2 << G)
        ks = [0] + [(1 << (g - 1)) + (t >> (G - g + 1)) for g in range(1, G + 1)]
        out.append((Fraction(1, 1 << G), sum((Fraction(c[k]) * haar_eval(k, 1, x)[0]
                                              for k in ks if k < len(c)), Fraction(0))))
    return out


def rounds_root(y: int, c: int, e: Fraction, den: int) -> bool:
    """Whether y is c 2^e / den rounded half away from zero, for integers c
    and den > 0 and rational e, decided in integers: with the integer part
    of e moved into c or den, the value is C 2^(a/b) / D with 0 <= a < b,
    and y, of c's sign, rounds it when
    ((2|y| - 1) D)^b <= (2|C|)^b 2^a < ((2|y| + 1) D)^b, the left end 0
    for y = 0."""
    s, f = _split_exp(Fraction(e))
    a, b = f.numerator, f.denominator
    C, D = (abs(c) << s, den) if s >= 0 else (abs(c), den << -s)
    if y and (y < 0) != (c < 0):
        return False
    t = abs(y)
    return (max(2 * t - 1, 0) * D) ** b <= (2 * C) ** b << a < ((2 * t + 1) * D) ** b


def haar_tail_within(p: Fraction, c: list, start: int, eps: Fraction) -> bool:
    """HaarSystem.tail_within in Fractions: whether the upper end of the
    tail's norm enclosure at precision 24 is at most eps."""
    if not any(c[start:]):
        return eps >= 0
    pieces = [(w, RootSum({0: v})) for w, v in stepform_pieces([0] * start + list(c[start:]))]
    return pieces_norm_bounds(p, pieces, 24)[1] <= eps


def norm_bounds(system, lams: list, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure of the norm of sum lam_k e_k: the exact supremum norm,
    whatever prec, for the hat system; for the Haar system the certified
    enclosure of its constant pieces at prec."""
    if isinstance(system, FSSystem):
        v = fs_partial_sum(lams).sup_norm()
        return v, v
    return pieces_norm_bounds(system.p, combo_pieces(system.p, lams), prec)


def norm_answer(system, zs: list[int], den: int, scale: int) -> int:
    """round(scale * norm of sum (z_k/den) e_k), ties away from zero: the
    midpoint of the first enclosure at most 1/(4 scale) wide, on the
    Fraction coefficients z_k/den."""
    lams = [Fraction(z, den) for z in zs]
    lo, hi = _tight_bounds(lambda prec: norm_bounds(system, lams, prec),
                           Fraction(1, 4 * scale))
    return round_half_away((lo + hi) / 2 * scale)


# ---------------------------------------------------------------------------
# exhaustive references for closed forms

def length_of(phi: Name, n: int) -> int:
    """max{|phi(a)| : |a| <= n} by exhaustive scan.

    The scan touches 2^(n+1) - 1 queries, which is why this map is not
    cheap to evaluate; n above SCAN_CUTOFF raises.
    """
    _check_scan_depth(n)
    return max((max(_level_lengths(phi, k)) for k in range(n + 1)), default=0)


def interval_cover_count(points: list[Fraction], radius: Fraction) -> int:
    """Minimal number of closed radius-balls centered at the given points
    covering all of them (exact for subsets of the line): a greedy sweep."""
    pts = sorted(points)
    count = 0
    i = 0
    while i < len(pts):
        count += 1
        lo = pts[i]
        # farthest admissible center, then skip everything it covers
        c = lo
        for p in pts[i:]:
            if p - lo <= radius:
                c = p
            else:
                break
        while i < len(pts) and pts[i] - c <= radius:
            i += 1
    return count
