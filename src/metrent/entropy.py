"""Covering numbers, packings, Lorentz bounds, and the dialog-cover
experiment that checks the complexity-to-entropy inequality at desk scale.

All cloud distances are exact rationals or ints.  Radii and packing
thresholds 2^-n are ints when they are whole numbers and Fractions below 1,
so a cloud of integer distances compares ints with ints at whole-number
radii (int-Fraction comparison is exact).  Ball centers are restricted to
cloud points in both covering modes; this can overestimate the true covering
number by at most a radius-doubling factor, and reports record the mode
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .baire import LengthFn, Name, pair_names
from .machine import (ContractViolation, Ctx, RunningTime,
                      dialog_length_bound, metered_run)
from .strings import ConfigError, InvalidConfig, ceil_lb, floor_lb

EXACT_COVER_CAP = 20


class SizeExceeded(ConfigError, ValueError):
    """Exact set-cover requested on a cloud above the brute-force cap."""


@dataclass
class PointCloud:
    """Finite list of points with an exact pairwise distance."""

    points: list
    dist: Callable[[int, int], int | Fraction]
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False)
    _traversals: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.points)

    def d(self, i: int, j: int) -> int | Fraction:
        if i > j:
            i, j = j, i
        key = (i, j)
        v = self._cache.get(key)
        if v is None:
            v = self.dist(i, j)
            self._cache[key] = v
        return v


def cloud_from_vectors(vectors, metric: str = "sup") -> PointCloud:
    vecs = [tuple(Fraction(c) for c in v) for v in vectors]
    if metric == "sup":
        d = lambda i, j: max(abs(a - b) for a, b in zip(vecs[i], vecs[j]))
    elif metric == "l1":
        d = lambda i, j: sum(abs(a - b) for a, b in zip(vecs[i], vecs[j]))
    else:
        raise InvalidConfig(f"unknown metric {metric!r}")
    return PointCloud(vecs, d, label=f"{metric}^{len(vecs[0])}")


class CoverResult(NamedTuple):
    count: int
    exponent: int          # ceil(lb count)
    mode: str


def _pow2(e: int):
    """2^e exactly: an int for e >= 0, a Fraction below 1."""
    return 1 << e if e >= 0 else Fraction(1, 1 << -e)


def covering_number(K: PointCloud, n: int, mode: str = "exact") -> CoverResult:
    """Fewest (exact) or witnessed (greedy farthest-point-first) closed
    2^-n balls centered at cloud points covering every cloud point."""
    r = _pow2(-n)
    if mode == "exact":
        count = _exact_cover(K, r)
    elif mode == "greedy":
        count = _greedy_cover(K, r)
    else:
        raise InvalidConfig(f"unknown mode {mode!r}")
    return CoverResult(count, ceil_lb(count), mode)


def _ball_masks(K: PointCloud, r: int | Fraction) -> list[int]:
    m = len(K)
    masks = []
    for c in range(m):
        mask = 0
        for p in range(m):
            if K.d(c, p) <= r:
                mask |= 1 << p
        masks.append(mask)
    return masks


def _exact_cover(K: PointCloud, r: int | Fraction) -> int:
    m = len(K)
    if m == 0:
        return 0
    if m > EXACT_COVER_CAP:
        raise SizeExceeded(f"{m} points exceed the exact-cover cap {EXACT_COVER_CAP}")
    masks = _ball_masks(K, r)
    full = (1 << m) - 1
    best = {0: 0}
    frontier = {0}
    count = 0
    while True:
        if full in best:
            return best[full]
        count += 1
        nxt = {}
        for state in frontier:
            missing = (~state) & full
            pivot = (missing & -missing).bit_length() - 1
            for c in range(m):
                if masks[c] >> pivot & 1:
                    s2 = state | masks[c]
                    if s2 not in best:
                        nxt[s2] = count
        best.update(nxt)
        frontier = set(nxt)
        if not frontier:
            raise ContractViolation("cover search stalled: a point lies in no ball")


def farthest_first(K: PointCloud, start: int) -> tuple[list[int], list]:
    """Farthest-point-first traversal of the whole cloud from ``start``
    (Gonzalez 1985): each step appends the lowest-index point farthest from
    the points chosen so far.  Returns the visit order and each point's
    insertion radius, its distance to the earlier points (None for the
    start); the radii are non-increasing.  One running minimum per point
    makes this m(m-1)/2 distance lookups; the result is kept per start."""
    hit = K._traversals.get(start)
    if hit is not None:
        return hit
    order, radii = [start], [None]
    rest = [p for p in range(len(K)) if p != start]
    dmin = {p: K.d(start, p) for p in rest}
    while rest:
        best = max(rest, key=dmin.__getitem__)
        order.append(best)
        radii.append(dmin[best])
        rest.remove(best)
        for p in rest:
            d = K.d(best, p)
            if d < dmin[p]:
                dmin[p] = d
    K._traversals[start] = order, radii
    return order, radii


def _greedy_cover(K: PointCloud, r: int | Fraction) -> int:
    """Centers are added farthest-first from point 0 while some point lies
    beyond r; since the insertion radii do not increase, that is one center
    plus every later point inserted at a radius above r."""
    if len(K) == 0:
        return 0
    _, radii = farthest_first(K, 0)
    return 1 + sum(1 for d in radii[1:] if d > r)


def packing_witness(K: PointCloud, n: int) -> list[int]:
    """Greedy maximal set of cloud indices with pairwise distance strictly
    above 2^-(n-1); its floor-lb size is a spanning-bound value at n."""
    thr = _pow2(1 - n)
    chosen: list[int] = []
    for p in range(len(K)):
        if all(K.d(p, c) > thr for c in chosen):
            chosen.append(p)
    return chosen


def packing_exponent(K: PointCloud, n: int) -> int:
    w = packing_witness(K, n)
    return floor_lb(len(w)) if w else 0


def check_spanning_le_covering(K: PointCloud, n: int) -> bool:
    """Spanning below covering at matched radii: the packing count never
    exceeds the exact cover count, so the exponents are ordered too."""
    pack = len(packing_witness(K, n))
    cover = covering_number(K, n, "exact")
    if pack > cover.count:
        return False
    return (floor_lb(pack) if pack else 0) <= cover.exponent


# ---------------------------------------------------------------------------
# compact sets of prescribed size

def build_large_compact(mu: Callable[[int], int], family: Callable[[int], object],
                        scale: Callable[[Fraction, object], object],
                        zero: object, dist: Callable[[object, object], Fraction],
                        horizon: int) -> PointCloud:
    """Finite truncation of {0} union over shells i <= horizon of
    2^(1-i) * x_j, with 2^mu(i) - 2^mu(i-1) family members per shell
    (mu(-1) read as -infinity).  For a unit-norm family of pairwise distance
    above 1/2 the packing count at threshold 2^-n is at least 2^mu(n)."""
    pts = [zero]
    prev = 0
    for i in range(horizon + 1):
        cnt = (1 << mu(i)) - prev
        prev = 1 << mu(i)
        factor = Fraction(1 << 1, 1 << i) if i >= 0 else Fraction(1 << (1 - i))
        for j in range(1, cnt + 1):
            pts.append(scale(factor, family(j)))
    return PointCloud(pts, lambda a, b: dist(pts[a], pts[b]),
                      label="large-compact")


# ---------------------------------------------------------------------------
# Lorentz's full-approximation-set bounds

@dataclass
class ApproxSetSpec:
    """A non-increasing positive tolerance sequence delta_0, delta_1, ...
    finitely tabulated, with delta_0 >= 1 for the admissible range."""

    delta: list[Fraction]

    def __post_init__(self):
        if not self.delta:
            raise InvalidConfig("empty tolerance table")
        for a, b in zip(self.delta, self.delta[1:]):
            if b > a:
                raise InvalidConfig("tolerances must be non-increasing")
        if any(d <= 0 for d in self.delta):
            raise InvalidConfig("tolerances must be positive")


class InsufficientTabulation(ConfigError, ValueError):
    pass


def _n_index(spec: ApproxSetSpec, i: int) -> int:
    if i == 0:
        return 0
    bound = Fraction(1, 1 << i)
    for k, d in enumerate(spec.delta):
        if d <= bound:
            return k
    raise InsufficientTabulation(f"no tabulated delta_k <= 2^-{i}")


def lorentz_bounds(spec: ApproxSetSpec, n: int) -> tuple[float, float]:
    """Entropy bounds for a full approximation set at radius 2^-n: with
    N_i = min{k : delta_k <= 2^-i} and j = n + 2,

      lower = log 2 * sum_{i=1}^{j-3} N_i
      upper = log 2 * sum_{i=1}^{j} N_i
              + sum_{i=0}^{j-1} N_i * log(N_j / (N_{i+1} - N_i))
              + N_1 * log delta_0 + N_j * log 9,

    with a zero increment contributing a zero summand.
    """
    j = n + 2
    N = [_n_index(spec, i) for i in range(j + 1)]
    lower = math.log(2) * sum(N[1:max(j - 2, 1)])
    upper = math.log(2) * sum(N[1:j + 1])
    for i in range(j):
        dN = N[i + 1] - N[i]
        if N[i] > 0 and dN > 0:
            upper += N[i] * math.log(N[j] / dN)
    upper += N[1] * math.log(float(spec.delta[0]))
    upper += N[j] * math.log(9)
    return lower, upper


# ---------------------------------------------------------------------------
# dialog classes versus covering

@dataclass
class DialogCoverReport:
    n: int
    sample_size: int
    classes_observed: int
    budget: int
    dialog_bound: int
    max_dialog_len: int
    max_class_dist: Fraction
    class_sizes: list[int]


def dialog_cover_experiment(samples: list[Name], points: list,
                            eq_program: Callable[[Ctx], None],
                            T: RunningTime, l: LengthFn, n: int,
                            dist: Callable[[object, object], object],
                            u: int) -> DialogCoverReport:
    """Group sample names by the dialog of the metered equality run on
    <psi, psi> with input 1^(n+1); verify the class count stays below
    2^(dialog bound) and that every sample sits within closed 2^-n of its
    class representative.  ``dist`` measures points in units of 2^-u (ints
    for an integer cloud); the reported ``max_class_dist`` is the exact
    distance.  Raises ContractViolation on a failed cover."""
    l_pair: LengthFn = lambda k: 2 * (l(k) + 1)
    budget = T.bound(l_pair, n + 1)
    bound = dialog_length_bound(budget)
    classes: dict = {}
    reps: dict = {}
    max_len = 0
    max_dist = 0
    radius = _pow2(u - n)
    for idx, psi in enumerate(samples):
        chi = pair_names(psi, psi)
        _, _, dialog = metered_run(eq_program, chi, "1" * (n + 1), T, l_pair)
        enc_len = dialog.encoded_length()
        if enc_len > bound:
            raise ContractViolation(
                f"dialog length {enc_len} exceeds bound {bound} at sample {idx}")
        max_len = max(max_len, enc_len)
        key = (dialog.query_count, dialog.truncated_answers)
        if key not in classes:
            classes[key] = []
            reps[key] = idx
        classes[key].append(idx)
        d = dist(points[idx], points[reps[key]])
        if d > radius:
            raise ContractViolation(
                f"sample {idx} at distance {Fraction(d) / _pow2(u)} > 2^-{n} "
                f"from representative {reps[key]}")
        max_dist = max(max_dist, d)
    return DialogCoverReport(
        n=n, sample_size=len(samples), classes_observed=len(classes),
        budget=budget, dialog_bound=bound, max_dialog_len=max_len,
        max_class_dist=Fraction(max_dist) / _pow2(u),
        class_sizes=sorted(map(len, classes.values())),
    )


# ---------------------------------------------------------------------------
# one-dimensional exact covering (intervals): greedy sweep is optimal

def interval_cover_count(points: list[Fraction], radius: Fraction) -> int:
    """Minimal number of closed radius-balls centered at the given points
    covering all of them (exact for subsets of the line)."""
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
