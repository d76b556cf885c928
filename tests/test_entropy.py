import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metrent import entropy
from metrent.baire import Name
from metrent.compact import unit_interval_short_approx, unit_interval_space
from metrent.entropy import (ApproxSetSpec, ContractViolation, PointCloud,
                             build_large_compact,
                             check_spanning_le_covering, cloud_from_vectors,
                             covering_number, dialog_cover_experiment,
                             farthest_first, lorentz_bounds, packing_exponent,
                             packing_witness)
from metrent.machine import RunningTime, const_time, equality_from_metric
from metrent.reprs import cauchy_metric_program, cauchy_metric_time, cauchy_name
from metrent.strings import InvalidConfig

from fraction_reference import interval_cover_count


def line_cloud(values):
    vals = [Fraction(v) for v in values]
    return PointCloud(vals, lambda i, j: abs(vals[i] - vals[j]))


def test_covering_examples():
    single = line_cloud([0])
    assert covering_number(single, 3).count == 1
    two = line_cloud([0, 1])
    assert covering_number(two, 1).count == 2     # radius 1/2
    assert covering_number(two, 0).count == 1     # radius 1


def test_covering_exact_cap():
    big = line_cloud(list(range(25)))
    with pytest.raises(InvalidConfig, match="exact-cover cap"):
        covering_number(big, 1, "exact")
    assert covering_number(big, 1, "greedy").count >= 1


def test_exact_cover_stall_is_contract_violation():
    # a distance with d(p, p) > 0 leaves every point outside its own ball
    broken = PointCloud([0, 1], lambda i, j: Fraction(1))
    with pytest.raises(ContractViolation, match="stalled"):
        covering_number(broken, 1, "exact")


def _greedy_cover_per_radius(K, n):
    """Reference greedy count: rebuild the farthest-point centers from
    point 0 at this radius, adding the first point farthest from them while
    it lies outside every ball."""
    r = Fraction(1, 1 << n) if n >= 0 else Fraction(1 << -n)
    if len(K) == 0:
        return 0
    centers = [0]
    while True:
        worst, worst_d = None, None
        for p in range(len(K)):
            dmin = min(K.d(p, c) for c in centers)
            if dmin > r and (worst_d is None or dmin > worst_d):
                worst, worst_d = p, dmin
        if worst is None:
            return len(centers)
        centers.append(worst)


# coarse grids so that duplicate points and equal-distance ties are common
line_values = st.lists(st.integers(-8, 8).map(lambda k: Fraction(k, 4)),
                       max_size=14)
vectors = st.lists(st.tuples(*[st.integers(0, 4).map(lambda k: Fraction(k, 4))] * 2),
                   min_size=1, max_size=12)


@settings(max_examples=120, deadline=None)
@given(st.one_of(line_values.map(line_cloud),
                 vectors.map(cloud_from_vectors)))
def test_greedy_cover_matches_per_radius_loop(K):
    for n in range(-2, 11):
        assert covering_number(K, n, "greedy").count == \
            _greedy_cover_per_radius(K, n), n


def _ball_masks_per_radius(K, r):
    """Reference ball masks: every pair's distance compared with r, rebuilt
    for each radius."""
    masks = []
    for c in range(len(K)):
        mask = 0
        for p in range(len(K)):
            if K.d(c, p) <= r:
                mask |= 1 << p
        masks.append(mask)
    return masks


@settings(max_examples=120, deadline=None)
@given(st.one_of(line_values.map(line_cloud),
                 vectors.map(cloud_from_vectors)))
def test_ball_masks_match_per_radius_loop(K):
    rows = None
    for n in range(-2, 11):
        r = Fraction(1, 1 << n) if n >= 0 else 1 << -n
        assert entropy._ball_masks(K, r) == _ball_masks_per_radius(K, r), n
        # the rows are sorted once per cloud
        assert rows is None or K._rows is rows
        rows = K._rows
        if len(K) <= entropy.EXACT_COVER_CAP:
            masks = _ball_masks_per_radius(K, r)
            full = (1 << len(K)) - 1
            # the exact count is the fewest masks whose union is full
            want = next((k for k in range(len(K) + 1)
                         if any(_union(c) == full for c in
                                itertools.combinations(masks, k))), None)
            assert covering_number(K, n, "exact").count == want, n


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


@settings(max_examples=60, deadline=None)
@given(line_values.filter(bool), st.data())
def test_farthest_first_radii(values, data):
    K = line_cloud(values)
    start = data.draw(st.integers(0, len(K) - 1))
    order, radii = farthest_first(K, start)
    assert sorted(order) == list(range(len(K))) and order[0] == start
    assert radii[0] is None
    assert radii[1:] == sorted(radii[1:], reverse=True)
    for k in range(1, len(K)):
        assert radii[k] == min(K.d(order[k], c) for c in order[:k])
    assert farthest_first(K, start) is K._traversals[start]


def test_greedy_cover_distance_count():
    rnd = random.Random(5)
    vals = [Fraction(rnd.randrange(0, 257), 256) for _ in range(80)]
    calls = []

    def dist(i, j):
        calls.append((i, j))
        return abs(vals[i] - vals[j])

    K = PointCloud(vals, dist)
    m = len(K)
    for n in range(9):
        covering_number(K, n, "greedy")
    assert len(calls) <= m * (m - 1) // 2 + m


def test_packing_examples():
    single = line_cloud([0])
    assert len(packing_witness(single, 1)) == 1
    assert packing_exponent(single, 1) == 0
    two = line_cloud([0, 3])
    assert len(packing_witness(two, 1)) == 2      # threshold 1
    three = line_cloud([0, Fraction(1, 2), 1])
    # exhaustive check: no pair has distance > 1, so max separated set is 1
    assert len(packing_witness(three, 1)) == 1


def test_greedy_at_least_exact_and_packing_below():
    rnd = random.Random(11)
    for _ in range(40):
        pts = [(Fraction(rnd.randrange(0, 65), 64), Fraction(rnd.randrange(0, 65), 64))
               for _ in range(rnd.randrange(2, 11))]
        K = cloud_from_vectors(pts)
        for n in (0, 1, 2, 3):
            exact = covering_number(K, n, "exact")
            greedy = covering_number(K, n, "greedy")
            assert greedy.count >= exact.count
            assert len(packing_witness(K, n)) <= exact.count
            assert check_spanning_le_covering(K, n)
    # no points need no balls
    empty = cloud_from_vectors([])
    for mode in ("exact", "greedy"):
        assert covering_number(empty, 0, mode).count == 0


def test_build_large_compact_unit_peaks():
    # disjoint-support unit peaks of one generation: pairwise sup distance 1
    from metrent.funcs import PiecewiseLinear, sup_dist_pl
    G = 6

    def peak(j):
        w = Fraction(1, 1 << G)
        c = Fraction(2 * j - 1, 1 << G)
        xs = sorted({Fraction(0), c - w, c, c + w, Fraction(1)})
        ys = [Fraction(1) if x == c else Fraction(0) for x in xs]
        return PiecewiseLinear.build(xs, ys)

    zero = PiecewiseLinear.build([0, 1], [0, 0])
    K = build_large_compact(
        mu=lambda i: i, family=peak,
        scale=lambda c, f: f.scaled(c), zero=zero,
        dist=sup_dist_pl, horizon=6)
    assert len(K) == 1 + 2 ** 6
    # packing at threshold 2^-n captures all shells up to n plus the origin
    for n in range(7):
        assert packing_exponent(K, n + 1) >= n


def test_build_large_compact_degenerate():
    zero = (Fraction(0),)
    fam = lambda j: (Fraction(j),)      # distances >= 1 between members
    K = build_large_compact(
        mu=lambda i: 0, family=fam,
        scale=lambda c, v: (c * v[0],), zero=zero,
        dist=lambda a, b: abs(a[0] - b[0]), horizon=0)
    assert len(K) == 2


def test_lorentz_dyadic_reference():
    spec = ApproxSetSpec([Fraction(1, 1 << k) for k in range(16)])
    for n in range(1, 9):
        lo, hi = lorentz_bounds(spec, n)
        assert lo == math.log(2) * sum(range(1, n))
        assert lo <= hi


def test_lorentz_refuses_bad_tables():
    for deltas, why in (([], "empty"), ([Fraction(1), Fraction(0)], "positive")):
        with pytest.raises(InvalidConfig, match=why):
            ApproxSetSpec(deltas)
    # 2^-16 is below every tabulated tolerance
    spec = ApproxSetSpec([Fraction(1, 1 << k) for k in range(16)])
    with pytest.raises(InvalidConfig, match="2\\^-16"):
        lorentz_bounds(spec, 14)


def test_lorentz_first_drop():
    spec = ApproxSetSpec([Fraction(1)] * 4 + [Fraction(1, 4)] + [Fraction(1, 1 << k) for k in range(3, 20)])
    # N_1 is the first index where delta drops to 1/2 or less
    from metrent.entropy import _n_index
    assert _n_index(spec, 1) == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=12, max_size=18),
       st.integers(min_value=0, max_value=8))
def test_lorentz_lower_le_upper(drops, n):
    # random admissible non-increasing sequence starting at 1
    deltas = [Fraction(1)]
    for d in drops:
        deltas.append(deltas[-1] / (1 << d))
    deltas += [deltas[-1] / (1 << 30)] * 2      # ensure tabulation depth
    spec = ApproxSetSpec(deltas)
    lo, hi = lorentz_bounds(spec, n)
    assert lo <= hi + 1e-12


def test_interval_cover_count():
    pts = [Fraction(k, 8) for k in range(9)]
    assert interval_cover_count(pts, Fraction(1, 2)) == 1
    assert interval_cover_count(pts, Fraction(1, 4)) == 2
    # each ball grabs three consecutive grid points, so three suffice
    assert interval_cover_count(pts, Fraction(1, 8)) == 3
    assert interval_cover_count(pts, Fraction(1, 16)) == 9
    assert interval_cover_count([Fraction(0)], Fraction(1, 16)) == 1


def _one_class_report(ks, n, u):
    """Dialog check of integer points ks (units 2^-u) under a program that
    answers "1" without a query, so every sample lands in one class."""
    names = [Name(lambda a: "") for _ in ks]
    return dialog_cover_experiment(names, ks, lambda ctx: ctx.emit("1"),
                                   const_time(4), lambda k: k, n,
                                   lambda a, b: abs(a - b), u)


def test_integer_dialog_check_within_the_radius():
    # 2^-2 units: 0 and 4 are 1 apart, and 1 = 2^-0 is inside the closed ball
    rep = _one_class_report([0, 4, 3], 0, 2)
    assert rep.class_sizes == [3] and rep.classes_observed == 1
    assert rep.max_class_dist == Fraction(1) and type(rep.max_class_dist) is Fraction
    assert _one_class_report([0, 1], 2, 2).max_class_dist == Fraction(1, 4)
    assert _one_class_report([5], 12, 2).max_class_dist == 0


@pytest.mark.parametrize("ks, n, u, shown", [
    ([0, 5], 0, 2, "5/4"),         # 5/4 > 2^-0
    ([0, 1], 3, 2, "1/4"),         # radius 2^-1 units: below the grid step
    ([7, 7, 0], 1, 0, "7"),
])
def test_integer_dialog_check_rejects_a_wide_class(ks, n, u, shown):
    with pytest.raises(ContractViolation,
                       match=rf"sample {len(ks) - 1} at distance {shown} > 2\^-{n}"):
        _one_class_report(ks, n, u)


def test_dialog_check_rejects_a_dialog_over_its_bound():
    # a run metered under the budget its bound came from cannot overrun the
    # bound, so this T changes between evaluations: the first, which fixes
    # the bound, is 1 (bound 6), and the run is metered under 100, where it
    # reads one 82-symbol answer and its dialog encodes to 166 symbols
    evaluations = iter([1])
    T = RunningTime(lambda l, n: next(evaluations, 100))

    def ask_once(ctx):
        ctx.ask("1")
        ctx.emit("1")

    with pytest.raises(ContractViolation,
                       match="dialog length 166 exceeds bound 6 at sample 0"):
        dialog_cover_experiment([Name(lambda a: "1" * 40)], [0], ask_once, T,
                                lambda k: k, 0, lambda a, b: abs(a - b), 0)


def test_dialog_check_meters_each_name_object_once(monkeypatch):
    # a list that repeats a name object and a list of fresh names of the
    # same points give the same report; the first meters each object once
    M = unit_interval_space()
    eq_prog, T_eq = equality_from_metric(cauchy_metric_program(M),
                                         cauchy_metric_time())
    budget = RunningTime(lambda lf, n: 8 * T_eq.bound(lf, n) + 8)
    ks = [3, 200, 3, 3, 77, 200, 256, 0]
    name = lambda k: cauchy_name(M, unit_interval_short_approx(Fraction(k, 256)))
    shared = {k: name(k) for k in set(ks)}
    repeated = [shared[k] for k in ks]
    fresh = [name(k) for k in ks]
    runs = []
    real = entropy.metered_run

    def spy(*args):
        runs.append(args[1])
        return real(*args)

    monkeypatch.setattr(entropy, "metered_run", spy)
    sizes = set()
    for n in range(9):
        run = lambda names: dialog_cover_experiment(
            names, ks, eq_prog, budget, lambda k: k, n, lambda a, b: abs(a - b), 8)
        runs.clear()
        report = run(repeated)
        assert len(runs) == len(shared)
        runs.clear()
        assert run(fresh) == report
        assert len(runs) == len(ks)
        sizes.add(report.classes_observed)
    assert len(sizes) > 1               # the classes split as n grows
