import pathlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as fr
from metrent import funcs
from metrent.funcs import (PiecewiseLinear, StepFn, approx_check, chi,
                           continuity_modulus, lp_modulus,
                           lp_modulus_shift_check, modulus_fn, p_power_dist,
                           shifted_p_power_dist, smooth, sup_dist_pl)
from metrent.strings import InvalidConfig


def rand_step(rnd, max_cuts=5, scale=4):
    cuts = sorted(rnd.sample([Fraction(k, 1 << scale) for k in range(1, 1 << scale)],
                             rnd.randrange(1, max_cuts)))
    cuts = [Fraction(0)] + cuts + [Fraction(1)]
    levels = [Fraction(rnd.randrange(-8, 9), 4) for _ in range(len(cuts) - 1)]
    return StepFn.build(cuts, levels)


def test_step_basics():
    f = chi(0, Fraction(1, 2))
    assert f(Fraction(1, 4)) == 1
    assert f(Fraction(1, 2)) == 0
    assert f.integral(0, 1) == Fraction(1, 2)
    assert f.integral(Fraction(1, 4), Fraction(3, 4)) == Fraction(1, 4)
    assert p_power_dist(f, StepFn.build([0, 1], [0]), 2) == Fraction(1, 2)


def test_pl_basics():
    f = PiecewiseLinear.build([0, Fraction(1, 2), 1], [0, 1, 0])
    assert f(Fraction(1, 4)) == Fraction(1, 2)
    assert f.sup_norm() == 1
    g = f.scaled(Fraction(-1, 2))
    assert sup_dist_pl(f, g) == Fraction(3, 2)


def _pl_value_by_scan(f: PiecewiseLinear, x: Fraction) -> Fraction:
    """Reference point evaluation: the first segment whose right end is
    >= x, found by linear scan."""
    if x < f.xs[0] or x > f.xs[-1]:
        return Fraction(0)
    for i in range(len(f.xs) - 1):
        if x <= f.xs[i + 1]:
            x0, x1 = f.xs[i], f.xs[i + 1]
            y0, y1 = f.ys[i], f.ys[i + 1]
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return Fraction(0)


eighths = st.integers(-12, 20).map(lambda k: Fraction(k, 8))


@settings(max_examples=80, deadline=None)
@given(st.lists(eighths, min_size=2, max_size=12, unique=True),
       st.lists(eighths, min_size=12, max_size=12),
       st.lists(st.integers(-40, 72).map(lambda k: Fraction(k, 32)), max_size=20))
def test_pl_call_matches_linear_scan(xs, ys, probes):
    xs = sorted(xs)
    f = PiecewiseLinear.build(xs, ys[:len(xs)])
    for x in probes + xs:
        assert f(x) == _pl_value_by_scan(f, x)


def _step_value_by_scan(f: StepFn, x: Fraction) -> Fraction:
    """Reference point evaluation: the first level whose right cut lies
    beyond x, found by linear scan."""
    if x < f.cuts[0] or x >= f.cuts[-1]:
        return Fraction(0)
    for i in range(len(f.levels)):
        if x < f.cuts[i + 1]:
            return f.levels[i]
    return Fraction(0)


@settings(max_examples=80, deadline=None)
@given(st.lists(eighths, min_size=2, max_size=12, unique=True),
       st.lists(eighths, min_size=11, max_size=11),
       st.lists(st.integers(-40, 72).map(lambda k: Fraction(k, 32)), max_size=20))
def test_step_call_matches_linear_scan(cuts, levels, probes):
    cuts = sorted(cuts)
    f = StepFn.build(cuts, levels[:len(cuts) - 1])
    for x in [*cuts, cuts[0] - 1, cuts[-1] + 1, *probes]:
        assert f(x) == _step_value_by_scan(f, x), x


def test_modulus_fn_extends_and_validates():
    mu = modulus_fn([0, 2, 2, 5])
    assert [mu(n) for n in range(7)] == [0, 2, 2, 5, 6, 7, 8]
    for bad in ([], [3, 1], [-1, 0], [0, 2, 1, 4]):
        with pytest.raises(ValueError):
            modulus_fn(bad)


@pytest.mark.parametrize("build, xs, ys, message", [
    (StepFn.build, [0, 1], [1, 2], "one more cut"),
    (StepFn.build, [0, 1, 1], [1, 2], "strictly increasing"),
    (PiecewiseLinear.build, [0, 1], [0], "matching"),
    (PiecewiseLinear.build, [0], [0], "matching"),
    (PiecewiseLinear.build, [0, 1, 1], [0, 1, 2], "strictly increasing"),
], ids=["step-levels", "step-cuts", "pl-values", "pl-single", "pl-breakpoints"])
def test_constructors_refuse_malformed_tables(build, xs, ys, message):
    with pytest.raises(ValueError, match=message):
        build(xs, ys)


def test_p_power_dist_linear_pieces():
    f = PiecewiseLinear.build([0, 1], [0, 1])     # f(x) = x
    z = StepFn.build([0, 1], [0])
    assert p_power_dist(f, z, 2) == Fraction(1, 3)
    assert p_power_dist(f, z, 1) == Fraction(1, 2)
    g = StepFn.build([0, 1], [Fraction(1, 2)])
    # |x - 1/2| integrates to 1/4, squares to 1/12
    assert p_power_dist(f, g, 1) == Fraction(1, 4)
    assert p_power_dist(f, g, 2) == Fraction(1, 12)


def test_shifted_p_power_dist():
    f = chi(0, Fraction(1, 2))
    # shifting by h slides two jumps: mass 2h
    assert shifted_p_power_dist(f, Fraction(1, 16), 1) == Fraction(2, 16)
    assert shifted_p_power_dist(f, Fraction(1, 16), 2) == Fraction(2, 16)


def test_smooth_examples():
    f = chi(0, Fraction(1, 2))
    A1 = smooth(f, 1)
    assert A1(Fraction(1, 2)) == Fraction(1, 2)    # 2 * (1/4)
    const = StepFn.build([0, 1], [Fraction(3, 4)])
    for m in (1, 2, 3):
        Am = smooth(const, m)
        w = Fraction(1, 1 << m)
        for x in (w, Fraction(1, 2), 1 - w):
            assert Am(x) == Fraction(3, 4)


def test_smooth_constant_average():
    f = StepFn.build([0, 1], [1])
    A = smooth(f, 3)
    assert A(Fraction(0)) == Fraction(1, 2)        # half the window sticks out
    assert A(Fraction(1, 2)) == 1


def test_lp_modulus_chi():
    f = chi(0, 1)
    for p in (1, 2):
        table = lp_modulus(f, p, 6)
        # shift distance is 2h, so mu(n) = np + 1 exactly
        assert table == [n * p + 1 for n in range(7)]


def test_approx_check_strict():
    rnd = random.Random(23)
    for p in (1, 2):
        for _ in range(20):
            f = rand_step(rnd)
            mu = modulus_fn(lp_modulus(f, p, 8))
            for n in (0, 2, 5, 8):
                ok, lhs, rhs = approx_check(f, mu, n, p)
                assert ok, (f, n, p, lhs, rhs)


def test_modulus_shift_property():
    rnd = random.Random(29)
    for p in (1, 2):
        for _ in range(8):
            f = rand_step(rnd)
            mu = modulus_fn(lp_modulus(f, p, 10))
            for m in (1, 2, 3):
                assert lp_modulus_shift_check(f, mu, m, up_to=4)


def test_continuity_modulus_pl():
    f = PiecewiseLinear.build([0, 1], [0, 1])
    table = continuity_modulus(f, 6)
    assert table == list(range(7))                 # slope one
    g = PiecewiseLinear.build([0, 1], [0, Fraction(1, 4)])
    assert continuity_modulus(g, 4) == [0, 0, 0, 1, 2]


def _continuity_modulus_reevaluating(f, up_to):
    """Reference modulus: osc evaluates f at both ends of every candidate
    pair and is recomputed for every n."""
    def osc(h):
        cands = set(f.xs)
        for x in f.xs:
            cands.add(x + h)
            cands.add(x - h)
        pts = sorted(c for c in cands if f.xs[0] <= c <= f.xs[-1])
        best = Fraction(0)
        for i, u in enumerate(pts):
            for v in pts[i:]:
                if v - u > h:
                    break
                best = max(best, abs(f(u) - f(v)))
        return best

    table = []
    m = 0
    for n in range(up_to + 1):
        target = Fraction(1, 1 << n)
        while osc(Fraction(1, 1 << m)) > target:
            m += 1
        table.append(m)
    return table


# breakpoints on dyadic and non-dyadic grids, spans that need not start at 0
# or fit in [0, 1], and non-dyadic values
breakpoints = st.builds(
    lambda start, den, ks: [start + Fraction(k, den) for k in sorted(ks)],
    st.integers(-8, 8).map(lambda k: Fraction(k, 8)), st.sampled_from([4, 12, 16]),
    st.lists(st.integers(0, 24), min_size=2, max_size=8, unique=True))
rationals = st.builds(Fraction, st.integers(-16, 16), st.sampled_from([1, 3, 4, 5, 8]))


@settings(max_examples=40, deadline=None)
@given(breakpoints, st.lists(rationals, min_size=8, max_size=8), st.integers(0, 24))
@example([0, Fraction(1, 2), 1], [0, 0, 0], 24)
@example([Fraction(1, 3), Fraction(5, 3)], [Fraction(-2, 5), Fraction(7, 3)], 24)
@example([Fraction(3, 8), Fraction(1, 2), Fraction(7, 8), Fraction(9, 4)],
         [Fraction(1, 3), Fraction(-1, 5), 0, Fraction(5, 4)], 24)
@example([Fraction(k, 16) for k in (0, 1, 2, 3, 5, 8, 13, 16)],
         [Fraction(y, 8) for y in (15, -13, 14, 0, -16, 9, 13, -15)], 24)
def test_continuity_modulus_matches_reevaluating_osc(xs, ys, up_to):
    f = PiecewiseLinear.build(xs, ys[:len(xs)])
    assert continuity_modulus(f, up_to) == _continuity_modulus_reevaluating(f, up_to)


def _lp_modulus_per_n(f, p, up_to):
    """Reference L^p-modulus: the worst shift distance at 2^-m recomputed
    for every n."""
    gaps = sorted({abs(a - b) for a in f.cuts for b in f.cuts if a != b})

    def worst(h):
        return max(shifted_p_power_dist(f, t, p) for t in [g for g in gaps if g <= h] + [h])

    table = []
    m = 0
    for n in range(up_to + 1):
        while worst(Fraction(1, 1 << m)) > Fraction(1, 1 << (n * p)):
            m += 1
        table.append(m)
    return table


@settings(max_examples=40, deadline=None)
@given(breakpoints, st.lists(rationals, min_size=7, max_size=7),
       st.sampled_from([1, 2, 3]), st.integers(0, 24))
@example([0, Fraction(1, 2), 1], [0, 0], 3, 24)
@example([Fraction(1, 3)], [], 2, 24)
@example([Fraction(-1, 3), Fraction(2, 3)], [Fraction(7, 5)], 2, 24)
@example([Fraction(3, 8), Fraction(1, 2), Fraction(7, 8), Fraction(9, 4)],
         [Fraction(1, 3), Fraction(-1, 5), Fraction(5, 4)], 1, 24)
@example([Fraction(k, 16) for k in (0, 1, 2, 5, 11, 16)],
         [Fraction(y, 4) for y in (8, -7, 3, -8, 5)], 3, 24)
def test_lp_modulus_matches_per_n_recomputation(cuts, levels, p, up_to):
    f = StepFn.build(cuts, levels[:len(cuts) - 1])
    assert lp_modulus(f, p, up_to) == _lp_modulus_per_n(f, p, up_to)


def test_moduli_strict_closed_form_bound():
    # each first row equals its closed form n*p + ceil(log2 rate) = 1 = m_w,
    # which is not strictly above m_w, so the search finds the smaller 0
    tent = PiecewiseLinear.build([0, Fraction(1, 2), 1], [0, 1, 0])
    assert continuity_modulus(tent, 4) == [0, 2, 3, 4, 5]
    half = StepFn.build([0, Fraction(1, 2), 1], [1, 0])
    assert lp_modulus(half, 2, 3) == [0, 3, 5, 7]


def test_lp_modulus_computes_each_shift_distance_once(monkeypatch):
    shifts = []

    def counted(f, t, p):
        shifts.append(t)
        return shifted_p_power_dist(f, t, p)

    monkeypatch.setattr(funcs, "shifted_p_power_dist", counted)
    rnd = random.Random(8)
    for scale in (2, 3, 2, 3, 2):
        pool = [Fraction(k, 1 << scale) for k in range(1, 1 << scale)]
        cuts = [Fraction(0)] + sorted(rnd.sample(pool, 2)) + [Fraction(1)]
        f = StepFn.build(cuts, [Fraction(rnd.randrange(-4, 5), 2) for _ in range(3)])
        shifts.clear()
        assert lp_modulus(f, 2, 16) == _lp_modulus_per_n(f, 2, 16)
        assert len(shifts) == len(set(shifts)), (f, sorted(shifts))


# ---------------------------------------------------------------------------
# golden modulus tables: C09- and C10-shaped corpora at up_to 24

MODULI_GOLDEN = pathlib.Path(__file__).parent / "data" / "moduli.golden"


def _c09_step_corpus():
    rnd = random.Random(9)
    out = []
    for _ in range(100):
        scale = rnd.randrange(2, 5)
        pool = [Fraction(k, 1 << scale) for k in range(1, 1 << scale)]
        cuts = [Fraction(0)] + sorted(rnd.sample(pool, min(3, len(pool)))) + [Fraction(1)]
        out.append(StepFn.build(cuts, [Fraction(rnd.randrange(-8, 9), 4)
                                       for _ in range(len(cuts) - 1)]))
    return out


def _c10_corpora():
    rnd = random.Random(10)
    pls = []
    for _ in range(25):
        scale = rnd.randrange(1, 4)
        grid = [Fraction(t, 1 << scale) for t in range((1 << scale) + 1)]
        pls.append(PiecewiseLinear.build(grid, [Fraction(rnd.randrange(-8, 9), 8)
                                                for _ in grid]))
    steps = []
    for _ in range(25):
        scale = rnd.randrange(2, 4)
        pool = [Fraction(k, 1 << scale) for k in range(1, 1 << scale)]
        cuts = [Fraction(0)] + sorted(rnd.sample(pool, min(2, len(pool)))) + [Fraction(1)]
        steps.append(StepFn.build(cuts, [Fraction(rnd.randrange(-4, 5), 2)
                                         for _ in range(len(cuts) - 1)]))
    return pls, steps


def _moduli_golden_text(up_to=24):
    """One line per table: which modulus, the function's breakpoints and
    values, then the table."""
    def line(kind, xs, ys, table):
        return (f"{kind} xs={','.join(map(str, xs))} ys={','.join(map(str, ys))}: "
                f"{' '.join(map(str, table))}\n")

    out = []
    for f in _c09_step_corpus():
        for p in (1, 2):
            out.append(line(f"c09 lp p={p}", f.cuts, f.levels, lp_modulus(f, p, up_to)))
    pls, steps = _c10_corpora()
    for f in pls:
        out.append(line("c10 continuity", f.xs, f.ys, continuity_modulus(f, up_to)))
    for f in steps:
        out.append(line("c10 lp p=2", f.cuts, f.levels, lp_modulus(f, 2, up_to)))
    return "".join(out)


def test_moduli_match_golden_bytes():
    assert _moduli_golden_text().encode() == MODULI_GOLDEN.read_bytes()


# ---------------------------------------------------------------------------
# the integer carriers against the Fraction bodies they replaced
# (tests/fraction_reference.py), on dyadic and non-dyadic grids, negative
# values, spans that need not meet, and pairs over different denominators

def pl_from(xs, ys):
    return PiecewiseLinear.build(xs, ys[:len(xs)])


def step_from(cuts, levels):
    return StepFn.build(cuts, levels[:len(cuts) - 1])


pls = st.builds(pl_from, breakpoints, st.lists(rationals, min_size=8, max_size=8))
steps = st.builds(step_from, breakpoints, st.lists(rationals, min_size=7, max_size=7))
probes = st.lists(st.builds(Fraction, st.integers(-80, 80), st.sampled_from([1, 3, 16, 48])),
                  max_size=12)

THIRDS = pl_from([Fraction(1, 3), Fraction(5, 3)], [Fraction(-2, 5), Fraction(7, 3)])
FIFTHS = pl_from([Fraction(3, 8), Fraction(1, 2), Fraction(7, 8), Fraction(9, 4)],
                 [Fraction(1, 3), Fraction(-1, 5), 0, Fraction(5, 4)])
THIRD_STEP = step_from([Fraction(-1, 3), Fraction(2, 3)], [Fraction(7, 5)])
# a ramp through zero inside its one segment, against zero
RAMP = pl_from([0, 1], [-1, 1])
ZERO = StepFn.build([0, 1], [0])
# spans that do not meet
LEFT = pl_from([-2, -1], [1, Fraction(-1, 5)])
RIGHT_STEP = step_from([Fraction(5, 4), Fraction(3, 2)], [-3])
# a single cut: no levels, so a sweep of it against itself has no piece
POINT = StepFn.build([Fraction(1, 3)], [])


@settings(max_examples=80, deadline=None)
@given(st.one_of(pls, steps), probes)
@example(THIRDS, [Fraction(1, 3), Fraction(1, 2), 1])
@example(FIFTHS, [Fraction(-1, 5), Fraction(2, 3)])
@example(THIRD_STEP, [Fraction(-1, 3), 0, Fraction(2, 3)])
def test_call_and_integral_match_the_fraction_bodies(f, xs):
    g = fr.ref(f)
    for x in xs:
        assert f(x) == g(x), x
    if isinstance(f, StepFn):
        for a in xs:
            for b in xs[:4]:
                assert f.integral(a, b) == g.integral(a, b), (a, b)
        assert f.jump_sizes() == g.jump_sizes()
    else:
        assert f.sup_norm() == g.sup_norm()


@settings(max_examples=80, deadline=None)
@given(pls, pls)
@example(THIRDS, FIFTHS)
@example(LEFT, THIRDS)
@example(RAMP, RAMP.scaled(Fraction(-1, 3)))
def test_sup_dist_pl_matches_the_fraction_body(f, g):
    assert sup_dist_pl(f, g) == fr.sup_dist_pl(fr.ref(f), fr.ref(g))


@settings(max_examples=80, deadline=None)
@given(st.one_of(pls, steps), st.one_of(pls, steps), st.sampled_from([1, 2, 3]))
@example(RAMP, ZERO, 1)
@example(RAMP, ZERO, 2)
@example(RAMP, ZERO, 3)
@example(THIRDS, FIFTHS, 3)
@example(LEFT, RIGHT_STEP, 2)
@example(THIRD_STEP, FIFTHS, 1)
@example(POINT, POINT, 2)
def test_p_power_dist_matches_the_fraction_body(f, g, p):
    assert p_power_dist(f, g, p) == fr.p_power_dist(fr.ref(f), fr.ref(g), p)


def test_p_power_dist_corners():
    # |2x - 1| on [0, 1]: two triangles, sign change at 1/2
    assert [p_power_dist(RAMP, ZERO, p) for p in (1, 2, 3)] == \
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    # the distances of a continuous carrier and a step function whose spans
    # do not meet add up, and an empty sweep is zero
    tent = pl_from([-2, Fraction(-3, 2), -1], [0, Fraction(-1, 5), 0])
    for p in (1, 2):
        assert p_power_dist(tent, RIGHT_STEP, p) == \
            p_power_dist(tent, ZERO, p) + p_power_dist(RIGHT_STEP, ZERO, p)
    assert p_power_dist(POINT, POINT, 2) == 0
    assert sup_dist_pl(LEFT, THIRDS) == Fraction(7, 3)


def test_distances_count_the_jump_at_a_span_end():
    # 1 on [0, 1], zero elsewhere: it jumps at 0 and at 1
    box = pl_from([0, 1], [1, 1])
    # 1 on [-1, 0), where box is zero, and box itself on [0, 1]
    wide = pl_from([-1, 0, 1], [1, 1, 1])
    # x + 1 on [-1, 0], rising to box's value at 0
    ramp = pl_from([-1, 0, 1], [0, 1, 1])
    # 1 on [1, 2]: box and it differ by 1 on [0, 2] except at 1
    after = pl_from([1, 2], [1, 1])
    for p in (1, 2, 3):
        assert p_power_dist(StepFn.build([-1, 1], [0]), box, p) == 1
        assert p_power_dist(wide, box, p) == 1
        assert p_power_dist(box, after, p) == 2
        # the integral of (x + 1)^p over [-1, 0]
        assert p_power_dist(ramp, box, p) == Fraction(1, p + 1)
    # |ramp - box| tends to 1 as x rises to 0, and is 0 at 0 itself
    assert sup_dist_pl(ramp, box) == sup_dist_pl(box, ramp) == 1
    assert sup_dist_pl(box, after) == 1


def test_constructors_read_floats_and_decimals_exactly():
    f = StepFn((0.0, 0.5, Decimal("0.75")), (1.5, -2))
    assert f == StepFn.build([0, Fraction(1, 2), Fraction(3, 4)], [Fraction(3, 2), -2])
    assert f.cuts == (0, Fraction(1, 2), Fraction(3, 4))
    g = PiecewiseLinear((Decimal("-0.25"), 1), (0.125, Fraction(1, 3)))
    assert (g.xs, g.ys) == ((Fraction(-1, 4), 1), (Fraction(1, 8), Fraction(1, 3)))
    assert g(0.375) == Fraction(1, 8) + Fraction(5, 24) * Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(steps, st.integers(0, 6))
@example(THIRD_STEP, 0)
@example(POINT, 2)
@example(step_from([Fraction(-1, 5), Fraction(1, 3), Fraction(9, 8)],
                   [Fraction(-2, 3), Fraction(5, 4)]), 3)
def test_smooth_matches_the_fraction_body(f, m):
    g, h = smooth(f, m), fr.smooth(fr.ref(f), m)
    assert (g.xs, g.ys) == (h.xs, h.ys)


@settings(max_examples=30, deadline=None)
@given(pls, st.integers(0, 16))
@example(THIRDS, 16)
@example(FIFTHS, 16)
def test_continuity_modulus_matches_the_fraction_body(f, up_to):
    assert continuity_modulus(f, up_to) == fr.continuity_modulus(fr.ref(f), up_to)


@settings(max_examples=30, deadline=None)
@given(steps, st.sampled_from([1, 2, 3]), st.integers(0, 16))
@example(THIRD_STEP, 2, 16)
@example(POINT, 1, 4)
def test_lp_modulus_matches_the_fraction_body(f, p, up_to):
    assert lp_modulus(f, p, up_to) == fr.lp_modulus(fr.ref(f), p, up_to)


@settings(max_examples=60, deadline=None)
@given(st.one_of(pls, steps), st.integers(1, 6), st.integers(1, 5))
def test_equal_carriers_at_any_scale_compare_and_hash_equal(f, shift, factor):
    # the same function written over a larger denominator, in integers
    k = factor << shift
    twin = type(f)._of([a * k for a in f._x], f._d * k, [v * 3 for v in f._y], f._yd * 3)
    assert twin == f and hash(twin) == hash(f)
    assert (twin._x, twin._d, twin._y, twin._yd) == (f._x, f._d, f._y, f._yd)
    fields = (f.xs, f.ys) if isinstance(f, PiecewiseLinear) else (f.cuts, f.levels)
    assert len({f, twin, type(f)(*fields)}) == 1
    if any(f._y):
        other = type(f)._of(f._x, f._d, [v * 2 for v in f._y], f._yd)
        assert other != f


def test_carrier_denominators_are_least():
    f = PiecewiseLinear.build([0, Fraction(1, 2), 1], [Fraction(2, 4), 1, 0])
    assert (f._x, f._d, f._y, f._yd) == ((0, 1, 2), 2, (1, 2, 0), 2)
    assert (THIRDS._x, THIRDS._d) == ((1, 5), 3)
    assert (THIRDS._y, THIRDS._yd) == ((-6, 35), 15)
    assert f.xs == (0, Fraction(1, 2), 1) and type(f.ys[0]) is Fraction


@pytest.mark.parametrize("build, xs, ys", [
    (StepFn.build, [0, 1], [1, 2]),
    (StepFn.build, [0, Fraction(1, 3), Fraction(1, 3)], [1, 2]),
    (StepFn.build, [Fraction(1, 5), Fraction(-1, 5)], [1]),
    (PiecewiseLinear.build, [0, 1], [0]),
    (PiecewiseLinear.build, [Fraction(2, 3), Fraction(1, 3)], [0, 1]),
    (PiecewiseLinear.build, [0, Fraction(1, 2), Fraction(2, 4)], [0, 1, 2]),
])
def test_malformed_tables_are_invalid_config(build, xs, ys):
    with pytest.raises(InvalidConfig):
        build(xs, ys)
