import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from metrent.compact import _q_node, q_seq
from metrent.entropy import ContractViolation
from metrent.funcs import PiecewiseLinear, StepFn, chi, p_power_dist
from metrent.banach import (BanachReprParams, banach_name, coeff_query,
                            combo_query, fs_vector)
from metrent.machine import exp_max_time
from metrent.funcs import _over
from metrent.schauder import (FSSystem, HaarSystem, RootSum, _cell_hats,
                              _enclosure_nums, _grid_hats, _haar_pyramid,
                              _hat_nodes, _hat_num, _iroot, _pow2_floor,
                              _pow_bounds,
                              _round_enclosure, _round_root, chi_expand,
                              fs_elem,
                              fs_nonzero_indices, fs_partial_sum_pl,
                              fs_separation, haar_coeffs, haar_eval, haar_gen,
                              haar_integral, haar_scale_exp, haar_support,
                              step_from_haar)
from metrent.strings import decode_int, round_half_away

import fraction_reference as fr
from fraction_reference import (_split_exp, _tight_bounds, frac_root_bounds,
                                fs_coeff, fs_coeffs, fs_eval, fs_halfwidth,
                                haar_stepform, norm_answer, pow2_bounds,
                                sup_error)


def test_fs_eval_examples():
    assert fs_eval(2, Fraction(1, 2)) == 1
    assert fs_eval(2, Fraction(1, 4)) == Fraction(1, 2)
    for x in (Fraction(0), Fraction(1, 3), Fraction(7, 8), Fraction(1)):
        assert fs_eval(0, x) == 1 - x
        assert fs_eval(1, x) == x


def test_fs_coeffs_examples():
    ident = lambda x: x
    lams = fs_coeffs(ident, 8)
    assert lams == [0, 1] + [0] * 6
    e3 = lambda x: fs_eval(3, x)
    lams = fs_coeffs(e3, 8)
    assert lams == [0, 0, 0, 1, 0, 0, 0, 0]
    parab = lambda x: x * (1 - x)
    lams = fs_coeffs(parab, 4)
    assert lams[2] == Fraction(1, 4)


def _fs_partial_sum_eval(lams, x) -> Fraction:
    """Pointwise reference for the hat partial sum: sum of lam_i e_i(x)."""
    x = Fraction(x)
    return sum((lam * fs_eval(i, x) for i, lam in enumerate(lams) if lam),
               Fraction(0))


def test_fs_partial_sum_interpolates():
    parab = lambda x: Fraction(x) * (1 - Fraction(x))
    for k in (1, 2, 3):
        lams = fs_coeffs(parab, (1 << k) + 1)
        for j in range((1 << k) + 1):
            assert _fs_partial_sum_eval(lams, q_seq(j)) == parab(q_seq(j))


def test_fs_reconstructs_piecewise_linear():
    rnd = random.Random(31)
    for k in (2, 3, 5):
        grid = [Fraction(t, 1 << k) for t in range((1 << k) + 1)]
        ys = [Fraction(rnd.randrange(-16, 17), 8) for _ in grid]
        f = PiecewiseLinear.build(grid, ys)
        lams = fs_coeffs(f, (1 << k) + 1)
        assert sup_error(f, lams) == 0


def test_fs_parabola_level_errors():
    parab = lambda x: Fraction(x) * (1 - Fraction(x))
    # exact per-level sup errors of the interpolant: 2^(-2k-2) at level k
    for k in (1, 2, 3, 4):
        lams = fs_coeffs(parab, (1 << k) + 1)
        pl = fs_partial_sum_pl(lams)
        worst = Fraction(0)
        for t in range(1 << k):
            a, b = Fraction(t, 1 << k), Fraction(t + 1, 1 << k)
            mid = (a + b) / 2
            worst = max(worst, abs(parab(mid) - pl(mid)))
        assert worst == Fraction(1, 1 << (2 * k + 2))


def test_fs_unit_vectors():
    for j in range(16):
        e = fs_elem(j)
        lams = fs_coeffs(e, 16)
        assert lams == [Fraction(i == j) for i in range(16)]


def test_fs_nonzero_indices():
    for x in (Fraction(1, 3), Fraction(5, 8), Fraction(0), Fraction(1, 2)):
        idx = set(fs_nonzero_indices(x, 64))
        truth = {i for i in range(64) if fs_eval(i, x) > 0}
        assert idx == truth


def _fs_nonzero_indices_fraction(x, count):
    """Reference index search: per generation, the Fraction loop that
    tests each candidate hat with fs_eval."""
    x = Fraction(x)
    out = [i for i in (0, 1) if i < count and fs_eval(i, x) > 0]
    g = 1
    while (1 << (g - 1)) + 1 < count:
        w = Fraction(1, 1 << g)
        lo = 1 << (g - 1)
        hi = min((1 << g), count - 1)
        k0 = int(x / (2 * w))
        for c in (2 * k0 - 1, 2 * k0 + 1, 2 * k0 + 3):
            if c < 1 or c * w >= 1 or c * w <= 0:
                continue
            i = lo + (c + 1) // 2
            if lo <= i <= hi and fs_eval(i, x) > 0:
                out.append(i)
        g += 1
    return sorted(set(out))


# dyadic and non-dyadic points in [-2, 3], so negative and > 1 too
search_points = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3),
                     Fraction(4, 3), Fraction(-1), Fraction(2)]),
    st.builds(lambda n, s: Fraction(n, 1 << s), st.integers(-(1 << 12), 3 << 12),
              st.integers(0, 12)),
    st.fractions(min_value=-2, max_value=3, max_denominator=10 ** 6))
search_counts = st.one_of(st.integers(0, 70), st.integers(0, 1 << 40),
                          st.integers(0, 40).map(lambda e: 1 << e),
                          st.integers(0, 40).map(lambda e: (1 << e) + 1))


@settings(max_examples=200, deadline=None)
@given(search_points, search_counts)
@example(Fraction(3, 8), 6)             # the hat one past count - 1
def test_fs_nonzero_indices_matches_fraction_loop(x, count):
    assert fs_nonzero_indices(x, count) == _fs_nonzero_indices_fraction(x, count)


def test_fs_nonzero_indices_evaluates_only_boundary_hats(monkeypatch):
    import metrent.schauder as schauder
    calls = []
    hat_num = schauder._hat_num

    def counting(i, a, d):
        calls.append(i)
        return hat_num(i, a, d)

    monkeypatch.setattr(schauder, "_hat_num", counting)
    for x in (Fraction(1, 3), Fraction(5, 8), Fraction(-1, 7), Fraction(9, 4)):
        calls.clear()
        schauder.fs_nonzero_indices(x, 1 << 40)
        assert len(calls) <= 2 and set(calls) <= {0, 1}


def _cell_hats_unbounded(x, count):
    """Reference generation loop without the early stop: every generation
    below count is divided out."""
    p, q = x.numerator, x.denominator
    half = 1
    while half + 1 < count:
        k, r = divmod(p * half, q)
        if r and 0 <= k < half and half + k + 1 < count:
            yield half + k + 1
        half <<= 1


@settings(max_examples=300, deadline=None)
@given(search_points,
       st.one_of(st.integers(0, 70), st.integers(0, 1 << 64),
                 st.integers(0, 64).map(lambda e: 1 << e),
                 st.integers(0, 64).map(lambda e: (1 << e) + 1)))
@example(Fraction(3, 8), 1 << 64)       # stops after generation 3
@example(Fraction(-5, 3), 1 << 64)      # never stops early
def test_cell_hats_early_stop_matches_the_unbounded_loop(x, count):
    assert list(_cell_hats(x, count)) == list(_cell_hats_unbounded(x, count))


def test_hat_value_core_matches_the_fraction_formula():
    # the points a/96 and a/7, unreduced, against
    # max(1 - |x - q_i| / halfwidth, 0) in Fractions
    for i in range(40):
        for d in (96, 7):
            for a in range(-d, 2 * d + 1):
                x = Fraction(a, d)
                want = max(1 - abs(x - q_seq(i)) / fs_halfwidth(i), Fraction(0))
                assert Fraction(_hat_num(i, a, d), d) == want == fs_eval(i, x)


def test_fs_separation_value():
    # every pair of hats has a point where one peaks and the other vanishes
    alpha = fs_separation(16)
    assert alpha == 1


def test_haar_eval_examples():
    p = Fraction(2)
    s, e = haar_eval(0, p, Fraction(1, 3))
    assert (s, e) == (1, 0)
    # basis index 1 (node 1/2): +1 on [0,1/2), -1 on [1/2,1], exponent 0
    assert haar_eval(1, p, Fraction(1, 4)) == (1, 0)
    assert haar_eval(1, p, Fraction(1, 2))[0] == -1
    lo, q, hi = haar_support(4)
    assert (lo, q, hi) == (Fraction(0), Fraction(1, 8), Fraction(1, 4))
    assert haar_eval(4, p, Fraction(1, 2))[0] == 0


def test_haar_integral_examples():
    # step-form integral over the left half-support of the element at node
    # j; f_{k,p} scales it by 2^haar_scale_exp(k, p)
    for j in (2, 3, 5, 9):
        k = j - 1
        lo, q, hi = haar_support(k)
        v = haar_integral(k, lo, q)
        g = haar_gen(k)
        assert v == Fraction(1, 1 << g)
        # the reversed interval integrates to the negated value
        assert haar_integral(k, q, lo) == -v
        for p in (Fraction(1), Fraction(2), Fraction(3)):
            assert haar_scale_exp(k, p) == Fraction(g - 1) / p
        # at p = 1 the integral is exactly 2^(-1/p)
        assert v * (1 << int(haar_scale_exp(k, Fraction(1)))) == Fraction(1, 2)
    # whole-line integrals vanish for every index above zero
    for k in range(1, 20):
        assert haar_integral(k, 0, 1) == 0
    # plain area for the first element, whose scale is 2^0 for every p
    assert haar_integral(1, 0, Fraction(1, 2)) == Fraction(1, 2)
    assert haar_scale_exp(1, Fraction(7, 3)) == 0


def test_haar_triangularity():
    # integral of element k over the left half-support at node j vanishes
    # whenever k > j - 1
    for j in range(2, 33):
        lo, q, _ = haar_support(j - 1)
        for k in range(j, 33):
            assert haar_integral(k, lo, q) == 0


def test_haar_unit_norms():
    for p in (1, 2, 3):
        system = HaarSystem(Fraction(p))
        for k in range(65):
            total = system.norm_power(system.combo_pieces([0] * k + [1], 1))
            assert total.terms == {0: total.den}, (k, p)


def test_haar_coeffs_examples():
    f0 = StepFn.build([0, 1], [1])
    assert haar_coeffs(f0, 8) == [1] + [0] * 7
    f = chi(0, Fraction(1, 2))
    c = haar_coeffs(f, 8)
    assert c[:2] == [Fraction(1, 2), Fraction(1, 2)]
    assert all(v == 0 for v in c[2:])
    # so f = (f_0 + f_1) / 2 for every p: f_1 has scale 2^0
    for p in (Fraction(1), Fraction(2), Fraction(3, 2)):
        assert [HaarSystem(p).coeff_int(c, k, 2) for k in range(2)] == [1, 1]


def _rounds_coeff(y: int, p: Fraction, lam: Fraction, i: int, scale: int) -> bool:
    """Whether y is round(lam_i scale), ties away from zero, for the
    step-form coefficient lam of index i: lam scale 2^-haar_scale_exp(i, p)."""
    return fr.rounds_root(y, lam.numerator * scale, -haar_scale_exp(i, p),
                          lam.denominator)


def test_haar_coeff_int_is_zero_past_the_list():
    p = Fraction(3, 2)
    c = haar_coeffs(chi(0, Fraction(1, 4)), 4)
    system = HaarSystem(p)
    for k in range(4):
        assert _rounds_coeff(system.coeff_int(c, k, 1000), p, c[k], k, 1000)
    for k in (4, 5, 100):
        assert system.coeff_int(c, k, 1000) == 0


def _fs_coeffs_loop(f, up_to):
    # the expansion written out as one loop over the midpoint deviations
    out = []
    for j in range(up_to):
        if j < 2:
            out.append(Fraction(f(Fraction(j))))
        else:
            q, w = q_seq(j), fs_halfwidth(j)
            out.append(Fraction(f(q)) - (Fraction(f(q - w)) + Fraction(f(q + w))) / 2)
    return out


def _haar_stepforms_loop(f, up_to):
    # the step-form coefficients written out as one loop over the local
    # integral differences
    out = [f.integral(0, 1)]
    for k in range(1, up_to):
        left, q, right = haar_support(k)
        diff = f.integral(left, q) - f.integral(q, right)
        out.append(diff * (1 << (haar_gen(k) - 1)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4), st.integers(1, 40))
def test_single_coefficients_match_the_list_builders(seed, scale, up_to):
    rnd = random.Random(seed)
    grid = [Fraction(t, 1 << scale) for t in range((1 << scale) + 1)]
    f = PiecewiseLinear.build(grid, [Fraction(rnd.randrange(-8, 9), 8) for _ in grid])
    lams = fs_coeffs(f, up_to)
    assert lams == [fs_coeff(f, j) for j in range(up_to)] == _fs_coeffs_loop(f, up_to)
    inner = sorted(rnd.sample(grid[1:-1], min(2, len(grid) - 2)))
    g = StepFn.build([Fraction(0), *inner, Fraction(1)],
                     [Fraction(rnd.randrange(-8, 9), 4) for _ in range(len(inner) + 1)])
    assert haar_coeffs(g, up_to) == [haar_stepform(g.integral, k) for k in range(up_to)] \
        == _haar_stepforms_loop(g, up_to)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.integers(1, 70))
@example(0, 0, 1)
def test_integer_stencils_match_the_fraction_formulas(seed, scale, up_to):
    # _grid_hats on a carrier's grid values against fs_coeff on its Fraction
    # twin, and haar_coeffs on integrals against haar_stepform, with
    # non-dyadic and negative values and cuts off the unit interval
    rnd = random.Random(seed)
    d = 1 << scale
    ys = [Fraction(rnd.randrange(-9, 10), rnd.choice([1, 3, 5, 8])) for _ in range(d + 1)]
    f = PiecewiseLinear.build([Fraction(t, d) for t in range(d + 1)], ys)
    vals, den = f._at(1, range(d + 1))
    assert [Fraction(a, 2 * den) for a in _grid_hats(vals, scale, d + 1)] == \
        fs_coeffs(fr.ref(f), d + 1)
    assert fs_vector(f) == fs_coeffs(fr.ref(f), d + 1)
    cuts = sorted({Fraction(rnd.randrange(-4, 3 * d), 2 * d) for _ in range(4)}
                  | {Fraction(1, 3)})
    g = StepFn.build(cuts, [Fraction(rnd.randrange(-9, 10), rnd.choice([1, 3, 4]))
                            for _ in cuts[1:]])
    assert haar_coeffs(g, up_to) == fr.haar_coeffs(g, up_to)


def test_fs_elem_nodes_are_the_hat_values():
    for i in range(40):
        e = fs_elem(i)
        assert e.ys == tuple(fs_eval(i, x) for x in e.xs)
        for t in range(33):
            assert e(Fraction(t, 32)) == fs_eval(i, Fraction(t, 32)), (i, t)


def test_haar_unit_vector_stepform():
    # the sign pattern of basis element k has step-form coefficients
    # equal to the unit vector at k
    for k in range(1, 16):
        lo, q, hi = haar_support(k)
        pattern = StepFn.build([lo, q, hi], [1, -1])
        assert haar_coeffs(pattern, 16) == [Fraction(i == k) for i in range(16)]


def test_haar_reconstruction():
    rnd = random.Random(37)
    for _ in range(20):
        cuts = [Fraction(0)] + sorted(rnd.sample(
            [Fraction(k, 16) for k in range(1, 16)], 3)) + [Fraction(1)]
        levels = [Fraction(rnd.randrange(-8, 9), 4) for _ in range(4)]
        f = StepFn.build(cuts, levels)
        rec = step_from_haar(haar_coeffs(f, 32))
        assert p_power_dist(rec, f, 1) == 0


def test_chi_expand():
    z = chi_expand(0, 0)
    assert all(c == 0 for c in z)
    e = chi_expand(0, 2)         # indicator of [0, 1/2]
    assert e[:2] == [Fraction(1, 2), Fraction(1, 2)]
    with pytest.raises(ValueError, match="q_i <= q_j"):
        chi_expand(1, 2)         # q_1 = 1 > q_2 = 1/2
    rnd = random.Random(41)
    for _ in range(25):
        i, j = rnd.randrange(13), rnd.randrange(13)
        if q_seq(i) > q_seq(j):
            i, j = j, i
        exp = chi_expand(i, j)
        # integral identity against the exact indicator on a 2^-5 grid
        ind = None if q_seq(i) == q_seq(j) else StepFn.build([q_seq(i), q_seq(j)], [1])
        for t in range(32):
            a, b = Fraction(t, 32), Fraction(t + 1, 32)
            total = Fraction(0)
            # lam_k 2^(-e) times the integral's 2^e: step forms multiply
            total = sum((c * haar_integral(k, a, b) for k, c in enumerate(exp) if c),
                        Fraction(0))
            expect = ind.integral(a, b) if ind is not None else Fraction(0)
            assert total == expect
        assert all(exp[k] == 0 for k in range(max(i, j), len(exp)))


def _haar_integral_fraction(k, a, b):
    """Reference: the sign-pattern integral from the Fraction support."""
    if b < a:
        return -_haar_integral_fraction(k, b, a)
    if k == 0:
        return max(min(b, Fraction(1)) - max(a, Fraction(0)), Fraction(0))
    left, q, right = haar_support(k)
    pos = max(min(b, q) - max(a, left), Fraction(0))
    neg = max(min(b, right) - max(a, q), Fraction(0))
    return pos - neg


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), search_points, search_points)
def test_haar_integral_matches_the_fraction_formula(k, a, b):
    assert haar_integral(k, a, b) == _haar_integral_fraction(k, a, b)


@st.composite
def root_terms(draw):
    """(u, {exponent: coefficient}) with exponents +-(g-1)/p, 0 among them,
    for integer and non-integer p = u/v, signed coefficients, and optionally
    a pair c 2^(e+1), -2c 2^e that cancels once normalized."""
    p = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3)]))
    exps = st.builds(lambda g, s: s * Fraction(g) / p, st.integers(0, 12),
                     st.sampled_from([1, -1]))
    coefs = st.builds(Fraction, st.integers(-(1 << 40), 1 << 40), st.integers(1, 10 ** 4))
    terms = draw(st.dictionaries(exps, coefs, max_size=5))
    if draw(st.booleans()):
        e, c = draw(exps), draw(coefs)
        terms.pop(e, None)
        terms.pop(e + 1, None)
        terms.update({e + 1: c, e: -2 * c})
    return p.numerator, terms


def _integer_terms(terms, u):
    """(C, den): sum of c 2^e = sum (C_j / den) 2^(j/u) over the fractional
    parts j/u, 0 <= j < u, of the exponents."""
    split = {e: _split_exp(e) for e in terms}
    den = math.lcm(*(c.denominator for c in terms.values())) << max(
        [0, *(-shift for shift, _ in split.values())])
    out = {}
    for e, c in terms.items():
        shift, f = split[e]
        j = f * u
        assert j.denominator == 1
        out[int(j)] = out.get(int(j), 0) + int(c * den * Fraction(2) ** shift)
    return out, den


@settings(max_examples=300, deadline=None)
@given(root_terms(), st.sampled_from([4, 16]))
@example((1, {Fraction(0): Fraction(3, 7)}), 4)      # 2^0 is not enclosed exactly
@example((2, {Fraction(1, 2): Fraction(1), Fraction(3, 2): Fraction(-1, 2)}), 4)
def test_round_enclosure_matches_the_rootsum_enclosure(u_terms, w):
    u, terms = u_terms
    C, den = _integer_terms(terms, u)
    ring = fr.RootSum(terms)
    want = round_half_away(sum(_tight_bounds(ring.bounds, Fraction(1, 1 << w))) / 2)
    assert _round_enclosure(lambda prec: _enclosure_nums(C, u, prec), den, w) == want
    for prec in (8, 24, 30, 48):
        lo, hi = ring.bounds(prec)
        assert (Fraction(_enclosure_nums(C, u, prec)[0], den << prec),
                Fraction(_enclosure_nums(C, u, prec)[1], den << prec)) == (lo, hi)
        # the integer ring's enclosure over its own denominator is the same
        lo2, hi2 = RootSum(u, C, den).bounds(prec)
        assert (Fraction(lo2, den << prec), Fraction(hi2, den << prec)) == (lo, hi)


@st.composite
def one_term(draw):
    """(c, j, u, den) for the one-term sum c 2^(j/u) / den: a signed c, 0
    among them, or one of the two c whose sums lie either side of a
    half-integer."""
    u = draw(st.sampled_from([1, 2, 3, 5]))
    j, den = draw(st.integers(0, u - 1)), draw(st.integers(1, 1 << 60))
    if draw(st.booleans()):
        return draw(st.just(0) | st.integers(-(1 << 80), 1 << 80)), j, u, den
    # c0 = floor((t + 1/2) den / 2^(j/u)), so c0 and c0 + 1 straddle t + 1/2
    t = draw(st.integers(0, 1 << 40))
    c0 = _iroot(((2 * t + 1) * den) ** u >> (u + j), u)
    return (c0 + draw(st.integers(0, 1))) * draw(st.sampled_from([1, -1])), j, u, den


@settings(max_examples=400, deadline=None)
@given(one_term())
@example((476042457, 1, 2, 2747860 << 1))      # 122.4999998..., which rounds to 122
@example((3, 0, 1, 2))                          # ties round away from zero
@example((-3, 0, 1, 2))
@example((0, 2, 3, 7))
def test_round_root_is_the_exact_rounding(term):
    c, j, u, den = term
    assert fr.rounds_root(_round_root(c, j, u, den), c, Fraction(j, u), den)


def test_haar_coefficients_round_exactly_near_a_half():
    # lam_2 = c_2 / sqrt(2) = 122.4999998..., which rounds to 122, through
    # the system and through a Haar name's coefficient branch
    c = [0, 0, Fraction(476042457, 2747860)]
    system = HaarSystem(Fraction(2))
    assert system.coeff_int(c, 2, 1) == 122
    phi = banach_name(c, BanachReprParams(S=exp_max_time()), system, lambda n: n + 4)
    assert decode_int(phi(coeff_query(2, 0, 0))) == 122


def _ring_value(v: RootSum) -> dict:
    """A RootSum as the Fraction ring's normalized terms {j/u: C_j/den}."""
    return {Fraction(j, v.u): Fraction(c, v.den) for j, c in v.terms.items()}


def test_rootsum_ring():
    a = RootSum(2, {1: 1}, 1)                     # sqrt(2)
    b = RootSum(2, {1: -1}, 1)
    assert a.times(a).terms == {0: 2} and a.times(b).terms == {0: -2}
    assert a.sign() == 1 and b.sign() == -1 and b.abs().terms == a.terms
    assert RootSum(2, {0: 0, 1: 0}, 5).sign() == 0
    # a product's index past u carries into a shift: 2^(2/3) 2^(2/3) = 2 2^(1/3)
    c = RootSum(3, {2: 3}, 4)
    sq = c.times(c)
    assert (sq.terms, sq.den) == ({1: 18}, 16)
    assert _ring_value(c.power(3)) == fr.RootSum({Fraction(2, 3): Fraction(3, 4)}).power(3).terms
    # sqrt(2) - 1.414213 is about 5.6e-7: the first enclosure, at precision
    # 8, straddles 0, and sign refines it
    near = RootSum(2, {1: 10 ** 6, 0: -1414213}, 10 ** 6)
    lo, hi = near.bounds(8)
    assert lo < 0 < hi
    assert near.sign() == 1 and near.abs() is near
    assert RootSum(2, {1: -10 ** 6, 0: 1414213}, 10 ** 6).abs().terms == near.terms
    lo, hi = a.bounds(30)
    assert lo <= Fraction(1414213562, 10 ** 9) * (1 << 30) <= hi == lo + 1


def test_pow2_and_root_bounds():
    lo, hi = pow2_bounds(Fraction(3, 2), 20)
    assert lo <= Fraction(2828427124, 10 ** 9) <= hi
    t = _pow2_floor(1, 2, 20)
    assert (Fraction(2 * t, 1 << 20), Fraction(2 * t + 2, 1 << 20)) == (lo, hi)
    assert RootSum(2, {1: 2}, 1).bounds(20) == (2 * t, 2 * t + 2)
    # j/u and its lowest terms floor the same power
    assert _pow2_floor(2, 4, 20) == t and _pow2_floor(0, 3, 20) == 1 << 20
    lo, hi = frac_root_bounds(Fraction(2), 2, 30)
    assert lo * lo <= 2 <= hi * hi
    assert _pow_bounds(2, 1, 1, 2, 30) == (lo * (1 << 30), hi * (1 << 30))
    # a radicand below the precision floors to the root 0; a zero one has
    # the enclosure [0, 0]
    assert frac_root_bounds(Fraction(1, 2 ** 100), 2, 8) == (0, Fraction(2, 256))
    assert _pow_bounds(1, 2 ** 100, 1, 2, 8) == (0, 2)
    assert _pow_bounds(0, 7, 3, 2, 8) == _pow_bounds(-5, 7, 3, 2, 8) == (0, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 9), st.integers(1, 5),
       st.integers(1, 5), st.integers(0, 60))
def test_pow_bounds_match_the_fraction_root(n, d, a, k, prec):
    want = fr.frac_pow_bounds(Fraction(n, d), Fraction(a, k), prec)
    r, s = _pow_bounds(n * 3, d * 3, a, k, prec)    # any common factor
    assert (Fraction(r, 1 << prec), Fraction(s, 1 << prec)) == want


def test_haar_system_norms():
    p = Fraction(2)
    sys2 = HaarSystem(p)
    # || f_1 ||_2 = 1
    lo, hi = sys2._pieces_norm_bounds(sys2.combo_pieces([0, 1], 1), 24)
    assert lo <= 1 << 24 <= hi and hi - lo < 1 << 8
    for scale in (1, 3, 1 << 16, 1 << 60):
        assert sys2.norm_int([0, 7], 7, scale) == scale
    # || (f_0 + f_1)/2 ||_2: value levels are 1 and 0 on the two halves
    val = sys2.norm_power(sys2.combo_pieces([1, 1], 2))
    assert _ring_value(val) == {Fraction(0): Fraction(1, 2)}
    with pytest.raises(ValueError, match="integer p"):
        HaarSystem(Fraction(3, 2)).norm_power([])


def test_haar_tail_within_a_nonzero_tail():
    # from index 2 on, chi[0, 1/4] has the one term (1/2) 2^(-1/2) f_2, of
    # L^2 norm 2^(-3/2) = 0.3535...
    p = Fraction(2)
    c = haar_coeffs(chi(0, Fraction(1, 4)), 4)
    assert c[2:] == [Fraction(1, 2), 0]
    assert HaarSystem(p).tail_within(c, 2, Fraction(36, 100))
    assert not HaarSystem(p).tail_within(c, 2, Fraction(35, 100))


@pytest.mark.parametrize("system", [FSSystem(), HaarSystem(Fraction(2))])
def test_zero_tail_is_within_eps_exactly_when_eps_is_not_negative(system):
    vec = [Fraction(1), Fraction(1, 2), Fraction(0), Fraction(0)]
    assert system.tail_within(vec, 2, Fraction(0))
    assert not system.tail_within(vec, 2, Fraction(-1, 2))


def test_fs_system_norms():
    sysf = FSSystem()
    # e_0 + e_1 is identically one, so (e_0 + e_1)/2 has norm exactly 1/2:
    # scale 1 is a tie, rounded away from zero
    assert [sysf.norm_int([1, 1], 2, scale) for scale in (1, 2, 3, 4)] == [1, 1, 2, 2]
    assert [sysf.norm_int([-1, -1], 2, scale) for scale in (1, 2, 3)] == [1, 1, 2]
    assert sysf.tail_within([Fraction(1), Fraction(1)], 1, Fraction(1))
    assert not sysf.tail_within([Fraction(1), Fraction(1)], 1,
                                1 - Fraction(1, 1 << 80))


norm_combos = st.one_of(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=70),
                        st.integers(1, 70).map(lambda k: [0] * k))
SYSTEMS = [None, Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2)]


@settings(max_examples=250, deadline=None)
@given(norm_combos, st.integers(0, 10 ** 4),
       st.one_of(st.integers(0, 60), st.integers(0, 60).map(lambda k: (1 << k) - 1)),
       st.sampled_from(SYSTEMS))
@example([7], 0, 0, None)                                   # N = 0
@example([-7], 3, 0, Fraction(3, 2))
@example([0] * 5, 10 ** 4, 60, Fraction(3))
@example([-1, 2, -3, 4], 10 ** 4, (1 << 60) - 1, Fraction(3, 2))
@example([1, 1], 1, 0, None)                                 # a tie: norm 1/2 at scale 1
@example([(-1) ** k * (k % 5) for k in range(513)], 9999, 60, None)
def test_norm_int_matches_the_fraction_reference(zs, m, n, p):
    system = FSSystem() if p is None else HaarSystem(p)
    assert system.norm_int(zs, m + 1, n + 1) == norm_answer(system, zs, m + 1, n + 1)


def _near_half_scales(mid: Fraction, top: int, count: int = 2) -> list[int]:
    """The scales s <= top, near top, whose product s * mid lies closest to
    a half-integer: the answers whose rounding a narrow enclosure decides."""
    a, b = mid.numerator, mid.denominator
    key = lambda s: abs(2 * (s * a % b) - b)
    return sorted(range(max(1, top - 1024), top + 1), key=key)[:count]


def _grid_combos(N: int, rnd: random.Random) -> list[list[int]]:
    """The zero and a one-term combination of N coefficients, one dense and
    one sparse random one."""
    one = [0] * N
    one[rnd.randrange(N)] = rnd.choice([-1, 1]) * rnd.randrange(1, 99)
    return [[0] * N, one, [rnd.randrange(-99, 100) for _ in range(N)],
            [rnd.randrange(-99, 100) if rnd.random() < 0.1 else 0 for _ in range(N)]]


HAAR_GRID_P = [Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2)]


@pytest.mark.parametrize("N", [1, 2, 5, 33, 129])
@pytest.mark.parametrize("p", HAAR_GRID_P, ids=str)
def test_haar_integer_answers_match_the_fraction_reference(p, N):
    # norm_int, coeff_int and tail_within of the integer ring against the
    # Fraction ring's Haar path: scales 1 to 2^20, and scales whose answer
    # lies near a half, where only the enclosure decides the rounding
    rnd = random.Random(1000 * N + 10 * p.numerator + p.denominator)
    system = HaarSystem(p)
    for zs in _grid_combos(N, rnd):
        den = rnd.choice([1, 2, 7, 64, 10 ** 4 + 1])
        lams = [Fraction(z, den) for z in zs]
        scales = [1, 3, 1 << 10, 1 << 20]
        if any(zs):
            lo, hi = fr.norm_bounds(system, lams, 48)
            scales += _near_half_scales((lo + hi) / 2, 1 << 20)
        for scale in scales:
            assert system.norm_int(zs, den, scale) == norm_answer(system, zs, den, scale), \
                (zs, den, scale)
        # the step-form vector's coefficients and tails
        for i in sorted({0, 1, N // 2, N - 1, N, N + 3}):
            c_scales = [1, 7, 1 << 20]
            if i < N and lams[i]:
                c_scales += _near_half_scales(
                    sum(fr.RootSum({-haar_scale_exp(i, p): lams[i]}).bounds(60)) / 2,
                    1 << 20, 1)
            lam = lams[i] if i < N else Fraction(0)
            for scale in c_scales:
                assert _rounds_coeff(system.coeff_int(lams, i, scale), p, lam, i,
                                     scale), (i, scale)
        for start in sorted({0, 1, N // 3, N}):
            # the reference's certified bound, and the test at eps just on
            # either side of it
            pieces = [(w, fr.RootSum({0: v}))
                      for w, v in fr.stepform_pieces([0] * start + lams[start:])]
            bound = fr.pieces_norm_bounds(p, pieces, 24)[1] if any(lams[start:]) else 0
            assert fr.haar_tail_within(p, lams, start, bound)
            for eps in (bound, bound - Fraction(1, 1 << 30), Fraction(0),
                        Fraction(-1, 2)):
                assert system.tail_within(lams, start, eps) == (bound <= eps), (start, eps)


# ---------------------------------------------------------------------------
# linear synthesis against the per-point quadratic evaluators

dyadic = st.builds(lambda n, s: Fraction(n, 1 << s),
                   st.integers(min_value=-64, max_value=64),
                   st.integers(min_value=0, max_value=4))


def _check_fs_partial_sum(lams):
    pl = fs_partial_sum_pl(lams)
    nodes = sorted({q_seq(i) for i in range(max(len(lams), 2))})
    assert pl.xs == tuple(nodes)
    assert pl.ys == tuple(_fs_partial_sum_eval(lams, x) for x in nodes)


@settings(max_examples=60, deadline=None)
@given(st.lists(dyadic, max_size=70))
def test_fs_partial_sum_pl_matches_pointwise(lams):
    _check_fs_partial_sum(lams)


def test_fs_partial_sum_pl_every_length():
    rnd = random.Random(43)
    for size in range(71):
        _check_fs_partial_sum(
            [Fraction(rnd.randrange(-9, 10), 1 << rnd.randrange(4)) for _ in range(size)])


EDGE_SIZES = sorted({0, 1, 2, 3} | {1 << k for k in range(1, 10)}
                    | {(1 << k) + 1 for k in range(1, 10)})


@st.composite
def hat_lists(draw, max_size=600):
    """Sparse hat-coefficient lists: a dyadic or z/(m+1) denominator (m+1 up
    to 30 000), each value reduced on its own, so the denominators differ."""
    size = draw(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, max_size)))
    den = draw(st.one_of(st.builds(lambda s: 1 << s, st.integers(0, 14)),
                         st.integers(1, 30000)))
    lams = [Fraction(0)] * size
    if size:
        for i, z in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(-10 ** 6, 10 ** 6)),
                                  max_size=12)):
            lams[i] = Fraction(z, den)
    return lams


@settings(max_examples=80, deadline=None)
@given(hat_lists())
@example([Fraction(0)] * 513)
@example([Fraction(z, 24602) for z in range(-256, 257)])
def test_fs_partial_sum_pl_matches_fraction_recurrence(lams):
    ref = fr.fs_partial_sum(lams)
    pl = fs_partial_sum_pl(lams)
    assert (pl.xs, pl.ys) == (ref.xs, ref.ys)
    # at the scale D 2^g (D the lcm of the denominators) the exact norm is
    # an integer, so norm_int pins it; other scales round it
    den = math.lcm(*(lam.denominator for lam in lams))
    zs = [int(lam * den) for lam in lams]
    exact = den << ((len(lams) - 2).bit_length() if len(lams) > 2 else 0)
    assert (ref.sup_norm() * exact).denominator == 1
    for scale in (exact, 1, 7, 1000):
        assert FSSystem().norm_int(zs, den, scale) == round_half_away(ref.sup_norm() * scale)


@settings(max_examples=30, deadline=None)
@given(hat_lists())
def test_tail_within_is_sharp_at_the_fraction_recurrence_norm(lams):
    sysf, refs = FSSystem(), {}
    below = Fraction(1, 1 << 80)
    for start in range(len(lams) + 3):
        nonzero = tuple(i for i in range(start, len(lams)) if lams[i])
        if nonzero not in refs:     # the tail's sum depends only on these
            tail = [Fraction(0)] * start + lams[start:]
            refs[nonzero] = fr.fs_partial_sum(tail).sup_norm()
        ref = refs[nonzero]
        assert sysf.tail_within(lams, start, ref)
        if ref > 0:
            assert not sysf.tail_within(lams, start, ref - below)


def test_hat_nodes_share_the_least_denominator():
    # the partial sum is swept on the numerators over the least common
    # denominator, and its grid has 2^g + 1 points
    for lams, lcm in (([Fraction(1, 12), Fraction(1, 6), Fraction(3, 4)], 12),
                      ([Fraction(5, 24602), Fraction(2, 24602)] + [0] * 7, 24602),
                      ([Fraction(7, 8), 3, Fraction(-1, 3), Fraction(0)], 24)):
        zs, den = _over(lams)
        g = (len(lams) - 2).bit_length() if len(lams) > 2 else 0
        assert den == lcm and len(_hat_nodes(zs)) == (1 << g) + 1
        pl = fs_partial_sum_pl(lams)
        assert pl.ys == fr.fs_partial_sum(lams).ys


def _hat_nodes_generic(zs):
    """_hat_nodes in index order, one _q_node per node: A[t] = z_j 2^g +
    (A[t - u] + A[t + u]) / 2 for hat j at t / 2^g, halfwidth u / 2^g."""
    n = len(zs)
    g = (n - 2).bit_length() if n > 2 else 0
    A = [None] * ((1 << g) + 1)
    A[0] = zs[0] << g if n else 0
    A[1 << g] = zs[1] << g if n > 1 else 0
    for j in range(2, n):
        c, s = _q_node(j)
        u = 1 << (g - s)
        A[c * u] = (zs[j] << g) + (A[(c - 1) * u] + A[(c + 1) * u]) // 2
    return A


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 300)), st.randoms())
@example(0, random.Random(0))
@example(1, random.Random(0))
@example(513, random.Random(1))
def test_hat_nodes_match_the_generic_form(size, rnd):
    zs = [rnd.randrange(-10 ** 6, 10 ** 6) if rnd.random() < 0.5 else 0
          for _ in range(size)]
    assert _hat_nodes(zs) == _hat_nodes_generic(zs)


def test_fs_norm_and_tail_build_no_fraction(monkeypatch):
    import metrent.banach
    import metrent.schauder
    rnd = random.Random(7)
    zs = [rnd.randrange(-99, 100) if k % 57 == 0 else 0 for k in range(513)]
    lams = [Fraction(z, 24602) for z in zs]
    vec = lams[:200] + [Fraction(0)] * 40
    name = banach_name(vec, BanachReprParams(S=exp_max_time()), FSSystem(), lambda n: n + 4)
    queries = [(zs, 60, 24601), (zs[:1], 0, 0), ([0] * 9, 3, 10 ** 4),
               ([-5, 3, -7], 17, 2)]
    want = [norm_answer(FSSystem(), z, m + 1, n + 1) for z, n, m in queries]
    tail = fr.fs_partial_sum([0] * 100 + lams[100:]).sup_norm()
    assert tail > 0

    def refuse(*args):
        raise AssertionError("built a Fraction")
    monkeypatch.setattr(metrent.schauder, "Fraction", refuse)
    monkeypatch.setattr(metrent.banach, "Fraction", refuse)
    monkeypatch.setattr(PiecewiseLinear, "_of", refuse)
    monkeypatch.setattr(PiecewiseLinear, "__init__", refuse)
    assert [decode_int(name(combo_query(z, n, m))) for z, n, m in queries] == want
    assert FSSystem().tail_within(lams, 100, tail)
    assert not FSSystem().tail_within(lams, 100, tail - Fraction(1, 1 << 80))
    assert FSSystem().tail_within(lams, 600, Fraction(0))


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 30000), st.integers(1, 30000))
def test_fs_coeff_int_matches_fraction_rounding(z, d, scale):
    lam = Fraction(z, d)
    assert FSSystem().coeff_int([Fraction(0), lam], 1, scale) == round_half_away(lam * scale)
    assert FSSystem().coeff_int([lam], 5, scale) == 0


def _haar_midpoint_sums(zs, p):
    """Reference: sum z_k f_{k,p} at every midpoint of the uniform 2^G grid,
    one haar_eval per element and midpoint, in the Fraction ring."""
    max_gen = max((haar_gen(k) for k in range(1, len(zs))), default=0)
    m = 1 << max_gen
    out = []
    for t in range(m):
        x = Fraction(2 * t + 1, 2 * m)
        total = fr.RootSum()
        for k, z in enumerate(zs):
            s, e = haar_eval(k, p, x)
            if s == 0:
                continue
            total = total.plus(fr.RootSum({e: Fraction(z) * s}))
        out.append(total)
    return out


def _expand(pieces, m):
    """The values of pieces (level, v) on the uniform grid of m cells."""
    out = []
    for level, v in pieces:
        assert m >> level << level == m
        out.extend([v] * (m >> level))
    return out


@st.composite
def haar_combos(draw, max_size=40):
    zs = draw(st.lists(st.one_of(st.just(Fraction(0)), dyadic),
                       max_size=max_size))
    # clear whole subtrees (elements 2k and 2k+1 refine element k)
    for root in draw(st.lists(st.integers(1, max_size), max_size=3)):
        level = [root]
        while level:
            for k in level:
                if k < len(zs):
                    zs[k] = Fraction(0)
            level = [c for k in level for c in (2 * k, 2 * k + 1) if c < len(zs)]
    return zs


@settings(max_examples=60, deadline=None)
@given(haar_combos(),
       st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2)]))
def test_combo_pieces_match_midpoint_sums(zs, p):
    sysp = HaarSystem(p)
    nums, den = _over(zs)
    pieces = sysp.combo_pieces(list(nums), den)
    ref = _haar_midpoint_sums(zs, p)
    assert sum(Fraction(1, 1 << level) for level, _ in pieces) == 1
    assert all(v.u == p.numerator and v.den == den for _, v in pieces)
    expanded = _expand(pieces, len(ref))
    assert [_ring_value(v) for v in expanded] == [v.terms for v in ref]
    # the norm does not depend on how constant stretches are cut
    G = len(ref).bit_length() - 1
    uniform = [(G, v) for v in expanded]
    if p.denominator == 1:
        assert _ring_value(sysp.norm_power(pieces)) == _ring_value(sysp.norm_power(uniform))
    lo, hi = sysp._pieces_norm_bounds(pieces, 24)
    assert sysp._pieces_norm_bounds(uniform, 24) == (lo, hi)
    assert (Fraction(lo, 1 << 24), Fraction(hi, 1 << 24)) == fr.pieces_norm_bounds(
        p, [(Fraction(1, len(ref)), v) for v in ref], 24)


@settings(max_examples=60, deadline=None)
@given(st.lists(dyadic, max_size=70),
       st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]))
def test_step_from_haar_matches_midpoint_sums(c, p):
    # step form is p-free: the one partial sum matches the reference that
    # haar_eval's signs give at every drawn p
    rec = step_from_haar(c)
    max_gen = max((haar_gen(k) for k in range(1, len(c))), default=0)
    m = 1 << max_gen
    assert rec.cuts == tuple(Fraction(t, m) for t in range(m + 1))
    ref = []
    for t in range(m):
        x = Fraction(2 * t + 1, 2 * m)
        total = c[0] if c else Fraction(0)
        for k in range(1, len(c)):
            total += c[k] * haar_eval(k, p, x)[0]
        ref.append(total)
    assert rec.levels == tuple(ref)


def test_step_form_functions_take_no_p():
    # only HaarSystem, haar_eval and haar_scale_exp read p
    for fn, params in ((step_from_haar, ["c"]), (chi_expand, ["i", "j"]),
                       (_haar_pyramid, ["zs", "zero", "shift"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


def test_combo_pieces_haar_eval_calls(monkeypatch):
    import metrent.schauder as schauder
    calls = [0]

    def counting(k, p, x):
        calls[0] += 1
        return haar_eval(k, p, x)

    monkeypatch.setattr(schauder, "haar_eval", counting)
    zs = [k % 7 + 1 for k in range(1025)]
    pieces = HaarSystem(Fraction(2)).combo_pieces(zs, 8)
    assert len(pieces) == 1025           # one cell per element, plus one
    assert sum(Fraction(1, 1 << level) for level, _ in pieces) == 1
    assert calls[0] <= 2 * 1025


def test_chi_expand_corrupted_expansion_raises(monkeypatch):
    import metrent.schauder as schauder
    real = schauder.haar_coeffs

    def flip_last(f, up_to):
        c = real(f, up_to)
        c[-1] += 1
        return c

    monkeypatch.setattr(schauder, "haar_coeffs", flip_last)
    with pytest.raises(ContractViolation):
        chi_expand(0, 2)
