import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from metrent.compact import q_seq
from metrent.entropy import ContractViolation
from metrent.funcs import PiecewiseLinear, StepFn, chi, p_power_dist
from metrent.schauder import (FSSystem, HaarExpansion, HaarSystem, RootSum,
                              ScaledVal, _hat_nodes, chi_expand,
                              frac_root_bounds, fs_coeff, fs_coeffs, fs_elem,
                              fs_eval, fs_halfwidth, fs_nonzero_indices,
                              fs_partial_sum_pl,
                              fs_separation, haar_coeffs, haar_eval, haar_gen,
                              haar_integral, haar_scale_exp, haar_stepform,
                              haar_support, haar_unit_norm_power, pow2_bounds,
                              step_from_haar, sup_error)
from metrent.strings import round_half_away


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

    def counting(i, x):
        calls.append(i)
        return fs_eval(i, x)

    monkeypatch.setattr(schauder, "fs_eval", counting)
    for x in (Fraction(1, 3), Fraction(5, 8), Fraction(-1, 7), Fraction(9, 4)):
        calls.clear()
        schauder.fs_nonzero_indices(x, 1 << 40)
        assert len(calls) <= 2 and set(calls) <= {0, 1}


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
    # integral over the left half-support of the element at node j
    for p in (Fraction(1), Fraction(2), Fraction(3)):
        for j in (2, 3, 5, 9):
            k = j - 1
            lo, q, hi = haar_support(k)
            v = haar_integral(k, p, lo, q)
            g = haar_gen(k)
            assert v.coef == Fraction(1, 1 << g)
            assert v.exp2 == Fraction(g - 1) / p
            if p == 1:
                # at p = 1 this is exactly 2^(-1/p)
                assert v.as_fraction() == Fraction(1, 2)
    # whole-line integrals vanish for every index above zero
    for k in range(1, 20):
        assert haar_integral(k, Fraction(2), 0, 1).coef == 0
    # plain area for the first element
    assert haar_integral(1, Fraction(7, 3), 0, Fraction(1, 2)).same_value(
        ScaledVal(Fraction(1, 2), Fraction(0)))


def test_haar_triangularity():
    # integral of element k over the left half-support at node j vanishes
    # whenever k > j - 1
    for p in (Fraction(1), Fraction(2)):
        for j in range(2, 33):
            lo, q, _ = haar_support(j - 1)
            for k in range(j, 33):
                assert haar_integral(k, p, lo, q).coef == 0


def test_haar_unit_norms():
    for k in range(65):
        for p in (1, 2, 3):
            assert haar_unit_norm_power(k, p) == 1


def test_haar_coeffs_examples():
    p = Fraction(2)
    f0 = StepFn.build([0, 1], [1])
    exp = haar_coeffs(f0, p, 8)
    assert exp.c == [1] + [0] * 7
    f = chi(0, Fraction(1, 2))
    exp = haar_coeffs(f, p, 8)
    assert exp.c[:2] == [Fraction(1, 2), Fraction(1, 2)]
    assert all(c == 0 for c in exp.c[2:])
    # so f = (f_0 + f_1) / 2
    assert exp.lam(1).same_value(ScaledVal(Fraction(1, 2), Fraction(0)))


def test_haar_expansion_lam_is_zero_past_the_list():
    p = Fraction(3, 2)
    exp = haar_coeffs(chi(0, Fraction(1, 4)), p, 4)
    for k in range(4):
        assert exp.lam(k) == ScaledVal(exp.c[k], -haar_scale_exp(k, p))
    for k in (4, 5, 100):
        assert exp.lam(k).is_zero()


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
    exp = haar_coeffs(g, Fraction(2), up_to)
    assert exp.c == [haar_stepform(g.integral, k) for k in range(up_to)] \
        == _haar_stepforms_loop(g, up_to)


def test_haar_unit_vector_stepform():
    # the sign pattern of basis element k has step-form coefficients
    # equal to the unit vector at k
    p = Fraction(2)
    for k in range(1, 16):
        lo, q, hi = haar_support(k)
        pattern = StepFn.build([lo, q, hi], [1, -1])
        exp = haar_coeffs(pattern, p, 16)
        assert exp.c == [Fraction(i == k) for i in range(16)]


def test_haar_reconstruction():
    rnd = random.Random(37)
    p = Fraction(2)
    for _ in range(20):
        cuts = [Fraction(0)] + sorted(rnd.sample(
            [Fraction(k, 16) for k in range(1, 16)], 3)) + [Fraction(1)]
        levels = [Fraction(rnd.randrange(-8, 9), 4) for _ in range(4)]
        f = StepFn.build(cuts, levels)
        exp = haar_coeffs(f, p, 32)
        rec = step_from_haar(exp)
        assert p_power_dist(rec, f, 1) == 0


def test_chi_expand():
    p = Fraction(2)
    z = chi_expand(0, 0, p)
    assert all(c == 0 for c in z.c)
    e = chi_expand(0, 2, p)      # indicator of [0, 1/2]
    assert e.c[:2] == [Fraction(1, 2), Fraction(1, 2)]
    rnd = random.Random(41)
    for _ in range(25):
        i, j = rnd.randrange(13), rnd.randrange(13)
        if q_seq(i) > q_seq(j):
            i, j = j, i
        exp = chi_expand(i, j, p)
        # integral identity against the exact indicator on a 2^-5 grid
        ind = None if q_seq(i) == q_seq(j) else StepFn.build([q_seq(i), q_seq(j)], [1])
        for t in range(32):
            a, b = Fraction(t, 32), Fraction(t + 1, 32)
            total = Fraction(0)
            for k, c in enumerate(exp.c):
                if c == 0:
                    continue
                term = haar_integral(k, p, a, b)
                # step form times the symbolic integral is rational
                from metrent.schauder import haar_scale_exp
                total += c * term.coef * _pow2_int(term.exp2 - haar_scale_exp(k, p))
            expect = ind.integral(a, b) if ind is not None else Fraction(0)
            assert total == expect
        assert all(exp.c[k] == 0 for k in range(max(i, j), len(exp.c)))


def _pow2_int(e: Fraction) -> Fraction:
    assert e.denominator == 1
    e = int(e)
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def test_rootsum_ring():
    p = Fraction(2)
    a = RootSum.of(ScaledVal(Fraction(1), Fraction(1, 2)))      # sqrt(2)
    b = RootSum.of(ScaledVal(Fraction(-1), Fraction(1, 2)))
    assert a.plus(b).is_zero()
    sq = a.times(a)
    assert sq.terms == {Fraction(0): Fraction(2)}
    assert a.sign() == 1 and b.sign() == -1
    lo, hi = a.bounds(30)
    assert lo <= Fraction(1414213562, 10 ** 9) <= hi
    assert hi - lo < Fraction(1, 1 << 20)


def test_pow2_and_root_bounds():
    lo, hi = pow2_bounds(Fraction(3, 2), 20)
    assert lo <= Fraction(2828427124, 10 ** 9) <= hi
    lo, hi = frac_root_bounds(Fraction(2), 2, 30)
    assert lo * lo <= 2 <= hi * hi


def test_haar_system_norms():
    p = Fraction(2)
    sys2 = HaarSystem(p)
    # || f_1 ||_2 = 1
    lo, hi = sys2.norm_bounds([Fraction(0), Fraction(1)])
    assert lo <= 1 <= hi and hi - lo < Fraction(1, 1 << 16)
    # || (f_0 + f_1)/2 ||_2: value levels are 1 and 0 on the two halves
    val = sys2.norm_power([Fraction(1, 2), Fraction(1, 2)])
    assert val.terms == {Fraction(0): Fraction(1, 2)}


def test_fs_system_norms():
    sysf = FSSystem()
    lo, hi = sysf.norm_bounds([Fraction(1, 2), Fraction(1, 2)])
    assert lo == hi
    # e_0 + e_1 is identically one
    assert lo == Fraction(1, 2)
    assert sysf.tail_sup([Fraction(1), Fraction(1)], 1) == 1


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


def _fs_partial_sum_ref(lams):
    """Reference: the node recurrence V(q_j) = lam_j + (V(q_j - w_j) +
    V(q_j + w_j)) / 2 on a dict keyed by Fraction nodes."""
    lam = lambda j: Fraction(lams[j]) if j < len(lams) else Fraction(0)
    vals = {Fraction(0): lam(0), Fraction(1): lam(1)}
    for j in range(2, len(lams)):
        q, w = q_seq(j), fs_halfwidth(j)
        vals[q] = lam(j) + (vals[q - w] + vals[q + w]) / 2
    nodes = sorted(vals)
    return PiecewiseLinear(tuple(nodes), tuple(vals[x] for x in nodes))


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
    ref = _fs_partial_sum_ref(lams)
    pl = fs_partial_sum_pl(lams)
    assert (pl.xs, pl.ys) == (ref.xs, ref.ys)
    assert FSSystem().norm_bounds(lams) == (ref.sup_norm(), ref.sup_norm())


@settings(max_examples=30, deadline=None)
@given(hat_lists())
def test_tail_sup_matches_fraction_recurrence_at_every_start(lams):
    sysf, refs = FSSystem(), {}
    for start in range(len(lams) + 3):
        nonzero = tuple(i for i in range(start, len(lams)) if lams[i])
        if nonzero not in refs:     # the tail's sum depends only on these
            tail = [Fraction(0)] * start + lams[start:]
            refs[nonzero] = _fs_partial_sum_ref(tail).sup_norm()
        assert sysf.tail_sup(lams, start) == refs[nonzero]


def test_hat_nodes_share_the_least_denominator():
    for lams, lcm in (([Fraction(1, 12), Fraction(1, 6), Fraction(3, 4)], 12),
                      ([Fraction(5, 24602), Fraction(2, 24602)] + [0] * 7, 24602),
                      ([Fraction(7, 8), 3, Fraction(-1, 3), Fraction(0)], 24)):
        A, scale = _hat_nodes(lams)
        g = (len(lams) - 2).bit_length() if len(lams) > 2 else 0
        assert (len(A), scale) == ((1 << g) + 1, lcm << g)


def test_fs_norm_builds_no_piecewise_linear(monkeypatch):
    built = []
    init = PiecewiseLinear.__post_init__
    monkeypatch.setattr(PiecewiseLinear, "__post_init__",
                        lambda self: built.append(1) or init(self))
    rnd = random.Random(7)
    zs = [Fraction(rnd.randrange(-99, 100), 24602) if k % 57 == 0 else Fraction(0)
          for k in range(513)]
    v = FSSystem().norm_bounds(zs)[0]
    FSSystem().tail_sup(zs, 100)
    assert built == []
    assert v == _fs_partial_sum_ref(zs).sup_norm() > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 30000), st.integers(1, 30000))
def test_fs_coeff_int_matches_fraction_rounding(z, d, scale):
    lam = Fraction(z, d)
    assert FSSystem().coeff_int([Fraction(0), lam], 1, scale) == round_half_away(lam * scale)
    assert FSSystem().coeff_int([lam], 5, scale) == 0


def _haar_midpoint_sums(zs, p):
    """Reference: sum z_k f_{k,p} at every midpoint of the uniform 2^G grid,
    one haar_eval per element and midpoint."""
    max_gen = max((haar_gen(k) for k in range(1, len(zs))), default=0)
    m = 1 << max_gen
    out = []
    for t in range(m):
        x = Fraction(2 * t + 1, 2 * m)
        total = RootSum()
        for k, z in enumerate(zs):
            s, e = haar_eval(k, p, x)
            if s == 0:
                continue
            coef, exp2 = (z.coef, z.exp2 + e) if isinstance(z, ScaledVal) \
                else (Fraction(z), e)
            total = total.plus(RootSum.of(ScaledVal(coef * s, exp2)))
        out.append(total)
    return out


def _expand(pieces, m):
    out = []
    for width, v in pieces:
        assert (width * m).denominator == 1
        out.extend([v] * int(width * m))
    return out


haar_entry = st.one_of(
    dyadic,
    st.builds(ScaledVal, dyadic,
              st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))))


@st.composite
def haar_combos(draw, max_size=40):
    zs = draw(st.lists(st.one_of(st.just(Fraction(0)), haar_entry),
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
    pieces = sysp.combo_pieces(zs)
    ref = _haar_midpoint_sums(zs, p)
    assert sum(w for w, _ in pieces) == 1
    assert [v.terms for v in _expand(pieces, len(ref))] == [v.terms for v in ref]
    # the norm does not depend on how constant stretches are cut
    uniform = HaarSystem(p)
    uniform.combo_pieces = lambda zs: [(Fraction(1, len(ref)), v) for v in ref]
    if p.denominator == 1:
        assert sysp.norm_power(zs).terms == uniform.norm_power(zs).terms
    assert sysp.norm_bounds(zs) == uniform.norm_bounds(zs)


@settings(max_examples=60, deadline=None)
@given(st.lists(dyadic, max_size=70),
       st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]))
def test_step_from_haar_matches_midpoint_sums(c, p):
    exp = HaarExpansion(c, p)
    rec = step_from_haar(exp)
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


def test_combo_pieces_haar_eval_calls(monkeypatch):
    import metrent.schauder as schauder
    calls = [0]

    def counting(k, p, x):
        calls[0] += 1
        return haar_eval(k, p, x)

    monkeypatch.setattr(schauder, "haar_eval", counting)
    zs = [Fraction(k % 7 + 1, 8) for k in range(1025)]
    pieces = HaarSystem(Fraction(2)).combo_pieces(zs)
    assert len(pieces) == 1025           # one cell per element, plus one
    assert sum(w for w, _ in pieces) == 1
    assert calls[0] <= 2 * 1025


def test_chi_expand_corrupted_expansion_raises(monkeypatch):
    import metrent.schauder as schauder
    real = schauder.haar_coeffs

    def flip_last(f, p, up_to):
        exp = real(f, p, up_to)
        exp.c[-1] += 1
        return exp

    monkeypatch.setattr(schauder, "haar_coeffs", flip_last)
    with pytest.raises(ContractViolation):
        chi_expand(0, 2, Fraction(2))
