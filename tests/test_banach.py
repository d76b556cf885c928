import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metrent.baire import Name, in_kl, is_length_monotone, pair_names
from metrent.banach import (BanachReprParams, add_time, banach_add_program,
                            _aligned_nonzero_indices, _xi_reader, banach_name,
                            banach_norm_program, banach_time,
                            check_growth, coeff_query, combo_query, counted,
                            delta_square_name, dsq_modulus, dsq_to_xi,
                            dsq_value, fs_vector, haar_vector, lp_name,
                            lp_to_xi, lp_value,
                            xi_decode_pl, xi_to_dsq, xi_to_lp)
from metrent.compact import name_length_fn
from metrent.funcs import (PiecewiseLinear, StepFn, chi, continuity_modulus,
                           lp_modulus, modulus_fn, sup_dist_pl)
from metrent.machine import RunningTime, exp_max_time, metered_run
from metrent.schauder import FSSystem, HaarSystem, fs_elem, fs_partial_sum_pl
from metrent.strings import (MalformedName, ceil_lb, decode_int, nat_str,
                             round_half_away, tuple_strs)


ELL = lambda n: n + 4


def fs_setup():
    return BanachReprParams(S=exp_max_time()), FSSystem()


def rand_pl(rnd, scale=3):
    grid = [Fraction(t, 1 << scale) for t in range((1 << scale) + 1)]
    ys = [Fraction(rnd.randrange(-8, 9), 8) for _ in grid]
    return PiecewiseLinear.build(grid, ys)


def rand_step(rnd, scale=3):
    cuts = [Fraction(0)] + sorted(rnd.sample(
        [Fraction(k, 1 << scale) for k in range(1, 1 << scale)], 3)) + [Fraction(1)]
    levels = [Fraction(rnd.randrange(-8, 9), 4) for _ in range(4)]
    return StepFn.build(cuts, levels)


def test_banach_name_coeff_branch():
    params, system = fs_setup()
    phi = banach_name(fs_vector(fs_elem(0)), params, system, ELL)
    for n, m in ((0, 10), (3, 99)):
        assert decode_int(phi(coeff_query(0, n, m))) == m + 1
        assert decode_int(phi(coeff_query(1, n, m))) == 0
    assert in_kl(phi, ELL, 7)


def test_banach_name_hat_coeff_rounds_half_ties_away():
    params, system = fs_setup()
    for m in (0, 1, 24601, 29999):
        # lam (m+1) = (2k+1)/2 exactly, both signs, and one value off a tie
        vec = [Fraction(sgn * (2 * k + 1), 2 * (m + 1)) for k in range(4)
               for sgn in (1, -1)] + [Fraction(-7, 3 * (m + 1))]
        phi = banach_name(vec, params, system, ELL)
        for i, lam in enumerate(vec):
            got = decode_int(phi(coeff_query(i, 0, m)))
            assert got == round_half_away(lam * (m + 1))
            if i < 8:
                assert got == (i // 2 + 1) * (1 if lam > 0 else -1)


def test_banach_name_norm_branch():
    params, system = fs_setup()
    phi = banach_name(fs_vector(fs_elem(0)), params, system, ELL)
    for n in (0, 2, 6):
        m = 7
        raw = phi(combo_query([m + 1], n, m))      # the vector e_0 itself
        z = decode_int(raw)
        assert abs(1 - Fraction(z, n + 1)) <= Fraction(1, n + 1)


def test_banach_decode_combo():
    params, system = fs_setup()
    rnd = random.Random(3)
    for _ in range(5):
        f = rand_pl(rnd)
        phi = banach_name(fs_vector(f), params, system, ELL)
        for n in (0, 1, 3):
            combo = xi_decode_pl(phi, n, params)
            assert sup_dist_pl(combo, f) <= Fraction(2, n + 1)


def test_banach_decode_combo_exact_on_integer_coefficients():
    # a coefficient z/(m+1) with z = lam (m+1) is lam itself, so a vector
    # of integer coefficients decodes to its own hat sum at every level
    params, system = fs_setup()
    rnd = random.Random(4)
    for size in (1, 2, 3, 5, 9):
        lams = [Fraction(rnd.randrange(-4, 5)) for _ in range(size)]
        f = fs_partial_sum_pl(lams)
        phi = banach_name(fs_vector(f), params, system, ELL)
        for n in (0, 1, 3):
            assert sup_dist_pl(xi_decode_pl(phi, n, params), f) == 0


def test_banach_norm_program_fs():
    params, system = fs_setup()
    T = banach_time(params)
    budget = RunningTime(lambda l, n: 64 * T.bound(l, n) + 64)
    prog = banach_norm_program(params)
    cases = [
        (fs_elem(0), Fraction(1)),
        (PiecewiseLinear.build([0, 1], [Fraction(1, 2), Fraction(1, 2)]),
         Fraction(1, 2)),
    ]
    for f, norm in cases:
        phi = banach_name(fs_vector(f), params, system, ELL)
        lfn = name_length_fn(phi)
        for n in range(3):
            out, report, _ = metered_run(prog, phi, nat_str(n), budget, lfn)
            z = decode_int(out)
            assert abs(norm - Fraction(z, n + 1)) <= Fraction(1, n + 1)
            assert report.steps_used <= 64 * T.bound(lfn, len(nat_str(n))) + 64


def test_banach_norm_program_haar():
    params = BanachReprParams(S=exp_max_time())
    p = Fraction(2)
    system = HaarSystem(p)
    f = StepFn.build([0, 1], [1])
    phi = banach_name(haar_vector(f, p), params, system, ELL)
    prog = banach_norm_program(params)
    T = banach_time(params)
    budget = RunningTime(lambda l, n: 64 * T.bound(l, n) + 64)
    lfn = name_length_fn(phi)
    for n in range(3):
        out, _, _ = metered_run(prog, phi, nat_str(n), budget, lfn)
        z = decode_int(out)
        assert abs(1 - Fraction(z, n + 1)) <= Fraction(1, n + 1)


def test_banach_addition():
    params, system = fs_setup()
    rnd = random.Random(9)
    f, g = rand_pl(rnd, 2), rand_pl(rnd, 2)
    phi = banach_name(fs_vector(f), params, system, ELL)
    psi = banach_name(fs_vector(g), params, system, ELL)
    chi_n = pair_names(phi, psi)
    l2 = name_length_fn(chi_n)
    prog = banach_add_program()
    T = add_time()
    big = RunningTime(lambda l, n: 64 * T.bound(l, n) + 64)
    ratios = []

    def sum_value(a: str) -> str:
        out, report, _ = metered_run(prog, chi_n, a, big, l2)
        ratios.append(report.steps_used / max(T.bound(l2, len(a)), 1))
        return out

    total = Name(sum_value, label="sum")
    target = f.add(g)
    for n in (0, 1, 3):
        combo = xi_decode_pl(total, n, params)
        assert sup_dist_pl(combo, target) <= Fraction(2, n + 1)
    # the recorded addition constant
    assert max(ratios) <= 16, max(ratios)


def test_delta_square_name_contract():
    f = PiecewiseLinear.build([0, 1], [0, 1])
    mu = modulus_fn(continuity_modulus(f, 12))
    psi = delta_square_name(f, mu)
    rnd = random.Random(17)
    for _ in range(60):
        m = rnd.randrange(0, 5)
        r = rnd.randrange(0, (1 << m) + 1)
        n = rnd.randrange(0, 9)
        v = dsq_value(psi, n, r, m)
        assert abs(f(Fraction(r, 1 << m)) - v) <= Fraction(1, 1 << n)
    assert is_length_monotone(psi, 6)
    table = continuity_modulus(f, 6)
    md = dsq_modulus(psi)
    assert all(md(t) >= table[t] for t in range(7))


def test_xi_to_dsq_values_and_query_growth():
    params, system = fs_setup()
    rnd = random.Random(19)
    f = rand_pl(rnd)
    base = banach_name(fs_vector(f), params, system, ELL)
    phi, counter = counted(base)
    psi = xi_to_dsq(phi, params)
    counts = []
    for n in range(7):
        before = counter[0]
        v = dsq_value(psi, n, 3, 3)
        counts.append(counter[0] - before)
        assert abs(f(Fraction(3, 8)) - v) <= Fraction(1, 1 << n)
    lfn = name_length_fn(base)
    # distinct queries fit below C * (|phi|(n+c) + n)^2 with C = 4, c = 4
    for n, c in enumerate(counts):
        assert c <= 4 * (lfn(n + 4) + n) ** 2, (n, c)


def test_dsq_xi_roundtrip():
    params, _ = fs_setup()
    rnd = random.Random(23)
    for _ in range(3):
        f = rand_pl(rnd, 2)
        mu = modulus_fn(continuity_modulus(f, 14))
        psi = delta_square_name(f, mu)
        xi2 = dsq_to_xi(psi, params)
        psi2 = xi_to_dsq(xi2, params)
        for n in (0, 2, 4, 6):
            for (r, m) in ((0, 0), (1, 1), (3, 2), (5, 3)):
                v = dsq_value(psi2, n, r, m)
                assert abs(f(Fraction(r, 1 << m)) - v) <= Fraction(2, 1 << n)


def test_lp_name_contract():
    p = Fraction(2)
    f = chi(0, Fraction(1, 2))
    mu = modulus_fn(lp_modulus(f, 2, 12))
    psi = lp_name(f, p, mu)
    v = lp_value(psi, 0, 1, 1, 5)
    assert abs(Fraction(1, 2) - v) < Fraction(1, 32)
    rnd = random.Random(29)
    for _ in range(40):
        m = rnd.randrange(0, 4)
        k = rnd.randrange(0, (1 << m) + 1)
        l = rnd.randrange(0, (1 << m) + 1)
        n = rnd.randrange(0, 9)
        v = lp_value(psi, k, l, m, n)
        exact = f.integral(Fraction(k, 1 << m), Fraction(l, 1 << m))
        assert abs(exact - v) < Fraction(1, 1 << n)      # strict
    assert is_length_monotone(psi, 6)
    table = lp_modulus(f, 2, 6)
    md = dsq_modulus(psi)
    assert all(md(t) >= table[t] for t in range(7))


def test_xi_to_lp_values():
    p = Fraction(2)
    params = BanachReprParams(S=exp_max_time())
    rnd = random.Random(31)
    f = rand_step(rnd)
    phi = banach_name(haar_vector(f, p), params, HaarSystem(p), ELL)
    psi = xi_to_lp(phi, params, p)
    for n in (0, 2, 4):
        for (k, l, m) in ((0, 1, 0), (0, 1, 1), (1, 3, 2), (2, 7, 3)):
            v = lp_value(psi, k, l, m, n)
            exact = f.integral(Fraction(k, 1 << m), Fraction(l, 1 << m))
            assert abs(exact - v) < Fraction(1, 1 << n)


def test_lp_xi_roundtrip():
    p = Fraction(2)
    params = BanachReprParams(S=exp_max_time())
    rnd = random.Random(37)
    for _ in range(2):
        f = rand_step(rnd)
        mu = modulus_fn(lp_modulus(f, 2, 14))
        psi = lp_name(f, p, mu)
        xi2 = lp_to_xi(psi, params, p)
        psi2 = xi_to_lp(xi2, params, p)
        for n in (0, 2, 4):
            for (k, l, m) in ((0, 1, 0), (1, 2, 1), (3, 5, 3)):
                v = lp_value(psi2, k, l, m, n)
                exact = f.integral(Fraction(k, 1 << m), Fraction(l, 1 << m))
                assert abs(exact - v) <= Fraction(2, 1 << n)


def test_lp_to_xi_unit_vector():
    p = Fraction(2)
    params = BanachReprParams(S=exp_max_time())
    f = StepFn.build([0, 1], [1])                  # the constant element
    mu = modulus_fn(lp_modulus(f, 2, 14))
    xi2 = lp_to_xi(lp_name(f, p, mu), params, p)
    _, coeff = _xi_reader(xi2, 4, params)
    assert [coeff(i) for i in range(4)] == [1, 0, 0, 0]


def test_value_answers_need_unary_blocks():
    # the scale block of a point-value answer is 1 0^k and that of an
    # integral answer 0^j; "101" is neither
    bad = Name(lambda a: tuple_strs(["1", "101"]))
    with pytest.raises(MalformedName):
        dsq_value(bad, 0, 0, 0)
    with pytest.raises(MalformedName):
        lp_value(bad, 0, 1, 0, 0)


def test_queries_that_do_not_parse():
    # every factory's answer to a malformed query: epsilon from the three
    # coefficient names, and from the four value names a run of ones as
    # long as the value answers at that query length
    params, p = BanachReprParams(S=exp_max_time()), Fraction(2)
    f = PiecewiseLinear.build([0, Fraction(1, 2), 1], [0, 1, Fraction(1, 4)])
    g = chi(0, Fraction(1, 2))
    xi_fs = banach_name(fs_vector(f), params, FSSystem(), ELL)
    xi_haar = banach_name(haar_vector(g, p), params, HaarSystem(p), ELL)
    dsq = delta_square_name(f, modulus_fn(continuity_modulus(f, 8)))
    lp = lp_name(g, p, modulus_fn(lp_modulus(g, 2, 8)))
    for phi in (xi_fs, xi_haar, dsq_to_xi(dsq, params), lp_to_xi(lp, params, p)):
        for bad in ("0" + "11", "0" + tuple_strs(["1", "01", "1"])):
            assert phi(bad) == ""
    dsq_good = tuple_strs(["00", "1", "10"])
    dsq_bad = [tuple_strs(["00", "1", "00"]),      # scale block without its 1
               tuple_strs(["00", "11", "10"]),     # numerator above 2^m
               tuple_strs(["01", "1", "10"]),      # precision block not unary
               "1" * len(dsq_good)]
    lp_good = tuple_strs(["1", "10", "100", "00"])
    lp_bad = [tuple_strs(["1", "10", "000", "00"]),
              tuple_strs(["1", "01", "100", "00"]),  # endpoint not a numeral
              tuple_strs(["1", "10", "100", "01"]),
              "1" * len(lp_good)]
    for psi, good, bads in ((dsq, dsq_good, dsq_bad),
                            (xi_to_dsq(xi_fs, params), dsq_good, dsq_bad),
                            (lp, lp_good, lp_bad),
                            (xi_to_lp(xi_haar, params, p), lp_good, lp_bad)):
        size = len(psi(good))
        assert size % 2 == 0 and psi(good) != "1" * size
        for bad in bads:
            assert len(bad) == len(good) and psi(bad) == "1" * size


def test_growth_condition():
    S = exp_max_time()
    candidates = [lambda n: n, lambda n: n + 2, lambda n: 2 * n + 4]
    assert check_growth(S, lambda n: n + 10, candidates, depth=8)
    assert not check_growth(S, lambda n: 1 << (2 * n + 20), candidates, depth=8)


def test_packing_clause_truncated():
    # scaled basis vectors 2^-n e_i stay separated: measured exponent at
    # n + C with C = 2 (alpha = 1) reaches the truncated span budget
    from metrent.entropy import PointCloud, packing_exponent
    from metrent.funcs import sup_dist_pl
    elems = [fs_elem(i) for i in range(64)]
    horizon = 6
    for n in range(1, 4):
        scalednames = [e.scaled(Fraction(1, 1 << n)) for e in elems]
        K = PointCloud(scalednames, lambda i, j: sup_dist_pl(scalednames[i], scalednames[j]))
        assert packing_exponent(K, n + 2) >= horizon


def test_short_name_sandwich():
    # vectors approximable within the tolerance ladder receive names of
    # length ELL to scan depth
    params, system = fs_setup()
    rnd = random.Random(41)
    for _ in range(5):
        lams = [Fraction(rnd.randrange(-4, 5), 4) for _ in range(9)]
        f = fs_partial_sum_pl(lams)
        phi = banach_name(fs_vector(f), params, system, ELL)
        assert in_kl(phi, ELL, 6)


def _aligned_nonzero_indices_fraction(a, b, max_k):
    """Reference index search: the per-generation Fraction loop over
    support widths."""
    out = {0}
    gens = ceil_lb(max_k + 1) + 1
    for g in range(1, gens + 1):
        width = Fraction(1, 1 << (g - 1))
        for x in (a, b):
            c = int(x / width)
            lo = c * width
            if lo < x < lo + width:
                k = (1 << (g - 1)) + c
                if 1 <= k <= max_k:
                    out.add(k)
    return sorted(out)


# dyadic and non-dyadic endpoints in [-2, 3], so negative and > 1 too
endpoints = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3),
                     Fraction(4, 3), Fraction(-1), Fraction(2)]),
    st.builds(lambda n, s: Fraction(n, 1 << s), st.integers(-(1 << 12), 3 << 12),
              st.integers(0, 12)),
    st.fractions(min_value=-2, max_value=3, max_denominator=10 ** 6))


@settings(max_examples=200, deadline=None)
@given(endpoints, endpoints,
       st.one_of(st.integers(0, 70), st.integers(0, 1 << 40),
                 st.integers(0, 40).map(lambda e: 1 << e)))
def test_aligned_nonzero_indices_matches_fraction_loop(a, b, max_k):
    assert _aligned_nonzero_indices(a, b, max_k) == \
        _aligned_nonzero_indices_fraction(a, b, max_k)
