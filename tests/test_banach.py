import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from metrent.baire import Name, in_kl, is_length_monotone, pair_names
from metrent.banach import (BanachReprParams, add_time, banach_add_program,
                            _aligned_nonzero_indices, _level_sizer,
                            _norm_answer, _parse_dsq_query, _parse_lp_query,
                            _parse_norm_query, _read_pair, _value_answer,
                            _xi_answer, _xi_reader, banach_name,
                            banach_norm_program, banach_time,
                            check_growth, coeff_query, combo_query, counted,
                            delta_square_name, dsq_modulus, dsq_to_xi,
                            dsq_query, dsq_value, fs_vector, haar_vector,
                            lp_name, lp_query, lp_to_xi, lp_value,
                            xi_decode_pl, xi_to_dsq, xi_to_lp)
from metrent.compact import (ParameterViolation, _with_length_branch,
                             name_length_fn)
from metrent.funcs import (PiecewiseLinear, StepFn, chi, continuity_modulus,
                           lp_modulus, modulus_fn, sup_dist_pl)
from metrent.machine import RunningTime, const_time, exp_max_time, metered_run
from metrent.schauder import (FSSystem, HaarSystem, _haar_stencil, fs_elem,
                              fs_nonzero_indices, fs_partial_sum_pl, haar_gen,
                              haar_integral, haar_scale_exp, haar_support)
from metrent.strings import (MalformedName, _dyadic, ceil_lb, decode_int,
                             encode_int, nat_str, parse_nat, parse_nats,
                             round_half_away, tuple_strs, untuple)

import fraction_reference as fr
from fraction_reference import _tight_bounds, fs_coeff, fs_eval, haar_stepform


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
    # a norm query with a malformed part is answered with epsilon
    one, seven = nat_str(1), nat_str(7)
    assert phi("1" + tuple_strs(["1000", "", one, seven])) != ""
    for rest in ("1",                                      # not a 4-tuple
                 tuple_strs(["1000", "0", one, seven]),    # N not a numeral
                 tuple_strs(["1000", "", "01", seven]),    # n not a numeral
                 tuple_strs(["1000", "", one, "0"]),       # m not a numeral
                 tuple_strs(["1", one, one, seven]),       # blob not a 2-tuple
                 tuple_strs(["00", "", one, seven])):      # z not an integer
        assert phi("1" + rest) == ""


def _encoded_int(z):
    """The integer an encoding "", "1..." or "01..." over {0, 1} stands for,
    and None for any other string."""
    if not re.fullmatch("(0?1[01]*)?", z):
        return None
    return -int(z[1:], 2) if z[:1] == "0" else int(z or "0", 2)


def _parse_norm_query_per_part(rest):
    """The norm-query parse with every part decoded and checked on its
    own: the parse to match."""
    parts = untuple(4, rest)
    if parts is None:
        return None
    blob, ns, nn, nm = parts
    N, n, m = parse_nat(ns), parse_nat(nn), parse_nat(nm)
    if N is None or n is None or m is None:
        return None
    zparts = [blob] if N == 0 else untuple(N + 1, blob)
    if zparts is None:
        return None
    zs = [_encoded_int(z) for z in zparts]
    return None if None in zs else (zs, n, m)


def _malformed_norm_queries():
    """Norm queries after the tag: every part from a corpus of integer
    encodings and non-encodings ("0", "00...", non-binary, long) in blobs of
    one to three parts, each with the right and a wrong N, and every
    one-symbol mutation and truncation of a few well-formed queries."""
    parts = ["", "1", "10", "0", "00", "000", "01", "001", "011", "0" * 70,
             "1" + "0" * 70, "0" + "1" * 70, "01" + "0" * 69, "2", "1a", "01x",
             " 1", "1_0", "-1", "1" * 69 + "2"]
    one, seven = nat_str(1), nat_str(7)
    for a in parts:
        yield tuple_strs([a, "", one, seven])
        yield tuple_strs([a, one, one, seven])
        for b in parts:
            blob = tuple_strs([a, b])
            yield tuple_strs([blob, one, one, seven])
            yield tuple_strs([blob, "", one, seven])
            yield tuple_strs([blob, nat_str(2), one, seven])
        yield tuple_strs([tuple_strs([a, "1", "01"]), nat_str(2), "", one])
    for zs in ([3], [0, -5, 2], [1, 0, 0, -1, 7]):
        q = combo_query(zs, 2, 9)[1:]
        for t in range(len(q)):
            for ch in "01\xe9":
                yield q[:t] + ch + q[t + 1:]
            yield q[:t]
        yield q + "0"
        yield q.replace("1", "\xe9", 1)


def test_norm_query_with_a_non_binary_marker_is_refused():
    # the tuple's last column ends in the marker "a", not "1"
    rest = "111110111101a001000010001000"
    assert _parse_norm_query(rest) is None
    assert _norm_answer(HaarSystem(Fraction(2)), rest) == ""


def test_norm_queries_parse_as_per_part_decoding():
    # one binary check over the parts accepts and rejects what per-part
    # decode_int does: "" and "1..." and "01..." parse, "0", "00..." and
    # non-binary text answer epsilon
    queries = list(_malformed_norm_queries())
    assert len(queries) > 1500
    parsed = 0
    for rest in queries:
        want = _parse_norm_query_per_part(rest)
        assert _parse_norm_query(rest) == want, rest
        parsed += want is not None
        if want is not None and want[1] < 8:
            # the answers of both systems follow the parse
            for system in (FSSystem(), HaarSystem(Fraction(2))):
                zs, n, m = want
                assert _norm_answer(system, rest) == encode_int(
                    system.norm_int(zs, m + 1, n + 1))
        else:
            assert want is not None or _norm_answer(FSSystem(), rest) == ""
    assert 0 < parsed < len(queries) / 2


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
    xs = sorted(set(f.xs) | set(g.xs))
    target = PiecewiseLinear.build(xs, [f(x) + g(x) for x in xs])
    for n in (0, 1, 3):
        combo = xi_decode_pl(total, n, params)
        assert sup_dist_pl(combo, target) <= Fraction(2, n + 1)
    # the recorded addition constant
    assert max(ratios) <= 16, max(ratios)


def test_banach_add_passes_norm_queries_and_refuses_bad_coefficients():
    # a hat name paired with a Haar name: their norm answers differ, and the
    # sum answers a norm query from its first component
    params, p = BanachReprParams(S=exp_max_time()), Fraction(2)
    phi = banach_name(fs_vector(fs_elem(0)), params, FSSystem(), ELL)
    psi = banach_name(haar_vector(chi(0, 1), p), params, HaarSystem(p), ELL)
    chi_n = pair_names(phi, psi)
    T = add_time()
    big = RunningTime(lambda l, n: 64 * T.bound(l, n) + 64)

    def run(a: str) -> str:
        return metered_run(banach_add_program(), chi_n, a, big,
                           name_length_fn(chi_n))[0]

    q = combo_query([4, 4], 2, 3)
    assert phi(q) != psi(q)
    assert run(q) == phi(q)
    assert run("0" + "11") == ""          # not a coefficient triple


def test_banach_name_refuses_a_support_beyond_the_span_budget():
    # S = 1 lets a name mention S + 1 = 2 basis vectors: the hat at 1/2
    # (index 2) and the Haar term of chi[0, 1/4] at index 2 lie beyond that,
    # within 1/(n+1) only for n = 0 and n <= 1 respectively
    params, p = BanachReprParams(S=const_time(1)), Fraction(2)
    hat = banach_name(fs_vector(fs_elem(2)), params, FSSystem(), ELL)
    haar = banach_name(haar_vector(chi(0, Fraction(1, 4)), p), params,
                       HaarSystem(p), ELL)
    assert decode_int(hat(coeff_query(2, 0, 3))) == 4
    assert decode_int(haar(coeff_query(0, 1, 3))) == 1
    for name, n in ((hat, 1), (haar, 2)):
        with pytest.raises(ParameterViolation):
            name(coeff_query(0, n, 3))


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


def test_value_longer_than_its_level_target_is_refused():
    # a source whose hat-3 coefficient is 2^300 leaves the translation's
    # length data, and its value at 1/2, as they were, so the value at 1/4
    # needs more symbols than its level's target
    params, system = fs_setup()
    f = PiecewiseLinear.build([0, 1], [0, 1])
    base = banach_name(fs_vector(f), params, system, ELL)

    def fn(a):
        if a[:1] == "0" and a != "0" * len(a):
            vals = parse_nats(3, a[1:])
            if vals is not None and vals[0] == 3:
                return encode_int(1 << 300)
        return base(a)

    psi = xi_to_dsq(Name(fn), params)
    assert dsq_value(psi, 0, 1, 1) == Fraction(1, 2)
    with pytest.raises(ParameterViolation, match="below the content size"):
        dsq_value(psi, 0, 1, 2)


def test_building_a_translation_reads_nothing():
    # the source is read at the first query, so an empty trace with no
    # queries translates
    p = Fraction(2)
    params = BanachReprParams(S=exp_max_time())
    for translate in (lambda src: xi_to_dsq(src, params),
                      lambda src: dsq_to_xi(src, params),
                      lambda src: xi_to_lp(src, params, p),
                      lambda src: lp_to_xi(src, params, p)):
        src, counter = counted(Name(lambda a: ""))
        translate(src)
        assert counter[0] == 0


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
            assert lp_value(psi, l, k, m, n) == -v     # the reversed interval


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
    _, m, coeff = _xi_reader(xi2, 4, params)
    assert [Fraction(coeff(i), m + 1) for i in range(4)] == [1, 0, 0, 0]


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
    support widths; generation g has the 2^(g-1) cells of [0, 1]."""
    out = {0}
    gens = ceil_lb(max_k + 1) + 1
    for g in range(1, gens + 1):
        width = Fraction(1, 1 << (g - 1))
        for x in (a, b):
            c = int(x / width)
            lo = c * width
            if lo < x < lo + width and c < 1 << (g - 1):
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
@example(Fraction(0), Fraction(3, 2), 15)   # cell 2 of generation 2 is not element 2's
def test_aligned_nonzero_indices_matches_fraction_loop(a, b, max_k):
    got = _aligned_nonzero_indices(a, b, max_k)
    assert got == _aligned_nonzero_indices_fraction(a, b, max_k)
    # an element whose open support holds neither endpoint integrates to 0
    for k in got[1:]:
        lo, _, hi = haar_support(k)
        assert k <= max_k and (lo < a < hi or lo < b < hi), k


def test_vector_builders_refuse_cuts_that_are_not_dyadic():
    # chi[0, 1/3) has no finite Haar expansion; [1/3, 1/3] would be 2/3 on
    # [0, 1/2), a different function
    with pytest.raises(ParameterViolation, match="not dyadic"):
        haar_vector(chi(0, Fraction(1, 3)), Fraction(2))
    with pytest.raises(ParameterViolation, match="not dyadic"):
        fs_vector(PiecewiseLinear.build([0, Fraction(1, 3), 1], [0, 1, 0]))
    assert haar_vector(chi(0, Fraction(1, 4)), Fraction(2)) == \
        [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(0)]


def test_haar_vector_does_not_depend_on_p():
    # a step-form list carries no p: HaarSystem(q) reads a vector built
    # with any p exactly as one built with q
    f = StepFn.build([0, Fraction(1, 4), Fraction(1, 2), 1], [1, -1, 2])
    ps = (Fraction(1), Fraction(2), Fraction(3, 2))
    for q in ps:
        system, own = HaarSystem(q), haar_vector(f, q)
        for p in ps:
            other = haar_vector(f, p)
            for i in range(6):
                assert system.coeff_int(other, i, 1000) == system.coeff_int(own, i, 1000)
            for start in range(5):
                for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                    assert system.tail_within(other, start, eps) == \
                        system.tail_within(own, start, eps)
    # lam_2 = c_2 2^(-1/p) with c_2 = 1: 2^(-1/2) at p = 2
    assert HaarSystem(Fraction(2)).coeff_int(haar_vector(f, Fraction(1)), 2, 1000) == 707
    assert haar_vector(f, Fraction(1)) == haar_vector(f, Fraction(2))


def test_fs_vector_refuses_a_jump_at_a_span_end():
    # zero outside [1/4, 1/2], so this carrier jumps to 1 at 1/4 and back
    # at 1/2; the ramp [0, 0, 1, 1/2, -1/2] is a different function
    with pytest.raises(ParameterViolation, match="span end 1/4"):
        fs_vector(PiecewiseLinear.build([Fraction(1, 4), Fraction(1, 2)], [1, 1]))
    with pytest.raises(ParameterViolation, match="span end 1/2"):
        fs_vector(PiecewiseLinear.build([0, Fraction(1, 2)], [1, 1]))
    # zero at both inner span ends: continuous, and reproduced exactly
    f = PiecewiseLinear.build([Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)], [0, 1, 0])
    assert sup_dist_pl(fs_partial_sum_pl(fs_vector(f)), f) == 0
    # no jump, but mass left of 0 that no hat coefficient sees
    with pytest.raises(ParameterViolation, match="does not reproduce"):
        fs_vector(PiecewiseLinear.build([-1, 0, 1], [1, 0, 0]))


def test_haar_vector_refuses_mass_outside_the_unit_interval():
    # level 1 on [-1/2, 1/2) and 2 on [1/2, 3/2): half of each lies outside
    # [0, 1], which no Haar coefficient sees
    p = Fraction(2)
    with pytest.raises(ParameterViolation, match="outside"):
        haar_vector(StepFn.build([Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)], [1, 2]), p)
    with pytest.raises(ParameterViolation, match="outside"):
        haar_vector(StepFn.build([0, 1, 2], [1, Fraction(-1, 4)]), p)
    # zero levels outside [0, 1] carry no mass
    assert haar_vector(StepFn.build([-1, 0, 1, 2], [0, 3, 0]), p) == [3]


# ---------------------------------------------------------------------------
# the four translations in Fraction arithmetic, as the library computed them
# before its integer cores: the reference for the answer strings

def _ref_xi_reader(phi, level, params):
    N, m, coeff = _xi_reader(phi, level, params)
    return N, lambda i: Fraction(coeff(i), m + 1)


def ref_xi_to_dsq(phi, params):
    lfn = name_length_fn(phi)

    def value_at(x, n):
        N, coeff = _ref_xi_reader(phi, (1 << (n + 3)) - 1, params)
        total = Fraction(0)
        for i in fs_nonzero_indices(x, N + 1):
            total += coeff(i) * fs_eval(i, x)
        return total

    def mu_out(t):
        a = max(lfn(t + 3), t + 3)
        b = lfn(lfn(t + 4) + (t + 4))
        return (t + 1) + 3 * a + b + 1

    size = _level_sizer(
        lambda: int(value_at(Fraction(1, 2), 0) + 2).bit_length() + 3, mu_out)

    def value(n, r, m):
        k0 = n + 2
        return round_half_away(value_at(Fraction(r, 1 << m), n) * (1 << k0)), k0

    def fn(a):
        return _value_answer(a, size, _parse_dsq_query, value, "1")

    return Name(fn, label=f"dsq({phi.label})")


def ref_dsq_to_xi(psi, params):
    mu_in = dsq_modulus(psi)

    def fval(x, n):
        return dsq_value(psi, n, *_dyadic(x))

    def coeff(i, n, m):
        prec = n + len(nat_str(m + 1)) + ceil_lb(i + 2) + 4
        lam = fs_coeff(lambda x: fval(x, prec), i)
        return round_half_away(lam * (m + 1))

    def branch(a):
        return _xi_answer(a, coeff, FSSystem())

    return _with_length_branch(branch, lambda k: max(mu_in(k + 3) + 2, k + 2),
                               f"xi({psi.label})")


def ref_xi_to_lp(phi, params, p):
    lfn = name_length_fn(phi)

    def integral_val(a, b, n):
        sign = 1
        if a > b:
            a, b, sign = b, a, -1
        N, coeff = _ref_xi_reader(phi, (1 << (n + 3)) - 1, params)
        total = fr.RootSum()
        for k in _aligned_nonzero_indices(a, b, N):
            c = coeff(k)
            if c:
                total.accumulate(fr.RootSum({haar_scale_exp(k, p): haar_integral(k, a, b)}), c)
        return total.scaled(Fraction(sign))

    def mu_out(t):
        ceil_p = -(-p.numerator // p.denominator)
        return ceil_p * (t + 2) + lfn(t + 3) + t + 7

    size = _level_sizer(lambda: int(lfn(4)) + 4, mu_out)

    def value(k, l, m, n):
        j0 = n + 2
        val = integral_val(Fraction(k, 1 << m), Fraction(l, 1 << m), n)
        lo, hi = _tight_bounds(val.scaled(Fraction(1 << j0)).bounds, Fraction(1, 16))
        return round_half_away((lo + hi) / 2), j0

    def fn(a):
        return _value_answer(a, size, _parse_lp_query, value, "")

    return Name(fn, label=f"lp({phi.label})")


def ref_lp_to_xi(psi, params, p):
    mu_in = dsq_modulus(psi)
    haar_sys = HaarSystem(Fraction(p))

    def int_val(a, b, n):
        m = max(_dyadic(a)[1], _dyadic(b)[1])
        return lp_value(psi, int(a * (1 << m)), int(b * (1 << m)), m, n)

    def coeff(i, n, m):
        prec = (m.bit_length() + 18 if i == 0
                else len(nat_str(m + 1)) + haar_gen(i) + 20)
        c = haar_stepform(lambda a, b: int_val(a, b, prec), i)
        lo, hi = (c, c) if i == 0 else fr.RootSum(
            {-haar_scale_exp(i, haar_sys.p): c}).bounds(prec + 8)
        return round_half_away((lo + hi) / 2 * (m + 1))

    def branch(a):
        return _xi_answer(a, coeff, haar_sys)

    return _with_length_branch(branch, lambda k: max(mu_in(k + 3) + 3, k + 2),
                               f"xi({psi.label})")


def _same_answers(got, want, queries):
    for a in queries:
        assert got(a) == want(a), a


# coefficient queries (i, n, m), length queries, and, for the value names,
# runs of ones: malformed queries, answered at the size thunk's length
COEFF_QUERIES = ([coeff_query(i, n, m) for i in range(9) for n in (0, 2)
                  for m in (0, 5, 99)] + ["0" * t for t in range(1, 6)])
POINT_QUERIES = ([dsq_query(n, r, m) for n in (0, 2) for m in range(4)
                  for r in range((1 << m) + 1)] + ["1" * t for t in range(1, 12)])
INTEGRAL_QUERIES = ([lp_query(k, l, m, n) for n in (0, 2) for m in range(3)
                     for k in range((1 << m) + 1) for l in range((1 << m) + 1)]
                    + ["1" * t for t in range(1, 12)])


@st.composite
def dyadic_pl(draw):
    """A piecewise-linear function on [0, 1] with breakpoints at scale <= 3."""
    scale = draw(st.integers(0, 3))
    inner = draw(st.sets(st.integers(1, (1 << scale) - 1), max_size=4)) if scale else set()
    xs = [Fraction(t, 1 << scale) for t in sorted({0, 1 << scale} | inner)]
    ys = draw(st.lists(st.integers(-8, 8), min_size=len(xs), max_size=len(xs)))
    return PiecewiseLinear.build(xs, [Fraction(y, 8) for y in ys])


@st.composite
def dyadic_step(draw):
    """A step function on [0, 1] with cuts at scale <= 3."""
    scale = draw(st.integers(0, 3))
    inner = draw(st.sets(st.integers(1, (1 << scale) - 1), max_size=3)) if scale else set()
    cuts = [Fraction(t, 1 << scale) for t in sorted({0, 1 << scale} | inner)]
    levels = draw(st.lists(st.integers(-8, 8), min_size=len(cuts) - 1,
                           max_size=len(cuts) - 1))
    return StepFn.build(cuts, [Fraction(v, 4) for v in levels])


@settings(max_examples=15, deadline=None)
@given(dyadic_pl())
def test_hat_translations_match_the_fraction_reference(f):
    params = BanachReprParams(S=exp_max_time())
    psi = delta_square_name(f, modulus_fn(continuity_modulus(f, 12)))
    xi, xi_ref = dsq_to_xi(psi, params), ref_dsq_to_xi(psi, params)
    _same_answers(xi, xi_ref, COEFF_QUERIES)
    phi = banach_name(fs_vector(f), params, FSSystem(), ELL)
    _same_answers(xi_to_dsq(phi, params), ref_xi_to_dsq(phi, params), POINT_QUERIES)
    # the round trip reads the translated coefficient name
    _same_answers(xi_to_dsq(xi, params), ref_xi_to_dsq(xi_ref, params), POINT_QUERIES)


@settings(max_examples=15, deadline=None)
@given(dyadic_step(), st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]))
def test_haar_translations_match_the_fraction_reference(f, p):
    params = BanachReprParams(S=exp_max_time())
    psi = lp_name(f, p, modulus_fn(lp_modulus(f, 2, 12)))
    xi, xi_ref = lp_to_xi(psi, params, p), ref_lp_to_xi(psi, params, p)
    _same_answers(xi, xi_ref, COEFF_QUERIES)
    phi = banach_name(haar_vector(f, p), params, HaarSystem(p), ELL)
    _same_answers(xi_to_lp(phi, params, p), ref_xi_to_lp(phi, params, p), INTEGRAL_QUERIES)
    _same_answers(xi_to_lp(xi, params, p), ref_xi_to_lp(xi_ref, params, p), INTEGRAL_QUERIES)


def _lp_coeff_and_stencil(f, p, i, m):
    """lp_to_xi's answer z to <i, 0, m> over f's integral name, and (c, K)
    for the step-form coefficient c / 2^K that the stencil reads from the
    integral answers the translation asked for."""
    psi = lp_name(f, p, modulus_fn(lp_modulus(f, 2, 8)))
    read = {}

    def spy(a):
        ans, q = psi(a), _parse_lp_query(a)
        if q is not None:
            read[q[0], q[2]] = _read_pair(ans, "")
        return ans
    xi = lp_to_xi(Name(spy, label="spy"), BanachReprParams(S=exp_max_time()), p)
    z = decode_int(xi(coeff_query(i, 0, m)))
    return z, _haar_stencil(i, lambda a, g: read[a, g])


@st.composite
def rational_step(draw):
    """A step function on [0, 1] with cuts at scale <= 3 and levels over
    1, 3, 7 or 12, whose integral answers are rounded."""
    scale = draw(st.integers(0, 3))
    inner = draw(st.sets(st.integers(1, (1 << scale) - 1), max_size=3)) if scale else set()
    cuts = [Fraction(t, 1 << scale) for t in sorted({0, 1 << scale} | inner)]
    levels = draw(st.lists(st.builds(Fraction, st.integers(-50, 50),
                                     st.sampled_from([1, 3, 7, 12])),
                           min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    return StepFn.build(cuts, levels)


@settings(max_examples=40, deadline=None)
@given(rational_step(), st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]),
       st.integers(0, 8), st.one_of(st.integers(0, 100), st.integers(0, 1 << 45)))
def test_lp_to_xi_coefficients_round_their_stencil_value(f, p, i, m):
    # z = round(c (m+1) 2^-haar_scale_exp(i, p) / 2^K), ties away from zero
    z, (c, K) = _lp_coeff_and_stencil(f, p, i, m)
    assert fr.rounds_root(z, c * (m + 1), -haar_scale_exp(i, p), 1 << K)


def test_lp_to_xi_coefficient_just_below_a_half():
    # the level v on [0, 1/2) makes the stencil value D / 2^K of element 1
    # times m + 1 = 2^40 + 1 equal to k + 1/2 - 2^-K, which rounds to k
    x = (1 << 40) + 1
    K = len(nat_str(x)) + haar_gen(1) + 22         # the query precision + 2
    D = ((1 << (K - 1)) - 1) * pow(x, -1, 1 << K) % (1 << K)
    f = StepFn.build([0, Fraction(1, 2), 1], [Fraction(D, 1 << (K - 1)), 0])
    z, (c, K2) = _lp_coeff_and_stencil(f, Fraction(2), 1, x - 1)
    assert Fraction(c, 1 << K2) == Fraction(D, 1 << K)
    assert z == D * x >> K
    assert fr.rounds_root(z, c * x, Fraction(0), 1 << K2)
