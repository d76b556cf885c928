import random
from fractions import Fraction

import pytest

from metrent.baire import Name, pair_names
from metrent.compact import q_seq, unit_interval_approx, unit_interval_space
from metrent.machine import RunningTime, metered_run
from metrent.reprs import (MalformedName, MetricSpaceSpec,
                           cauchy_metric_program, cauchy_name, cauchy_validate,
                           co_re_reject, dyadic_line_index, dyadic_line_point,
                           dyadic_line_space, metric_answer, real_decode,
                           real_name, real_validate, relativized_cauchy_name)
from metrent.strings import (all_strings, decode_int, encode_int,
                             nat_str, round_ratio, tuple_strs, untuple)


def test_real_name_examples():
    zero = real_name(Fraction(0))
    for n in range(6):
        assert zero(nat_str(n)) == ""
    half = real_name(Fraction(1, 2))
    assert half(nat_str(1)) == encode_int(1)
    assert real_decode(real_name(Fraction(3, 4)), 3)[0] == Fraction(3, 4)


def test_real_decode_and_validate():
    phi = real_name(Fraction(1, 2))
    v, err = real_decode(phi, 3)
    assert v == Fraction(2, 4) and err == Fraction(1, 4)
    assert real_validate(phi, 8) == ("consistent", None)
    garbage = Name(lambda a: "00")
    with pytest.raises(MalformedName):
        real_decode(garbage, 1)
    assert real_validate(garbage, 2)[0] == "rejected"


def test_non_binary_answer_is_rejected():
    # an oracle answering outside {0,1} fails validation instead of escaping
    phi = Name(lambda a: "x")
    assert real_validate(phi, 3) == ("rejected", 0)
    assert cauchy_validate(phi, 3, unit_interval_space()) == ("rejected", 0)


def test_real_name_contract_grid():
    for num in range(-40, 41):
        for scale in (0, 1, 3, 5):
            x = Fraction(num, 1 << scale)
            phi = real_name(x)
            for n in (0, 1, 2, 7, 20):
                v, err = real_decode(phi, n)
                assert abs(x - v) <= err


def test_dyadic_line_enumeration():
    seen = [dyadic_line_point(i) for i in range(200)]
    for x in (Fraction(0), Fraction(1), Fraction(-3), Fraction(5, 8)):
        i = dyadic_line_index(x)
        assert dyadic_line_point(i) == x
    with pytest.raises(ValueError, match="not dyadic"):
        dyadic_line_index(Fraction(1, 3))


def test_cauchy_name_on_sequence_point():
    M = dyadic_line_space()
    x = dyadic_line_point(5)
    phi = cauchy_name(M, lambda n: 5)
    for n in range(6):
        assert phi(nat_str(n)) == nat_str(5)
    assert cauchy_validate(phi, 6, M) == ("consistent", None)


def test_cauchy_validate_rejects():
    M = dyadic_line_space()
    i0 = dyadic_line_index(Fraction(0))
    i3 = dyadic_line_index(Fraction(3))
    table = {nat_str(n): nat_str(i0) for n in range(20)}
    table[nat_str(9)] = nat_str(i3)       # 3 > 1 + 1/10
    phi = Name(lambda a: table.get(a, ""))
    assert cauchy_validate(phi, 9, M)[0] == "rejected"


def test_cauchy_metric_contract_random():
    # the long approx_index names outgrow the library budget, which C03
    # checks on short names; here the budget does not bind
    M = unit_interval_space()
    prog = cauchy_metric_program(M)
    unbounded = RunningTime(lambda l, n: 1 << 40)
    rnd = random.Random(7)
    for _ in range(200):
        x = Fraction(rnd.randrange(0, 257), 256)
        y = Fraction(rnd.randrange(0, 257), 256)
        phi = cauchy_name(M, lambda n, x=x: unit_interval_approx(x, n))
        psi = cauchy_name(M, lambda n, y=y: unit_interval_approx(y, n))
        chi = pair_names(phi, psi)
        for n in (0, 1, 3, 7):
            out, _, _ = metered_run(prog, chi, nat_str(n), unbounded,
                                    lambda k: 0)
            z = decode_int(out)
            assert abs(abs(x - y) - Fraction(z, n + 1)) <= Fraction(1, n + 1)


def test_relativized_name_layout():
    M = unit_interval_space()
    x = Fraction(3, 8)
    rel = relativized_cauchy_name(M, lambda n: unit_interval_approx(x, n))
    plain = cauchy_name(M, lambda n: unit_interval_approx(x, n))
    for n in range(8):
        assert rel("0" + nat_str(n)) == plain(nat_str(n))
    # metric branch against the exact oracle
    from metrent.strings import decode_int, tuple_strs
    rnd = random.Random(3)
    for _ in range(300):
        k, m, n = rnd.randrange(32), rnd.randrange(32), rnd.randrange(12)
        raw = rel("1" + tuple_strs([nat_str(k), nat_str(m), nat_str(n)]))
        z = decode_int(raw)
        from metrent.compact import q_seq
        assert abs(abs(q_seq(k) - q_seq(m)) - Fraction(z, n + 1)) <= Fraction(1, n + 1)
    assert rel("00" + "01") == ""        # untagged queries answer epsilon
    assert rel("") == ""


def test_relativized_metric_budget():
    from metrent.baire import pair_names
    from metrent.machine import metered_run
    from metrent.reprs import relativized_metric_program, relativized_metric_time
    M = unit_interval_space()
    prog = relativized_metric_program()
    T = relativized_metric_time()
    x, y = Fraction(1, 4), Fraction(7, 8)
    rel_x = relativized_cauchy_name(M, lambda n: unit_interval_approx(x, n))
    rel_y = relativized_cauchy_name(M, lambda n: unit_interval_approx(y, n))
    chi = pair_names(rel_x, rel_y)
    l2 = lambda k: 2 * (k + 6)
    from metrent.strings import decode_int
    for n in range(8):
        out, report, _ = metered_run(prog, chi, nat_str(n), T, l2)
        z = decode_int(out)
        assert abs(abs(x - y) - Fraction(z, n + 1)) <= Fraction(1, n + 1)
        assert report.steps_used <= report.budget


def test_product_roundtrip_and_errors():
    phi = real_name(Fraction(1, 4))
    psi = real_name(Fraction(3, 4))
    chi = pair_names(phi, psi)
    a, b = (Name(lambda q, i=i: untuple(2, chi(q))[i]) for i in (0, 1))
    for q in all_strings(5):
        assert a(q) == phi(q) and b(q) == psi(q)
    va, _ = real_decode(a, 9)
    vb, _ = real_decode(b, 9)
    assert abs(va - Fraction(1, 4)) <= Fraction(1, 10)
    assert abs(vb - Fraction(3, 4)) <= Fraction(1, 10)
    # the metric program reads its oracle as a pair and refuses one answer
    # that is not
    prog = cauchy_metric_program(unit_interval_space())
    budget = RunningTime(lambda l, n: 1000)
    with pytest.raises(MalformedName, match="not a pair"):
        metered_run(prog, Name(lambda q: "1"), nat_str(1), budget, lambda n: 1)


def test_co_re_reject_sound_and_complete():
    M = dyadic_line_space()
    x = Fraction(5, 8)
    phi = cauchy_name(M, lambda n: M.approx_index(x, n))
    assert co_re_reject(phi, M, budget=120) == ("undecided", None)
    i0 = dyadic_line_index(Fraction(0))
    i3 = dyadic_line_index(Fraction(3))
    table = {nat_str(n): nat_str(i0) for n in range(40)}
    table[nat_str(9)] = nat_str(i3)
    bad = Name(lambda a: table.get(a, ""))
    verdict, witness = co_re_reject(bad, M, budget=400)
    assert verdict == "rejected"
    i, j = witness
    assert {i, j} & {9}
    # an answer that is not a numeral rejects at the first pair
    assert co_re_reject(Name(lambda a: "01"), M, budget=10) == ("rejected", (0, 0))


def test_co_re_reject_limitless_prefix_stays_undecided():
    # a prefix consistent with a Cauchy sequence whose limit is not dyadic
    # can only ever stay undecided at finite budget
    M = dyadic_line_space()

    def third_approx(n: int) -> int:
        # truncations of the base-2 expansion of one third
        k = n.bit_length() + 3
        value = Fraction((4 ** (k // 2 + 1) - 1) // 3, 1 << (2 * (k // 2 + 1)))
        return dyadic_line_index(value)

    phi = cauchy_name(M, third_approx)
    assert co_re_reject(phi, M, budget=200) == ("undecided", None)


def test_space_without_exact_dist_is_refused():
    """Validators and the dialog check call exact_dist unguarded (metric
    queries read dist), and compact names call approx_index unguarded, so a
    spec that lacks either fails where it is built, not at its first use."""
    dist = lambda i, j: abs(q_seq(i) - q_seq(j))
    with pytest.raises(TypeError):
        MetricSpaceSpec("bare", q_seq, dist, approx_index=unit_interval_approx)
    with pytest.raises(TypeError):
        MetricSpaceSpec("bare", q_seq, dist, exact_dist=unit_interval_space().exact_dist)


def test_metric_answer_reads_the_index_metric():
    """On every library space the index metric dist(i, j) is the exact
    distance of the two points, and metric_answer's integer is its
    rounding."""
    for M in (unit_interval_space(), dyadic_line_space()):
        for i in range(40):
            for j in range(40):
                d = M.exact_dist(M.point(i), M.point(j))
                assert Fraction(*M.dist(i, j)) == d, (M.label, i, j)
                for n in range(20):
                    old = encode_int(round_ratio(d.numerator * (n + 1),
                                                 d.denominator))
                    assert metric_answer(M, tuple_strs(
                        [nat_str(i), nat_str(j), nat_str(n)])) == old


def test_index_metric_denominator_is_positive():
    """dist(i, j) is an integer pair (p, q) with q > 0, so that p/q is the
    distance and rounding it never divides by zero or flips a sign."""
    for M in (unit_interval_space(), dyadic_line_space()):
        for i in range(200):
            for j in range(200):
                p, q = M.dist(i, j)
                assert type(p) is int and type(q) is int and q > 0 and p >= 0, \
                    (M.label, i, j)


def test_line_spaces_share_one_exact_distance():
    d = unit_interval_space().exact_dist
    assert dyadic_line_space().exact_dist is d
    assert d(Fraction(1, 4), Fraction(3, 4)) == Fraction(1, 2)
    assert d(1, Fraction(3, 8)) == d(Fraction(3, 8), 1) == Fraction(5, 8)
    assert d(-2, 3) == 5 and isinstance(d(-2, 3), Fraction)
