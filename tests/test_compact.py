import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from metrent.baire import in_kl, length_of, pair_names
from metrent.banach import (BanachReprParams, banach_name, delta_square_name,
                            dsq_to_xi, fs_vector, haar_vector, lp_name,
                            lp_to_xi)
from metrent.compact import (CompactReprParams, ParameterViolation, _q_node,
                             _with_length_branch, check_uniformly_dense,
                             compact_decode_index, compact_metric_program,
                             compact_metric_time, compact_name,
                             compact_to_relativized,
                             greedy_uniform_seq, lipschitz_cloud,
                             measured_size_unit_interval, name_length_fn,
                             q_index, q_seq, relativized_to_compact,
                             unit_interval_approx, unit_interval_ell,
                             unit_interval_short_approx, unit_interval_space)
from metrent.entropy import (PointCloud, SizeExceeded, cloud_from_vectors,
                             covering_number)
from metrent.funcs import (PiecewiseLinear, StepFn, continuity_modulus,
                           lp_modulus, modulus_fn)
from metrent.machine import RunningTime, const_time, exp_max_time, metered_run
from metrent.schauder import FSSystem, HaarSystem
from metrent.reprs import cauchy_validate
from metrent.strings import ceil_lb, decode_int, floor_lb, nat_str, tuple_strs


def params_unit(S=None):
    return CompactReprParams(ell=unit_interval_ell, S=S or const_time(1))


def test_q_seq_paper_values():
    expect = [0, 1, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
              Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8),
              Fraction(1, 16), Fraction(3, 16)]
    assert [q_seq(i) for i in range(11)] == expect
    assert q_seq(2) == Fraction(1, 2)
    assert q_seq(6) == Fraction(3, 8)
    assert q_seq(9) == Fraction(1, 16)


def test_q_node_matches_fraction_formula():
    """The integer node (c, s) against the closed form in floor and ceiling
    logarithms that q_seq used to evaluate in Fractions."""
    assert [_q_node(i) for i in range(2)] == [(0, 0), (1, 0)]
    assert [q_seq(i) for i in range(2)] == [0, 1]
    for i in range(2, 1 << 12):
        ref = Fraction(2 * (i - (1 << floor_lb(i - 1))) - 1, 1 << ceil_lb(i))
        c, s = _q_node(i)
        assert c % 2 == 1 and Fraction(c, 1 << s) == ref == q_seq(i), i
    with pytest.raises(ValueError):
        q_seq(-1)


def test_unit_interval_dist_matches_node_difference():
    M = unit_interval_space()
    for i in range(200):
        for j in range(200):
            assert M.dist(i, j, 0) == abs(q_seq(i) - q_seq(j)), (i, j)


def test_q_index_inverse():
    for i in range(300):
        assert q_index(q_seq(i)) == i


def test_measured_size():
    assert [measured_size_unit_interval(n) for n in range(9)] == \
        [0, 0, 1, 2, 3, 4, 5, 6, 7]


def test_greedy_uniform_seq_on_grid():
    grid = [Fraction(k, 16) for k in range(17)]
    K = PointCloud(grid, lambda i, j: abs(grid[i] - grid[j]))
    spec = greedy_uniform_seq(K, horizon=4)
    c_ok, s_ok, first = check_uniformly_dense(spec, grid)
    assert s_ok, first
    assert c_ok, first


def _greedy_order_by_rescan(K):
    """Reference order for greedy_uniform_seq: from the minimax center,
    append the first unchosen point farthest from the prefix, recomputing
    every distance to the prefix each round."""
    m = len(K)
    start = min(range(m), key=lambda p: (max(K.d(p, q) for q in range(m)), p))
    order = [start]
    while len(order) < m:
        best, best_d = None, None
        for p in range(m):
            if p in order:
                continue
            dmin = min(K.d(p, c) for c in order)
            if best_d is None or dmin > best_d:
                best, best_d = p, dmin
        order.append(best)
    return order


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-4, 12).map(lambda k: Fraction(k, 8)), min_size=1,
             max_size=26).map(lambda v: PointCloud(v, lambda i, j: abs(v[i] - v[j]))),
    st.tuples(st.lists(st.tuples(*[st.integers(0, 3)] * 2), min_size=1, max_size=26),
              st.sampled_from(["sup", "l1"])).map(lambda vm: cloud_from_vectors(*vm))),
    st.integers(0, 5))
def test_greedy_uniform_seq_matches_rescan(K, horizon):
    spec = greedy_uniform_seq(K, horizon)
    order = _greedy_order_by_rescan(K)
    assert [spec.seq(i) for i in range(len(K) + 2)] == \
        [K.points[order[min(i, len(K) - 1)]] for i in range(len(K) + 2)]
    for n in range(horizon + 1):
        try:
            cover = covering_number(K, n, "exact")
        except SizeExceeded:
            cover = covering_number(K, n, "greedy")
        assert spec.size_bound(n) == cover.exponent, n


def test_check_uniformly_dense_failures():
    grid = [Fraction(k, 16) for k in range(17)]
    K = PointCloud(grid, lambda i, j: abs(grid[i] - grid[j]))
    base = greedy_uniform_seq(K, horizon=4)
    stuck = type(base)(seq=lambda i: grid[0], size_bound=base.size_bound,
                       horizon=4, dist=base.dist)
    c_ok, _, first = check_uniformly_dense(stuck, grid)
    assert not c_ok and first[0] == "c"
    halved = type(base)(seq=lambda i: grid[i % 9], size_bound=base.size_bound,
                        horizon=4, dist=base.dist)
    c_ok, _, _ = check_uniformly_dense(halved, grid)
    assert not c_ok


def test_q_seq_is_uniformly_dense():
    from metrent.compact import UniformSeqSpec
    grid = [Fraction(k, 64) for k in range(65)]
    spec = UniformSeqSpec(seq=q_seq, size_bound=measured_size_unit_interval,
                          horizon=5, dist=lambda a, b: abs(a - b))
    c_ok, s_ok, first = check_uniformly_dense(spec, grid)
    assert c_ok and s_ok, first


def _approx_by_scan(x, n):
    """Reference for unit_interval_approx: the first q_i within 1/(n+1)."""
    i = 0
    while abs(q_seq(i) - x) > Fraction(1, n + 1):
        i += 1
    return i


def _approx_by_fractions(x, n):
    """Reference for unit_interval_approx: its level loop in Fractions."""
    x = Fraction(x)
    tol = Fraction(1, n + 1)
    if abs(x) <= tol:
        return 0
    if abs(x - 1) <= tol:
        return 1
    for s in range(1, max(ceil_lb(n + 1), 1) + 1):
        c = max(math.ceil((x - tol) * (1 << s)), 1) | 1
        if c < 1 << s and Fraction(c, 1 << s) - x <= tol:
            return (1 << (s - 1)) + (c + 1) // 2
    raise ValueError(f"{x} is farther than 1/{n + 1} from [0, 1]")


# compact names query their approximation indices at precision 8n+7, which
# reaches 71 for n = 8; the draw of n covers that
@settings(max_examples=300, deadline=None)
@given(st.fractions(-Fraction(1, 2), Fraction(3, 2), max_denominator=1 << 10),
       st.integers(0, 80))
def test_unit_interval_approx_matches_scan(x, n):
    if x < -Fraction(1, n + 1) or x > 1 + Fraction(1, n + 1):
        with pytest.raises(ValueError):
            unit_interval_approx(x, n)
        with pytest.raises(ValueError):
            _approx_by_fractions(x, n)
    else:
        assert unit_interval_approx(x, n) == _approx_by_scan(x, n) \
            == _approx_by_fractions(x, n)


def test_unit_interval_approx_matches_fraction_loop_on_a_grid():
    """Every p/q with q <= 12 in [-1, 2], at every precision up to 80; the
    grid holds the exact tolerance boundaries x = k/(n+1) for n < 12."""
    for q in range(1, 13):
        for p in range(-q, 2 * q + 1):
            x = Fraction(p, q)
            for n in range(81):
                try:
                    ref = _approx_by_fractions(x, n)
                except ValueError:
                    with pytest.raises(ValueError):
                        unit_interval_approx(x, n)
                else:
                    assert unit_interval_approx(x, n) == ref, (x, n)


@pytest.mark.parametrize("x, n", [(5, 3), (Fraction(-1, 2), 2), (Fraction(5, 2), 0)])
def test_unit_interval_approx_without_node_raises(x, n):
    with pytest.raises(ValueError):
        unit_interval_approx(x, n)


def _short_approx_by_fractions(x):
    """Reference for unit_interval_short_approx: the two grid neighbours at
    level |n| - 1 as Fractions, nearest first, ties to the lower index."""
    x = Fraction(x)

    def approx(n):
        k = len(nat_str(n))
        if k == 0:
            return 0
        s = k - 1
        lo = int(x * (1 << s))
        cands = {Fraction(min(max(c, 0), 1 << s), 1 << s) for c in (lo, lo + 1)}
        best = min(cands, key=lambda v: (abs(v - x), q_index(v)))
        if abs(best - x) > Fraction(1, n + 1):
            raise ParameterViolation(f"no admissible short index at precision {n}")
        return q_index(best)

    return approx


def _outcome(approx, n):
    try:
        return approx(n)
    except ParameterViolation:
        return "violation"


@settings(max_examples=300, deadline=None)
@example(Fraction(3, 4))        # equidistant from 1/2 and 1: ties go to node 1
@example(Fraction(1, 2))        # exactly 1/(n+1) from both nodes at n = 1
@given(st.one_of(st.fractions(-2, 3, max_denominator=1 << 9),
                 st.integers(-3, 3).map(Fraction),
                 st.integers(-1 << 12, 1 << 13).map(lambda k: Fraction(k, 1 << 12))))
def test_short_approx_matches_fraction_version(x):
    fast, ref = unit_interval_short_approx(x), _short_approx_by_fractions(x)
    for n in range(71):
        assert _outcome(fast, n) == _outcome(ref, n), n


def _pl():
    return PiecewiseLinear.build([0, Fraction(1, 4), Fraction(5, 8), 1],
                                 [Fraction(3, 4), Fraction(-1, 2), Fraction(5, 4), Fraction(-3, 2)])


def _step():
    return StepFn.build([0, Fraction(1, 4), Fraction(5, 8), 1],
                        [Fraction(3, 2), Fraction(-1, 2), 1])


def _banach_params():
    return BanachReprParams(S=exp_max_time())


# every factory whose names answer 0^k through _with_length_branch
LENGTH_BRANCH_NAMES = {
    "compact_name": lambda: compact_name(
        unit_interval_space(), params_unit(), Fraction(1, 2)),
    "relativized_to_compact": lambda: relativized_to_compact(
        compact_to_relativized(compact_name(unit_interval_space(), params_unit(),
                                            Fraction(5, 8)), params_unit()),
        params_unit()),
    "banach_name-hat": lambda: banach_name(
        fs_vector(_pl()), _banach_params(), FSSystem(), lambda n: n + 4),
    "banach_name-haar-p2": lambda: banach_name(
        haar_vector(_step(), Fraction(2)), _banach_params(),
        HaarSystem(Fraction(2)), lambda n: n + 4),
    "dsq_to_xi": lambda: dsq_to_xi(
        delta_square_name(_pl(), modulus_fn(continuity_modulus(_pl(), 14))),
        _banach_params()),
    "lp_to_xi": lambda: lp_to_xi(
        lp_name(_step(), Fraction(2), modulus_fn(lp_modulus(_step(), 2, 14))),
        _banach_params(), Fraction(2)),
}


def _length_query_is_scanned_length(phi, depth=8):
    """Condition (l) by exhaustive scan: 0^k answers the name's length at k,
    which fails as soon as a branch answers longer than the declared floor."""
    return all(len(phi("0" * k)) == length_of(phi, k) for k in range(depth + 1))


@pytest.mark.parametrize("factory", sorted(LENGTH_BRANCH_NAMES))
def test_length_query_is_the_declared_floor(factory):
    assert _length_query_is_scanned_length(LENGTH_BRANCH_NAMES[factory]())


def test_length_check_catches_a_branch_above_its_floor():
    phi = _with_length_branch(lambda a: "1" * (len(a) + 1), lambda k: k, "long")
    assert not _length_query_is_scanned_length(phi)


def test_compact_name_layout():
    space = unit_interval_space()
    params = params_unit()
    x = Fraction(1, 2)
    phi = compact_name(space, params, x)
    # chunks decode to an admissible index at every precision
    for n in range(9):
        i = compact_decode_index(phi, n, params)
        assert abs(q_seq(i) - x) <= Fraction(1, n + 1)


def test_compact_name_in_K_ell():
    space = unit_interval_space()
    params = params_unit()
    for x in (Fraction(0), Fraction(1), Fraction(5, 8), Fraction(3, 16)):
        phi = compact_name(space, params, x)
        assert in_kl(phi, params.ell, 7)


def test_compact_name_metric_branch_oracle():
    space = unit_interval_space()
    params = params_unit()
    phi = compact_name(space, params, Fraction(1, 4))
    rnd = random.Random(5)
    for _ in range(300):
        i, j, n = rnd.randrange(64), rnd.randrange(64), rnd.randrange(12)
        raw = phi("1" + tuple_strs([nat_str(i), nat_str(j), nat_str(n)]))
        z = decode_int(raw)
        assert abs(abs(q_seq(i) - q_seq(j)) - Fraction(z, n + 1)) <= Fraction(1, n + 1)


def test_compact_metric_contract():
    space = unit_interval_space()
    params = params_unit()
    T = compact_metric_time(params)
    prog = compact_metric_program(params)
    budget = RunningTime(lambda l, m: 64 * T.bound(l, m) + 64, label="64T+64")
    rnd = random.Random(13)
    for _ in range(30):
        x = Fraction(rnd.randrange(0, 65), 64)
        y = Fraction(rnd.randrange(0, 65), 64)
        chi = pair_names(compact_name(space, params, x),
                         compact_name(space, params, y))
        for n in (0, 1, 2, 5):
            out, _, _ = metered_run(prog, chi, nat_str(n), budget,
                                    name_length_fn(chi))
            z = decode_int(out)
            assert abs(abs(x - y) - Fraction(z, n + 1)) <= Fraction(1, n + 1)


def test_compact_metric_metered():
    space = unit_interval_space()
    params = params_unit()
    T = compact_metric_time(params)
    prog = compact_metric_program(params)
    x, y = Fraction(0), Fraction(1)
    chi = pair_names(compact_name(space, params, x),
                     compact_name(space, params, y))
    l2 = name_length_fn(chi)
    ratios = []
    for n in range(9):
        out, report, _ = metered_run(
            prog, chi, nat_str(n),
            type(T)(lambda l, m: 64 * T.bound(l, m) + 64, label="64T+64"), l2)
        z = decode_int(out)
        assert abs(abs(x - y) - Fraction(z, n + 1)) <= Fraction(1, n + 1)
        ratios.append(report.steps_used / max(T.bound(l2, len(nat_str(n))), 1))
    # the recorded constant: steps stay within c*T + c for c = 24
    assert all(r <= 24 for r in ratios), ratios


def test_compact_chunk_budget_violation():
    space = unit_interval_space()
    tiny = CompactReprParams(ell=lambda n: 0, S=const_time(1))
    phi = compact_name(space, tiny, Fraction(1))
    with pytest.raises(ParameterViolation):
        phi("0" + tuple_strs([nat_str(0), nat_str(1)]))


def test_translations_roundtrip():
    space = unit_interval_space()
    params = params_unit()
    x = Fraction(5, 8)
    phi = compact_name(space, params, x)
    rel = compact_to_relativized(phi, params)
    # the relativized name validates as a Cauchy name on the index branch
    from metrent.baire import Name
    plain = Name(lambda a: rel("0" + a))
    assert cauchy_validate(plain, 8, space) == ("consistent", None)
    back = relativized_to_compact(rel, params)
    for n in range(8):
        i = compact_decode_index(back, n, params)
        assert abs(q_seq(i) - x) <= Fraction(1, n + 1)


def test_lipschitz_instance():
    K = lipschitz_cloud(2)
    assert len(K) == 3 ** 4
    spec = greedy_uniform_seq(K, horizon=2)
    c_ok, s_ok, first = check_uniformly_dense(spec, K.points)
    assert c_ok and s_ok, first


def test_load_instance(tmp_path):
    import json
    cfg = tmp_path / "inst.json"
    cfg.write_text(json.dumps({
        "space": "unit-interval", "sequence": "q",
        "ell": [unit_interval_ell(n) for n in range(10)],
        "S": "const1", "horizon": 5}))
    from metrent.compact import load_instance
    space, params, horizon = load_instance(str(cfg))
    assert horizon == 5
    assert params.ell(3) == unit_interval_ell(3)
    phi = compact_name(space, params, Fraction(1, 2))
    assert compact_decode_index(phi, 4, params) is not None


def test_load_instance_rejects_decreasing_ell(tmp_path):
    import json
    from metrent.compact import load_instance
    cfg = tmp_path / "inst.json"
    cfg.write_text(json.dumps({"space": "unit-interval", "ell": [2, 1]}))
    with pytest.raises(ValueError, match="non-decreasing"):
        load_instance(str(cfg))
