"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from metrent.baire import pair_names
from metrent.banach import (BanachReprParams, banach_name, counted,
                            delta_square_name, dsq_to_xi, dsq_value,
                            fs_vector, lp_name, lp_to_xi, lp_value,
                            xi_to_dsq, xi_to_lp)
from metrent.compact import (CompactReprParams, compact_metric_program,
                             compact_metric_time, compact_name,
                             measured_size_unit_interval,
                             name_length_fn, q_seq, unit_interval_ell,
                             unit_interval_short_approx, unit_interval_space)
from metrent.entropy import (ApproxSetSpec, PointCloud, build_large_compact,
                             check_spanning_le_covering, cloud_from_vectors,
                             dialog_cover_experiment, lorentz_bounds,
                             packing_exponent)
from metrent.funcs import (PiecewiseLinear, StepFn, approx_check,
                           continuity_modulus, lp_modulus,
                           lp_modulus_shift_check, modulus_fn, sup_dist_pl)
from metrent.machine import (RunningTime, const_time, equality_from_metric,
                             exp_max_time, metered_run)
from metrent.reprs import (cauchy_metric_program, cauchy_metric_time,
                           cauchy_name)
from metrent.schauder import (FSSystem, HaarSystem, chi_expand, fs_elem,
                              haar_integral, haar_support)
from metrent.strings import (all_strings, decode_int, encode_int, nat_str,
                             proj_value, round_half_away, tuple_strs)

from fraction_reference import fs_coeffs, sup_error


def report(criterion: int, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"C{criterion:02d} {tag} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_encoding_suite():
    start = time.monotonic()
    pool5 = list(all_strings(5))
    pool3 = list(all_strings(3))
    checked = 0
    for k in (2, 3):
        for parts in itertools.product(pool5, repeat=k):
            b = tuple_strs(parts)
            for i in range(1, k + 1):
                assert proj_value(i, k, b) == parts[i - 1]
            checked += 1
    for parts in itertools.product(pool3, repeat=4):
        b = tuple_strs(parts)
        for i in range(1, 5):
            assert proj_value(i, 4, b) == parts[i - 1]
        checked += 1
    rnd = random.Random(2024)
    for _ in range(100_000):
        parts = [rnd.choice(pool5) for _ in range(4)]
        b = tuple_strs(parts)
        i = rnd.randrange(1, 5)
        assert proj_value(i, 4, b) == parts[i - 1]
        checked += 1
    for z in range(-(1 << 16), (1 << 16) + 1):
        assert decode_int(encode_int(z)) == z
    elapsed = time.monotonic() - start
    report(1, elapsed < 10.0,
           f"{checked} tuple round-trips, 2^17+1 codec round-trips, {elapsed:.1f}s")


def test_c02_real_representation_contract():
    # full dyadic grid |num| <= 2^12, scale <= 12, n <= 64, via the integer
    # identity for round-half-away; spot checked against the generator
    violations = 0
    cells = 0
    for scale in range(13):
        den = 1 << scale
        nums = range(-(1 << 12), (1 << 12) + 1) if scale == 0 else \
            range(-(1 << 12) + 1, 1 << 12, 2)
        for num in nums:
            for n in range(65):
                t = num * (n + 1)
                z = (2 * t + den) // (2 * den) if t >= 0 else \
                    -((-2 * t + den) // (2 * den))
                if abs(t - z * den) > den:
                    violations += 1
                cells += 1
    rnd = random.Random(5)
    for _ in range(10_000):
        num = rnd.randrange(-(1 << 12), (1 << 12) + 1)
        scale = rnd.randrange(13)
        n = rnd.randrange(65)
        x = Fraction(num, 1 << scale)
        z = round_half_away(x * (n + 1))
        t = num * (n + 1)
        den = 1 << scale
        zi = (2 * t + den) // (2 * den) if t >= 0 else -((-2 * t + den) // (2 * den))
        assert z == zi
    M = unit_interval_space()
    metric = cauchy_metric_program(M)
    # the long approx_index names outgrow the library budget (C03 checks
    # budgets on short names), so this one does not bind
    unbounded = RunningTime(lambda l, n: 1 << 40)
    for _ in range(1000):
        x = Fraction(rnd.randrange(0, 257), 256)
        y = Fraction(rnd.randrange(0, 257), 256)
        phi = cauchy_name(M, lambda n, x=x: M.approx_index(x, n))
        psi = cauchy_name(M, lambda n, y=y: M.approx_index(y, n))
        n = rnd.randrange(9)
        out, _, _ = metered_run(metric, pair_names(phi, psi), nat_str(n),
                                unbounded, lambda k: 0)
        z = decode_int(out)
        if abs(abs(x - y) - Fraction(z, n + 1)) > Fraction(1, n + 1):
            violations += 1
    report(2, violations == 0, f"{cells} grid cells + 1000 metric pairs, "
           f"{violations} violations")


def test_c03_equality_contract():
    M = unit_interval_space()
    metric = cauchy_metric_program(M)
    T = cauchy_metric_time()
    prog, T_eq = equality_from_metric(metric, T)
    c = 8
    budget = RunningTime(lambda l, n: c * T_eq.bound(l, n) + c)
    l2 = lambda k: 2 * (k + 1)
    rnd = random.Random(11)
    violations = 0
    for _ in range(1000):
        x = Fraction(rnd.randrange(0, 257), 256)
        y = Fraction(rnd.randrange(0, 257), 256)
        chi_n = pair_names(cauchy_name(M, unit_interval_short_approx(x)),
                           cauchy_name(M, unit_interval_short_approx(y)))
        d = abs(x - y)
        for n in range(11):
            out, rep, _ = metered_run(prog, chi_n, "1" * n, budget, l2)
            if d <= Fraction(1, 1 << (n + 1)) and out != "1":
                violations += 1
            if d > Fraction(1, 1 << n) and out != "0":
                violations += 1
    report(3, violations == 0,
           f"1000 pairs, n <= 10, budget {c}*T(l,n+2)+{c} never exhausted, "
           f"{violations} violations")


def test_c04_dialog_bounds():
    start = time.monotonic()
    M = unit_interval_space()
    metric = cauchy_metric_program(M)
    prog, T_eq = equality_from_metric(metric, cauchy_metric_time())
    budget = RunningTime(lambda l, n: 8 * T_eq.bound(l, n) + 8)
    rnd = random.Random(42)
    points = [Fraction(rnd.randrange(0, 257), 256) for _ in range(200)]
    names = [cauchy_name(M, unit_interval_short_approx(x)) for x in points]
    l = lambda n: n
    for n in range(7):
        rep = dialog_cover_experiment(names, points, prog, budget, l, n,
                                      M.exact_dist, 0)
        assert rep.max_dialog_len <= rep.dialog_bound
        assert rep.classes_observed <= (1 << min(rep.dialog_bound, 200))
        assert rep.max_class_dist <= Fraction(1, 1 << n)
    elapsed = time.monotonic() - start
    report(4, elapsed < 120.0, f"200 samples, n <= 6, {elapsed:.1f}s")


def test_c05_entropy_sandwich():
    rnd = random.Random(77)
    for _ in range(100):
        pts = [(Fraction(rnd.randrange(0, 129), 128),
                Fraction(rnd.randrange(0, 129), 128))
               for _ in range(rnd.randrange(2, 13))]
        K = cloud_from_vectors(pts)
        for n in range(4):
            assert check_spanning_le_covering(K, n)
    # prescribed-size compact set from disjoint unit peaks
    G = 6
    w = Fraction(1, 1 << G)

    def peak(j):
        c = Fraction(2 * j - 1, 1 << G)
        xs = sorted({Fraction(0), c - w, c, c + w, Fraction(1)})
        return PiecewiseLinear.build(xs, [Fraction(x == c) for x in xs])

    zero = PiecewiseLinear.build([0, 1], [0, 0])
    K = build_large_compact(mu=lambda i: i, family=peak,
                            scale=lambda c, f: f.scaled(c), zero=zero,
                            dist=sup_dist_pl, horizon=6)
    ok = all(packing_exponent(K, n + 1) >= n for n in range(7))
    report(5, ok, "100 clouds spanning<=covering; mu(n)=n packing achieved")


def test_c06_compact_construction():
    space = unit_interval_space()
    params = CompactReprParams(ell=unit_interval_ell, S=const_time(1))
    # metered budget against l(n+2) S(l,n+2) with the recorded constant
    c = 24
    T = compact_metric_time(params)
    prog = compact_metric_program(params)
    run_budget = RunningTime(lambda l, m: 64 * T.bound(l, m) + 64)
    rnd = random.Random(6)
    violations = 0
    over = 0
    for _ in range(60):
        x = Fraction(rnd.randrange(0, 257), 256)
        y = Fraction(rnd.randrange(0, 257), 256)
        chi = pair_names(compact_name(space, params, x),
                         compact_name(space, params, y))
        lc = name_length_fn(chi)
        for n in range(9):
            out, rep, _ = metered_run(prog, chi, nat_str(n), run_budget, lc)
            z = decode_int(out)
            if abs(abs(x - y) - Fraction(z, n + 1)) > Fraction(1, n + 1):
                violations += 1
            if rep.steps_used > c * T.bound(lc, len(nat_str(n))) + c:
                over += 1
    chi_n = pair_names(compact_name(space, params, Fraction(1, 3)),
                       compact_name(space, params, Fraction(7, 8)))
    l2 = name_length_fn(chi_n)
    for n in range(9):
        _, rep, _ = metered_run(prog, chi_n, nat_str(n), run_budget, l2)
        if rep.steps_used > c * T.bound(l2, len(nat_str(n))) + c:
            over += 1
    # lower-bound clause, checked as the implication: when the span budget
    # stays below the measured size at n-1, the decoded sample's packing
    # exponent at n+1 recovers it within +1.  For strictly monotone l on
    # this space the premise only fires trivially; the monotone variant
    # l(n) = max(1, n-3) exercises the mechanism.
    def clause_holds(l) -> bool:
        for n in range(1, 7):
            if l(n) * 1 <= measured_size_unit_interval(n - 1):
                sample = [q_seq(i) for i in range(1 << (l(n) * 1))]
                cloud = PointCloud(sample,
                                   lambda i, j, s=sample: abs(s[i] - s[j]))
                if l(n) * 1 > packing_exponent(cloud, n + 1) + 1:
                    return False
        return True

    strict_ok = all(clause_holds(lambda n, s=s: n + s) for s in (0, 1, 2))
    mechanism_ok = clause_holds(lambda n: max(1, n - 3))
    report(6, violations == 0 and over == 0 and strict_ok and mechanism_ok,
           f"contract violations {violations}, budget c={c} exceedances {over}, "
           f"lower-bound clause ok (strict and monotone variants)")


def test_c07_fs_exactness():
    rnd = random.Random(7)
    for k in range(1, 6):
        grid = [Fraction(t, 1 << k) for t in range((1 << k) + 1)]
        for _ in range(4):
            ys = [Fraction(rnd.randrange(-32, 33), 16) for _ in grid]
            f = PiecewiseLinear.build(grid, ys)
            lams = fs_coeffs(f, (1 << k) + 1)
            assert sup_error(f, lams) == 0
    for j in range(65):
        lams = fs_coeffs(fs_elem(j), 65)
        assert lams == [Fraction(i == j) for i in range(65)]
    report(7, True, "exact reconstruction k <= 5; unit vectors j <= 64")


def test_c08_haar_exactness():
    # the integral of |f_{k,p}|^p over the element's own pieces is exactly
    # 1, the root sum with the single term 2^0 over its denominator
    for p in (1, 2, 3):
        system = HaarSystem(Fraction(p))
        for k in range(65):
            total = system.norm_power(system.combo_pieces([0] * k + [1], 1))
            assert total.terms == {0: total.den}, (k, p)
    for j in range(2, 33):
        lo, q, _ = haar_support(j - 1)
        for k in range(j, 33):
            assert haar_integral(k, lo, q) == 0
    rnd = random.Random(8)
    pairs = [(i, j) for i in range(13) for j in range(13) if q_seq(i) <= q_seq(j)]
    for (i, j) in pairs:
        exp = chi_expand(i, j)
        ind = None if q_seq(i) == q_seq(j) else \
            StepFn.build([q_seq(i), q_seq(j)], [1])
        for t in range(32):
            a, b = Fraction(t, 32), Fraction(t + 1, 32)
            # step-form coefficient times step-form integral: the scales
            # 2^-e and 2^e cancel
            total = Fraction(0)
            for k, c in enumerate(exp):
                if c:
                    total += c * haar_integral(k, a, b)
            expect = ind.integral(a, b) if ind is not None else Fraction(0)
            assert total == expect
    report(8, True, "unit norms, triangularity, chi-expansion all exact")


def test_c09_smoothing_lemmas():
    rnd = random.Random(9)
    strict_fail = 0
    shift_fail = 0
    for trial in range(100):
        scale = rnd.randrange(2, 5)
        cut_pool = [Fraction(k, 1 << scale) for k in range(1, 1 << scale)]
        inner = sorted(rnd.sample(cut_pool, min(3, len(cut_pool))))
        cuts = [Fraction(0)] + inner + [Fraction(1)]
        levels = [Fraction(rnd.randrange(-8, 9), 4) for _ in range(len(cuts) - 1)]
        f = StepFn.build(cuts, levels)
        for p in (1, 2):
            mu = modulus_fn(lp_modulus(f, p, 8))
            for n in range(9):
                ok, _, _ = approx_check(f, mu, n, p)
                if not ok:
                    strict_fail += 1
            if trial < 10 and not lp_modulus_shift_check(f, mu, 2, up_to=3):
                shift_fail += 1
    report(9, strict_fail == 0 and shift_fail == 0,
           f"strict failures {strict_fail}, modulus-shift failures {shift_fail}")


def _pl_corpus(rnd, count):
    out = []
    for _ in range(count):
        scale = rnd.randrange(1, 4)
        grid = [Fraction(t, 1 << scale) for t in range((1 << scale) + 1)]
        ys = [Fraction(rnd.randrange(-8, 9), 8) for _ in grid]
        out.append(PiecewiseLinear.build(grid, ys))
    return out


def _step_corpus(rnd, count):
    out = []
    for _ in range(count):
        scale = rnd.randrange(2, 4)
        pool = [Fraction(k, 1 << scale) for k in range(1, 1 << scale)]
        inner = sorted(rnd.sample(pool, min(2, len(pool))))
        cuts = [Fraction(0)] + inner + [Fraction(1)]
        levels = [Fraction(rnd.randrange(-4, 5), 2) for _ in range(len(cuts) - 1)]
        out.append(StepFn.build(cuts, levels))
    return out


def test_c10_reconstruction_roundtrips():
    params = BanachReprParams(S=exp_max_time())
    ell = lambda n: n + 4
    rnd = random.Random(10)
    worst_n = (0, 5, 10)
    fails = 0
    for f in _pl_corpus(rnd, 25):
        mu = modulus_fn(continuity_modulus(f, 16))
        psi = delta_square_name(f, mu)
        psi2 = xi_to_dsq(dsq_to_xi(psi, params), params)
        for n in worst_n:
            for (r, m) in ((1, 1), (3, 2)):
                v = dsq_value(psi2, n, r, m)
                if abs(f(Fraction(r, 1 << m)) - v) > Fraction(2, 1 << n):
                    fails += 1
    p = Fraction(2)
    for f in _step_corpus(rnd, 25):
        mu = modulus_fn(lp_modulus(f, 2, 16))
        psi = lp_name(f, p, mu)
        psi2 = xi_to_lp(lp_to_xi(psi, params, p), params, p)
        for n in worst_n:
            for (k, l, m) in ((0, 1, 0), (1, 3, 2)):
                v = lp_value(psi2, k, l, m, n)
                exact = f.integral(Fraction(k, 1 << m), Fraction(l, 1 << m))
                if abs(exact - v) > Fraction(2, 1 << n):
                    fails += 1
    # query growth of point evaluation: distinct queries below C(|phi|(n+c)+n)^2
    f = _pl_corpus(rnd, 1)[0]
    base = banach_name(fs_vector(f), params, FSSystem(), ell)
    phi, counter = counted(base)
    probe = xi_to_dsq(phi, params)
    lfn = name_length_fn(base)
    growth_ok = True
    counts = []
    for n in range(11):
        before = counter[0]
        dsq_value(probe, n, 1, 1)
        counts.append(counter[0] - before)
        if counts[-1] > 4 * (lfn(n + 4) + n) ** 2:
            growth_ok = False
    report(10, fails == 0 and growth_ok,
           f"50-function corpus, n <= 10: {fails} tolerance failures; "
           f"query counts {counts} fit 4(|phi|(n+4)+n)^2")


def test_c11_banach_packing_clause():
    from metrent.schauder import fs_separation
    alpha = fs_separation(16)
    assert alpha == 1
    C = 2                              # least c with alpha > 2^(1-c)
    horizon = 6
    l = lambda n: n + 4
    S = exp_max_time()
    elems = [fs_elem(i) for i in range(1 << horizon)]
    ok = True
    for n in range(4):
        s_trunc = min(S.bound(l, n), horizon)
        scaled = [e.scaled(Fraction(1, 1 << n)) for e in elems]
        K = PointCloud(scaled, lambda i, j: sup_dist_pl(scaled[i], scaled[j]))
        if packing_exponent(K, n + C) < s_trunc:
            ok = False
    report(11, ok, f"alpha={alpha}, C={C}, span budget truncated to {horizon}")


def test_c12_lorentz_bounds():
    rnd = random.Random(12)
    for _ in range(100):
        deltas = [Fraction(1)]
        for _ in range(14):
            deltas.append(deltas[-1] / (1 << rnd.randrange(0, 3)))
        deltas.append(deltas[-1] / (1 << 40))
        spec = ApproxSetSpec(deltas)
        n = rnd.randrange(0, 9)
        lo, hi = lorentz_bounds(spec, n)
        assert lo <= hi + 1e-12
    dyadic = ApproxSetSpec([Fraction(1, 1 << k) for k in range(16)])
    exact = all(lorentz_bounds(dyadic, n)[0] == math.log(2) * sum(range(1, n))
                for n in range(1, 10))
    report(12, exact, "100 random admissible tables; dyadic lower bound exact")
