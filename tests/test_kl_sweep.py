"""Every oracle in K_l gets a typed answer: a seeded sweep of random names
whose answers are at most l(|q|) long through every metered program, the
decoders and the six translations.  Each outcome must be a value, a
BudgetExceeded or another MetrentError; any other exception is a defect.

A random oracle is memoized (it is a Name) and answers each new query with
one draw: random bits, a well-formed tuple of numerals, an integer encoding,
a run of "1"s or, when it has a base name, that name's answer, so parsing
often gets past its first check.  Every answer is cut to l(|q|) symbols."""

import random
from fractions import Fraction

import pytest

from metrent.baire import Name, pair_names
from metrent.banach import (BanachReprParams, add_time, banach_add_program,
                            banach_name, banach_norm_program, banach_time,
                            coeff_query, combo_query, delta_square_name,
                            dsq_query, dsq_to_xi, dsq_value, lp_name,
                            lp_query, lp_to_xi, lp_value, xi_decode_pl,
                            xi_to_dsq, xi_to_lp)
from metrent.compact import (CompactReprParams, chunk_query, compact_decode_index,
                             compact_metric_program, compact_metric_time,
                             compact_name, compact_to_relativized,
                             relativized_to_compact, unit_interval_space)
from metrent.funcs import PiecewiseLinear, StepFn
from metrent.machine import (const_time, equality_from_metric, exp_max_time,
                             metered_run)
from metrent.reprs import (cauchy_index, cauchy_metric_program,
                           cauchy_metric_time, metric_query,
                           relativized_cauchy_name, relativized_metric_program,
                           relativized_metric_time)
from metrent.schauder import FSSystem, HaarSystem
from metrent.strings import MetrentError, encode_int, nat_str, tuple_strs

P = Fraction(3, 2)
SPACE = unit_interval_space()
BUDGETS = {"const1": const_time(1), "expmax": exp_max_time()}


def _bits(rnd, n):
    return "".join(rnd.choice("01") for _ in range(n))


def _kl_oracle(rnd, l, base=None):
    """A random memoized name in K_l, answering some queries as ``base``."""
    def fn(q):
        draw = rnd.randrange(4 if base is None else 6)
        if draw == 0:
            v = _bits(rnd, rnd.randrange(l(len(q)) + 1))
        elif draw == 1:
            v = tuple_strs([nat_str(rnd.randrange(16))
                            for _ in range(rnd.randrange(2, 5))])
        elif draw == 2:
            v = encode_int(rnd.randrange(-64, 64))
        elif draw == 3:
            v = "1" * rnd.randrange(l(len(q)) + 1)
        else:
            v = base(q)
        return v[:l(len(q))]
    return Name(fn, "kl-oracle")


def _random_query(rnd):
    """A random query: random bits or one of the library layouts' queries,
    with small parameters."""
    i, n, m = rnd.randrange(6), rnd.randrange(4), rnd.randrange(4)
    return rnd.choice([
        lambda: _bits(rnd, rnd.randrange(12)),
        lambda: "0" * rnd.randrange(6),
        lambda: coeff_query(i, n, m),
        lambda: combo_query([rnd.randrange(-8, 9) for _ in range(i + 1)], n, m),
        lambda: dsq_query(n, rnd.randrange((1 << m) + 1), m),
        lambda: lp_query(i, i + rnd.randrange(3), m, n),
        lambda: chunk_query(i, n),
        lambda: "0" + nat_str(i),
        lambda: metric_query(i, m, n),
    ])()


def _typed(thunk):
    """Run thunk: a value or a MetrentError is a typed outcome, and any
    other exception propagates and fails the sweep."""
    try:
        thunk()
    except MetrentError:
        pass


def _bases(rnd, l, bp, cp):
    """Library names whose answers the random oracles mix in: hat and Haar
    coefficient names, point-value and integral names, compact and
    relativized Cauchy names."""
    grid = [Fraction(t, 4) for t in range(5)]
    f = PiecewiseLinear.build(grid, [Fraction(rnd.randrange(-4, 5), 4) for _ in grid])
    g = StepFn.build(grid, [Fraction(rnd.randrange(-4, 5), 4) for _ in grid[1:]])
    vec = [Fraction(rnd.randrange(-8, 9), 8) for _ in range(rnd.randrange(1, 5))]
    x = Fraction(rnd.randrange(9), 8)
    return {
        "hat": banach_name(vec, bp, FSSystem(), l),
        "haar": banach_name(vec, bp, HaarSystem(P), l),
        "dsq": delta_square_name(f, lambda t: t + 2),
        "lp": lp_name(g, P, lambda t: t + 2),
        "compact": compact_name(SPACE, cp, x),
        "rel": relativized_cauchy_name(SPACE, lambda n: SPACE.approx_index(x, n)),
    }


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_every_kl_oracle_gets_a_typed_answer(seed, budget):
    rnd = random.Random(seed)
    S = BUDGETS[budget]
    b = rnd.randrange(2, 5)
    l = lambda n: n + b
    half = lambda n: l(n) // 2 - 1           # a pair of these is in K_l
    bp, cp = BanachReprParams(S), CompactReprParams(ell=l, S=S)
    bases = _bases(rnd, l, bp, cp)
    oracle = lambda base=None, bound=l: _kl_oracle(rnd, bound, bases.get(base))

    # the metered programs, on short inputs: the budgets grow as 2^|a|
    metrics = [(cauchy_metric_program(SPACE), cauchy_metric_time()),
               (relativized_metric_program(), relativized_metric_time()),
               (compact_metric_program(cp), compact_metric_time(cp))]
    programs = metrics + [equality_from_metric(*prog) for prog in metrics] \
        + [(banach_add_program(), add_time()), (banach_norm_program(bp), banach_time(bp))]
    for prog, T in programs:
        for base in (None, "compact", "rel", "hat", "haar"):
            for phi in (oracle(base), pair_names(oracle(base, half), oracle(base, half))):
                inputs = [nat_str(n) for n in range(4)] + [_bits(rnd, rnd.randrange(4))]
                if T.bound(l, 12) < 1000:       # long inputs only under small budgets
                    inputs.append(_random_query(rnd))
                for a in inputs:
                    _typed(lambda: metered_run(prog, phi, a, T, l))

    # the decoders
    for n in range(4):
        _typed(lambda: cauchy_index(oracle("rel"), n))
        _typed(lambda: compact_decode_index(oracle("compact"), n, cp))
        _typed(lambda: xi_decode_pl(oracle("hat"), n, bp))
        _typed(lambda: dsq_value(oracle("dsq"), n, rnd.randrange(3), 1))
        _typed(lambda: lp_value(oracle("lp"), 0, rnd.randrange(3), 1, n))

    # the six translations, asked random queries
    translations = [
        lambda: xi_to_dsq(oracle("hat"), bp),
        lambda: dsq_to_xi(oracle("dsq"), bp),
        lambda: xi_to_lp(oracle("haar"), bp, P),
        lambda: lp_to_xi(oracle("lp"), bp, P),
        lambda: compact_to_relativized(oracle("compact"), cp),
        lambda: relativized_to_compact(oracle("rel"), cp),
    ]
    for make in translations:
        for _ in range(3):
            name = make()
            for _ in range(6):
                q = _random_query(rnd)
                _typed(lambda: name(q))
