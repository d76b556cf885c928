from fractions import Fraction

import random

import pytest
from hypothesis import given, settings, strategies as st

from metrent.baire import Name, pair_names
from metrent.machine import (BudgetExceeded, ContractViolation, Dialog,
                             RunningTime, check_monotone_sampled,
                             const_time, constructibility_program,
                             dialog_length_bound, equality_from_metric,
                             exp_max_time, first_order, is_time_constructible,
                             length_time_by_convention, length_time_by_scan,
                             metered_run, quarter_round)
from metrent.reprs import cauchy_metric_program, cauchy_metric_time
from metrent.compact import unit_interval_short_approx, unit_interval_space
from metrent.reprs import cauchy_name
from metrent.strings import (InvalidConfig, MalformedName, encode_int,
                             round_half_away)


def copy_program(ctx):
    ctx.emit(ctx.input)


def echo_query_program(ctx):
    ctx.emit(ctx.ask(""))


def test_copy_run():
    T = first_order(lambda n: 2 * n + 2)
    out, report, dialog = metered_run(copy_program, Name(lambda a: ""), "101",
                                      T, lambda n: 0)
    assert out == "101"
    assert report.steps_used <= 8
    assert dialog.query_count == 0


def test_echo_run():
    phi = Name(lambda a: "1")
    T = RunningTime(lambda l, n: l(n) + 4)
    out, report, dialog = metered_run(echo_query_program, phi, "", T, lambda n: 1)
    assert out == "1"
    assert dialog.truncated_answers == ("1",)


def test_budget_zero_always_exhausts():
    T = const_time(0)
    with pytest.raises(BudgetExceeded) as e:
        metered_run(copy_program, Name(lambda a: ""), "", T, lambda n: 0)
    assert e.value.report.budget == 0


def test_budget_report_lists_the_queries_up_to_the_overrun():
    # budget 12: "0" costs 2 + 5 (steps 8), "1" costs 2 and logs the 2
    # answer symbols the budget leaves before reading 5 (steps 15); the
    # program swallows the overrun, and its next ask raises before logging
    caught = []

    def stubborn(ctx):
        for q in ("0", "1", "00"):
            try:
                ctx.ask(q)
            except BudgetExceeded as e:
                caught.append(e.report)

    metered_run(stubborn, Name(lambda a: "11111"), "", const_time(12),
                lambda n: 5)
    assert [r.steps_used for r in caught] == [15, 18]
    for r in caught:
        assert r.queries == [("0", "11111"), ("1", "11")]


@pytest.mark.parametrize("c", [0, 1, 4])
def test_const_time_bound_is_its_constant(c):
    T = const_time(c)
    assert T.bound(lambda n: n, 3) == c


def test_dialog_length_bound_values():
    assert dialog_length_bound(0) == 2
    assert dialog_length_bound(3) == 26
    assert dialog_length_bound(10) == 222


def test_dialog_length_bound_holds_on_runs():
    phi = Name(lambda a: "01" * min(len(a), 3))

    def chatty(ctx):
        for q in ("", "0", "01", "011"):
            ctx.ask(q)
        ctx.emit("1")

    T = first_order(lambda n: 40)
    _, report, dialog = metered_run(chatty, phi, "", T, lambda n: 6)
    assert len(dialog.encode()) <= dialog_length_bound(report.budget)


answer = st.text(alphabet="01", max_size=24)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 12),
       st.one_of(st.just([]), st.lists(answer, min_size=1, max_size=1),
                 st.lists(answer, min_size=2, max_size=12),
                 st.lists(st.just(""), min_size=2, max_size=5)))
def test_dialog_encoded_length_is_the_encoding_length(count, answers):
    dialog = Dialog(count, tuple(answers))
    assert dialog.encoded_length() == len(dialog.encode())


def test_dialog_encoded_length_on_equality_runs():
    # C03-shaped runs: equality from the metric on paired grid points
    M = unit_interval_space()
    prog, T_eq = equality_from_metric(cauchy_metric_program(M),
                                      cauchy_metric_time())
    budget = RunningTime(lambda l, n: 8 * T_eq.bound(l, n) + 8)
    rnd = random.Random(11)
    for _ in range(40):
        x, y = (Fraction(rnd.randrange(0, 257), 256) for _ in range(2))
        chi = pair_names(cauchy_name(M, unit_interval_short_approx(x)),
                         cauchy_name(M, unit_interval_short_approx(y)))
        for n in range(11):
            _, _, dialog = metered_run(prog, chi, "1" * n, budget,
                                       lambda k: 2 * (k + 1))
            assert dialog.query_count >= 1
            assert dialog.encoded_length() == len(dialog.encode())
    # an input that is not 1^n is answered with epsilon, asking nothing
    out, _, dialog = metered_run(prog, chi, "10", budget, lambda k: 2 * (k + 1))
    assert out == "" and dialog.query_count == 0


def test_dialog_determinism_replay():
    # a second oracle crafted to agree on the budget-truncated answers
    # produces the same output (item (d))
    phi = Name(lambda a: "1" * (len(a) + 1))

    def prog(ctx):
        a1 = ctx.ask("0")
        a2 = ctx.ask("11")
        ctx.emit(a1 + a2)

    T = first_order(lambda n: 30)
    out1, _, dialog1 = metered_run(prog, phi, "", T, lambda n: 4)
    table = {"0": dialog1.truncated_answers[0], "11": dialog1.truncated_answers[1]}
    psi = Name(lambda a: table.get(a, "000000"))
    out2, _, dialog2 = metered_run(prog, psi, "", T, lambda n: 6)
    assert dialog1 == dialog2
    assert out1 == out2


def bounded_probe(l):
    """A name answering 1^l(|a|), with l its certified length bound."""
    return Name(lambda a: "1" * l(len(a))), l


def test_time_constructible_examples():
    probes = [bounded_probe(lambda n: n), bounded_probe(lambda n: n + 2)]
    assert is_time_constructible(exp_max_time(), probes, depth=3)
    assert is_time_constructible(first_order(lambda n: n + 1), probes, depth=4)
    assert is_time_constructible(length_time_by_convention(), probes, depth=4)
    assert not is_time_constructible(length_time_by_scan(), probes, depth=6)


def test_wrong_evaluator_is_contract_violation():
    def ev(ctx, n):
        ctx.tick(1)
        return n
    off_by_one = RunningTime(lambda l, n: n + 1, evaluator=ev)
    with pytest.raises(ContractViolation, match="computed 0 != 1"):
        is_time_constructible(off_by_one, [bounded_probe(lambda n: n)], depth=2)


def test_monotone_sampled_library_times():
    from metrent.compact import CompactReprParams, compact_metric_time
    pairs = [(lambda n: n, lambda n: n + 1),
             (lambda n: 2, lambda n: 5),
             (lambda n: n, lambda n: 2 * n + 1)]
    S = exp_max_time()
    T_compact = compact_metric_time(CompactReprParams(ell=lambda n: n, S=S))
    assert check_monotone_sampled(T_compact, pairs, depth=5)
    assert check_monotone_sampled(cauchy_metric_time(), pairs, depth=5)
    assert check_monotone_sampled(S, pairs, depth=5)
    shrinking = RunningTime(lambda l, n: max(10 - l(n) - n, 0))
    assert not check_monotone_sampled(shrinking, pairs, depth=5)
    with pytest.raises(ValueError, match="premise"):
        check_monotone_sampled(S, [(lambda n: n + 1, lambda n: n)], depth=2)


def test_metered_programs_refuse_bad_input_and_missing_evaluators():
    # the shared input step reads a numeral; a program that evaluates its
    # running time refuses, when built, one without an evaluator
    prog = cauchy_metric_program(unit_interval_space())
    with pytest.raises(MalformedName, match="not a precision index"):
        metered_run(prog, Name(lambda a: ""), "01", const_time(100),
                    lambda n: 0)
    with pytest.raises(InvalidConfig, match="no evaluator"):
        constructibility_program(RunningTime(lambda l, n: n))


def eq_setup():
    M = unit_interval_space()
    metric = cauchy_metric_program(M)
    T = cauchy_metric_time()
    prog, T_eq = equality_from_metric(metric, T)
    budget = RunningTime(lambda l, n: 8 * T_eq.bound(l, n) + 8)
    return M, prog, budget


def run_eq(M, prog, budget, x, y, n):
    phi = cauchy_name(M, unit_interval_short_approx(x))
    psi = cauchy_name(M, unit_interval_short_approx(y))
    chi = pair_names(phi, psi)
    l2 = lambda k: 2 * (k + 1)
    out, _, _ = metered_run(prog, chi, "1" * n, budget, l2)
    return out


def test_equality_same_point():
    M, prog, budget = eq_setup()
    for n in range(9):
        assert run_eq(M, prog, budget, Fraction(1, 4), Fraction(1, 4), n) == "1"


def test_equality_far_points():
    M, prog, budget = eq_setup()
    for n in range(9):
        assert run_eq(M, prog, budget, Fraction(0), Fraction(1), n) == "0"


def test_equality_sixteenth():
    M, prog, budget = eq_setup()
    d = Fraction(1, 16)
    for n in range(9):
        out = run_eq(M, prog, budget, Fraction(0), d, n)
        if d <= Fraction(1, 1 << (n + 1)):
            assert out == "1"
        if d > Fraction(1, 1 << n):
            assert out == "0"
    assert run_eq(M, prog, budget, Fraction(0), d, 2) == "1"
    assert run_eq(M, prog, budget, Fraction(0), d, 4) == "0"


def test_quarter_round_matches_fraction_rounding():
    for z in range(-300, 301):
        assert quarter_round(z) == encode_int(round_half_away(Fraction(z, 4))), z
