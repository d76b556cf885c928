"""Step-metered oracle runs: budgets, dialogs, and time-constructibility.

Cost model (fixed here; the oracle conventions are the usual ones):
  * one step per output symbol written,
  * one step per query symbol written plus one per oracle invocation,
  * one step per answer symbol read (answer production itself is free),
  * internal bookkeeping charges explicit ticks,
  * every run pays one setup step, so a budget of zero always exhausts.

A run's budget is T(l, |a|) where T is a second-order running time, l is a
caller-certified bound on the oracle's length function and a is the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .baire import LengthFn, Name
from .strings import (ContractError, InvalidConfig, MalformedName, all_strings,
                      decode_int, encode_int, nat_str, parse_nat,
                      round_ratio, tuple_list, tuple_strs)


class ContractViolation(ContractError):
    """A library computation broke a contract it certifies (an evaluator's
    value, an empirical covering claim); carries the offending data."""


class BudgetExceeded(ContractError, RuntimeError):
    """Raised when a metered run overruns its step budget."""

    def __init__(self, report: "MeterReport"):
        super().__init__(f"budget {report.budget} exhausted")
        self.report = report


@dataclass
class MeterReport:
    steps_used: int
    budget: int
    queries: list[tuple[str, str]] = field(default_factory=list)

    def serialize(self) -> str:
        lines = [f"{self.steps_used}\t{self.budget}"]
        lines += [f"Q\t{q}\t{p}" for q, p in self.queries]
        return "\n".join(lines)


@dataclass(frozen=True)
class Dialog:
    """Communication record of a run: query count plus the budget-truncated
    oracle answers, in query order."""

    query_count: int
    truncated_answers: tuple[str, ...]

    def encode(self) -> str:
        return tuple_strs([nat_str(self.query_count),
                           tuple_list(self.truncated_answers)])


def dialog_length_bound(t_value: int) -> int:
    """Upper bound 2(T(T+1)+1) on the encoded dialog length of a run with
    step budget T."""
    return 2 * (t_value * (t_value + 1) + 1)


class Ctx:
    """Execution context handed to programs: input, oracle port, meter."""

    def __init__(self, oracle: Name, input_str: str, budget: int):
        self.oracle = oracle
        self.input = input_str
        self.budget = budget
        self.steps = 0
        self._out: list[str] = []
        self._queries: list[tuple[str, str]] = []

    # -- accounting ---------------------------------------------------
    def _report(self) -> MeterReport:
        return MeterReport(self.steps, self.budget, list(self._queries))

    def tick(self, k: int = 1) -> None:
        """Charge k steps; BudgetExceeded once the budget is overrun."""
        self.steps += k
        if self.steps > self.budget:
            raise BudgetExceeded(self._report())

    # -- output -------------------------------------------------------
    def emit(self, s: str) -> None:
        self.tick(len(s))
        self._out.append(s)

    def output(self) -> str:
        return "".join(self._out)

    # -- oracle port ----------------------------------------------------
    def ask(self, q: str) -> str:
        """Write the query, invoke the oracle, read the full answer; the log
        keeps the part of the answer that the budget lets the run read."""
        self.tick(len(q) + 1)
        ans = self.oracle(q)
        self._queries.append((q, ans[:self.budget - self.steps]))
        self.tick(len(ans))
        return ans

    # -- composition ----------------------------------------------------
    def call(self, program: Callable[["Ctx"], None], input_str: str) -> str:
        """Run a subprogram against the same meter and oracle, capturing its
        output on a work tape (written symbols are charged as usual)."""
        saved_out, saved_in = self._out, self.input
        self._out, self.input = [], input_str
        try:
            program(self)
            return "".join(self._out)
        finally:
            self._out, self.input = saved_out, saved_in

    def dialog(self) -> Dialog:
        """The dialog of a completed run: every answer was charged in full
        within the budget, so the logged answers are the truncated ones."""
        return Dialog(len(self._queries), tuple(a for _, a in self._queries))


# ---------------------------------------------------------------------------
# shared steps of the metered metric and norm programs (none is charged)

def precision_input(ctx: Ctx) -> int:
    """The run's input read as a precision index n."""
    n = parse_nat(ctx.input)
    if n is None:
        raise MalformedName(f"input {ctx.input!r} is not a precision index")
    return n


def paired(parsed):
    """The parse of a paired oracle's answer; MalformedName when it failed
    (None)."""
    if parsed is None:
        raise MalformedName("paired oracle answer is not a pair")
    return parsed


def quarter_round(z: int) -> str:
    """The encoded integer round(z/4): a value read at precision 4n+3 put
    on the output grid of precision n."""
    return encode_int(round_ratio(z, 4))


@dataclass
class RunningTime:
    """A second-order step budget (length-function, input-size) -> steps.

    ``evaluator``, when present, is the library program computing the value
    of the bound from the oracle and the input size under the meter; it is
    what time-constructibility checks run.
    """

    bound: Callable[[LengthFn, int], int]
    label: str = ""
    evaluator: Callable[[Ctx, int], int] | None = None


def metered_run(program: Callable[[Ctx], None], phi: Name, a: str,
                T: RunningTime, l: LengthFn) -> tuple[str, MeterReport, Dialog]:
    """Execute ``program`` with oracle ``phi`` on input ``a`` under the step
    budget T(l, |a|).  ``l`` must dominate |phi| at the depths the run
    touches (caller-certified).  Raises BudgetExceeded, with the partial
    meter report attached, when the budget runs out."""
    ctx = Ctx(phi, a, T.bound(l, len(a)))
    ctx.tick(1)                       # setup step
    program(ctx)
    return ctx.output(), ctx._report(), ctx.dialog()


# ---------------------------------------------------------------------------
# library running times and their metered evaluators

def oracle_length(ctx: Ctx, k: int) -> int:
    """|phi|(k) read off a name that provides its length at 0^k."""
    return len(ctx.ask("0" * k))


def oracle_length_scan(ctx: Ctx, k: int) -> int:
    """|phi|(k) by exhaustive scan over all queries of length <= k; the
    query count alone is 2^(k+1) - 1, which is the point."""
    best = 0
    for a in all_strings(k):
        best = max(best, len(ctx.ask(a)))
    return best


def first_order(f: Callable[[int], int], label: str = "") -> RunningTime:
    def ev(ctx: Ctx, n: int) -> int:
        ctx.tick(1)
        return f(n)
    return RunningTime(lambda l, n: f(n), label or "first-order", evaluator=ev)


def const_time(c: int = 1, label: str = "S=1") -> RunningTime:
    return first_order(lambda n: c, label)


def exp_max_time(label: str = "S=2^max{l(n),n}") -> RunningTime:
    """The time-constructible bound 2^{max(l(n), n)}; its evaluator reads
    the length from the (l)-convention query 0^n."""
    def ev(ctx: Ctx, n: int) -> int:
        k = oracle_length(ctx, n)
        ctx.tick(max(n, 1))
        return 2 ** max(k, n)
    return RunningTime(lambda l, n: 2 ** max(l(n), n), label, evaluator=ev)


def length_time_by_convention(label: str = "L=l(n), via 0^n") -> RunningTime:
    return RunningTime(lambda l, n: l(n), label, evaluator=oracle_length)


def length_time_by_scan(label: str = "L=l(n), by scan") -> RunningTime:
    return RunningTime(lambda l, n: l(n), label, evaluator=oracle_length_scan)


def need_evaluator(S: RunningTime) -> None:
    """Reject, when a program is built, a running time that the program
    must evaluate under the meter but that has no evaluator."""
    if S.evaluator is None:
        raise InvalidConfig(f"running time {S.label!r} has no evaluator")


def constructibility_program(S: RunningTime) -> Callable[[Ctx], None]:
    """The program computing (phi, a) |-> S(|phi|, |a|), output in unary."""
    need_evaluator(S)

    def prog(ctx: Ctx) -> None:
        v = S.evaluator(ctx, len(ctx.input))
        ctx.emit("1" * v)
    return prog


def is_time_constructible(S: RunningTime, probe_names, depth: int,
                          c: int = 8) -> bool:
    """Run the library evaluator for S with budget c*S + c on every probe
    and input of length <= depth; True iff no run exhausts its budget.

    Each probe must carry a certified length bound (``declared_bound``).
    """
    prog = constructibility_program(S)
    budget = RunningTime(lambda l, n: c * S.bound(l, n) + c, label=f"{c}*S+{c}")
    for phi in probe_names:
        if phi.declared_bound is None:
            raise ValueError("probe names must carry a certified length bound")
        for a in all_strings(depth):
            try:
                out, _, _ = metered_run(prog, phi, a, budget, phi.declared_bound)
            except BudgetExceeded:
                return False
            expect = S.bound(phi.declared_bound, len(a))
            if out != "1" * expect:
                raise ContractViolation(
                    f"evaluator for {S.label!r} computed {len(out)} != {expect}")
    return True


def check_monotone_sampled(T: RunningTime, l_pairs, depth: int) -> bool:
    """Sampled Howard monotonicity: for every supplied (l, l') with
    l(n) <= l'(m) whenever n <= m <= depth, check T(l,n) <= T(l',m)."""
    for l, lp in l_pairs:
        ok_pair = all(l(n) <= lp(m) for m in range(depth + 1) for n in range(m + 1))
        if not ok_pair:
            raise ValueError("sample pair violates the l <= l' premise")
        for m in range(depth + 1):
            for n in range(m + 1):
                if T.bound(l, n) > T.bound(lp, m):
                    return False
    return True


# ---------------------------------------------------------------------------
# equality from the metric

def equality_from_metric(metric_program: Callable[[Ctx], None],
                         T: RunningTime) -> tuple[Callable[[Ctx], None], RunningTime]:
    """Turn a metric program (real-name output contract) into an equality
    approximator.

    The returned program, on input 1^n, runs the metric at precision index
    2^(n+2) - 1 (numeral 1^(n+2)) and answers "0" when the integer output
    exceeds 3, i.e. when the approximation is strictly above
    2^(-n-1) + 2^(-n-2), else "1".  Paired with the budget T~(l,n) = T(l,n+2)
    scaled by a constant.
    """
    def prog(ctx: Ctx) -> None:
        a = ctx.input
        if a != "1" * len(a):
            ctx.emit("")
            return
        n = len(a)
        raw = ctx.call(metric_program, "1" * (n + 2))
        z = decode_int(raw)
        ctx.tick(len(raw) + 1)
        ctx.emit("0" if z > 3 else "1")

    shifted = RunningTime(lambda l, n: T.bound(l, n + 2),
                          label=f"{T.label or 'T'}(l,n+2)")
    return prog, shifted
