"""Banach-space names over a Schauder system, the metered norm and
addition algorithms, and the concrete function-space representations:
dyadic point values with a continuity modulus for continuous functions,
dyadic-interval integrals with an L^p modulus for integrable ones, and the
translations between them and the coefficient-based names.

Name layout: the all-zeros query answers the name's own length in unary; a
"0"-tagged triple <i, n, m> answers an integer z with z/(m+1) close to the
i-th basis coefficient (valid whenever m exceeds the threshold tied to n);
a "1"-tagged quadruple <<z_0..z_N>, N, n, m> answers the norm of the given
rational combination to precision 1/(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from .baire import LengthFn, Name
from .compact import ParameterViolation, _with_length_branch, name_length_fn
from .funcs import PiecewiseLinear, StepFn
from .machine import (Ctx, RunningTime, need_evaluator, paired,
                      precision_input, quarter_round)
from .schauder import (FSSystem, HaarExpansion, HaarSystem, RootSum,
                       ScaledVal, _scale_of, _tight_bounds, fs_coeff,
                       fs_coeffs, fs_eval, fs_nonzero_indices,
                       fs_partial_sum_pl, haar_coeffs, haar_gen, haar_integral,
                       haar_scale_exp, haar_stepform, sup_error)
from .strings import (MalformedName, ceil_lb, decode_int, encode_int,
                      nat_str, parse_nat, parse_nats, proj_value,
                      round_half_away, tuple_list, tuple_strs, untuple)


@dataclass
class BanachReprParams:
    """S governs how many basis vectors a name mentions at each precision;
    it must be monotone, time-constructible, and grow past every length
    function (checked on tables by check_growth)."""

    S: RunningTime


def check_growth(S: RunningTime, l: LengthFn, candidates, depth: int) -> bool:
    """Sampled growth condition: some candidate l' has S(l', n) >= l(n) for
    all n <= depth."""
    return any(all(S.bound(lp, n) >= l(n) for n in range(depth + 1))
               for lp in candidates)


def banach_time(params: BanachReprParams) -> RunningTime:
    """The norm-budget shape l(n + ceil_lb(S(l,n+1)+1) + 1) * S(l,n+1)."""
    def bound(l: LengthFn, n: int) -> int:
        s = params.S.bound(l, n + 1)
        return l(n + ceil_lb(s + 1) + 1) * s
    return RunningTime(bound, label="l(n+lb(S+1)+1)S(l,n+1)")


# ---------------------------------------------------------------------------
# coefficient data for library vectors

def fs_vector(f: PiecewiseLinear) -> list[Fraction]:
    """Exact finite hat-coefficient list of a piecewise-linear function with
    dyadic breakpoints."""
    scale = max((_scale_of(x) for x in f.xs), default=0)
    lams = fs_coeffs(f, (1 << scale) + 1)
    if sup_error(f, lams) != 0:
        raise ParameterViolation("breakpoints are not dyadic at the claimed scale")
    return lams


def haar_vector(f: StepFn, p: Fraction) -> HaarExpansion:
    """Exact finite Haar expansion of a step function with dyadic cuts."""
    scale = max((_scale_of(x) for x in f.cuts), default=0)
    return haar_coeffs(f, p, 1 << scale)


# ---------------------------------------------------------------------------
# name generation

def banach_name(vec, params: BanachReprParams, system, ell: LengthFn,
                label: str = "") -> Name:
    """Name of the vector with exact coefficients ``vec`` (a Fraction list
    for the hat system, a HaarExpansion for the Haar system).

    The coefficient branch answers round(lam_i * (m+1)) for every (i, n, m);
    whenever the span budget S(ell, |n|) cannot hold the vector's support
    within precision 1/(n+1) the name raises ParameterViolation.
    """
    @cache
    def tail_ok(n: int) -> bool:
        cutoff = params.S.bound(ell, len(nat_str(n))) + 1
        return system.tail_within(vec, cutoff, Fraction(1, n + 1))

    def coeff(i: int, n: int, m: int) -> int:
        if not tail_ok(n):
            raise ParameterViolation(
                f"span budget at precision {n} cannot approximate the vector")
        return system.coeff_int(vec, i, m + 1)

    def branch(a: str) -> str:
        return _xi_answer(a, coeff, system)

    return _with_length_branch(branch, ell, label or "xi-name")


def _xi_answer(a: str, coeff: Callable[[int, int, int], int], system) -> str:
    """Answer of a coefficient name's branch to a query a that is not all
    zeros: "0" + <i, n, m> answers coeff(i, n, m), the integer z with
    z/(m+1) close to the i-th coefficient, and epsilon when the triple does
    not parse; every other query is a norm query over ``system``."""
    if a[0] == "0":
        vals = parse_nats(3, a[1:])
        return "" if vals is None else encode_int(coeff(*vals))
    return _norm_answer(system, a[1:])


def _norm_answer(system, rest: str) -> str:
    """Answer to the norm query "1" + rest: round(norm * (n+1)) of the
    queried combination, from a certified enclosure tight enough that the
    answer stays within 1/(n+1) of the norm; epsilon when rest does not
    parse."""
    parsed = _parse_norm_query(rest)
    if parsed is None:
        return ""
    zs, n, m = parsed
    coeffs = [Fraction(z, m + 1) for z in zs]
    lo, hi = _tight_bounds(lambda prec: system.norm_bounds(coeffs, prec),
                           Fraction(1, 4 * (n + 1)))
    return encode_int(round_half_away((lo + hi) / 2 * (n + 1)))


def combo_query(zs: list[int], n: int, m: int) -> str:
    """The norm-branch query for the combination sum z_i/(m+1) e_i."""
    blob = tuple_list([encode_int(z) for z in zs])
    return "1" + tuple_strs([blob, nat_str(len(zs) - 1), nat_str(n), nat_str(m)])


def _parse_norm_query(rest: str) -> tuple[list[int], int, int] | None:
    """Inverse of combo_query after the tag: (z_0..z_N, n, m), or None."""
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
    try:
        return [decode_int(z) for z in zparts], n, m
    except ValueError:
        return None


def coeff_query(i: int, n: int, m: int) -> str:
    return "0" + tuple_strs([nat_str(i), nat_str(n), nat_str(m)])


def _coeff_plan(S_at: Callable[[int], int], digits: int,
                level: int) -> tuple[int, int]:
    """(N, m) for reading a coefficient name at precision ``level``, whose
    numeral has ``digits`` digits: the span N = S(l, digits) and the
    denominator parameter m = (S(l, digits+1) + 1)(level+1) + 1, from
    S_at(k) = S(l, k).  S_at(digits) is asked first."""
    N = S_at(digits)
    return N, (S_at(digits + 1) + 1) * (level + 1) + 1


def _xi_reader(phi: Name, level: int, params: BanachReprParams
               ) -> tuple[int, Callable[[int], Fraction]]:
    """The span N of a coefficient name at precision ``level`` and the
    accessor i -> z_i/(m+1) asking <i, level, m>, (N, m) from _coeff_plan."""
    l = name_length_fn(phi)
    N, m = _coeff_plan(lambda k: params.S.bound(l, k), len(nat_str(level)),
                       level)

    def coeff(i: int) -> Fraction:
        return Fraction(decode_int(phi(coeff_query(i, level, m))), m + 1)
    return N, coeff


def xi_decode_pl(phi: Name, n: int, params: BanachReprParams) -> PiecewiseLinear:
    """Decoded hat combination at precision level n (within 2/(n+1) of the
    represented function in supremum norm)."""
    N, coeff = _xi_reader(phi, n, params)
    return fs_partial_sum_pl([coeff(i) for i in range(N + 1)])


# ---------------------------------------------------------------------------
# metered norm and addition

def banach_norm_program(params: BanachReprParams) -> Callable[[Ctx], None]:
    """Norm to precision 1/(n+1) from a single name as oracle.

    Coefficients are read at level 8n+7 (combination within 1/(4(n+1)) of
    the vector), the norm branch is asked at precision 4n+3, and z''/4 is
    rounded to the output grid; the error terms add to the contract.
    """
    S = params.S
    need_evaluator(S)

    def prog(ctx: Ctx) -> None:
        n = precision_input(ctx)
        np = 8 * n + 7
        na = nat_str(np)
        N, m = _coeff_plan(lambda k: S.evaluator(ctx, k), len(na), np)
        zs = [decode_int(ctx.ask(coeff_query(i, np, m))) for i in range(N + 1)]
        ctx.tick(len(na) + 2)
        raw = ctx.ask(combo_query(zs, 4 * n + 3, m))
        zpp = decode_int(raw)
        ctx.tick(len(raw) + 2)
        ctx.emit(quarter_round(zpp))
    return prog


def banach_add_program() -> Callable[[Ctx], None]:
    """Realizer of vector addition over a paired oracle <phi, psi>: the
    input is a query to the sum's name and the output is its value.

    Coefficient queries pass through at doubled precision (level 2n+1) and
    are added; norm queries pass through the first component; the length
    branch pads two above the components' next level.
    """
    def prog(ctx: Ctx) -> None:
        a = ctx.input
        if a == "0" * len(a):
            ans = ctx.ask("0" * (len(a) + 1))
            paired(proj_value(1, 2, ans))
            ctx.tick(2)
            ctx.emit("1" * (max(len(ans) // 2, len(a) + 1) + 2))
            return
        if a[0] == "0":
            vals = parse_nats(3, a[1:])
            if vals is None:
                ctx.emit("")
                return
            i, n, m = vals
            ans = ctx.ask(coeff_query(i, 2 * n + 1, m))
            za, zb = paired(untuple(2, ans))
            z = decode_int(za) + decode_int(zb)
            ctx.tick(len(ans) + 2)
            ctx.emit(encode_int(z))
            return
        first = paired(proj_value(1, 2, ctx.ask(a)))
        ctx.tick(2)
        ctx.emit(first)
    return prog


def add_time(kappa: int = 8) -> RunningTime:
    return RunningTime(lambda l, n: kappa * (l(n + 1) + n + 1) + kappa,
                       label="l(n+1)+n+1")


# ---------------------------------------------------------------------------
# point-value names for continuous functions

def _uniform_value(q0: int, k0: int, target: int, kind: str) -> str:
    """Scale (q0, k0) to (q0*2^j, k0+j) so the padded pair has the exact
    target component size; the scale block is "1" followed by k zeros for
    point values and a bare run of j zeros for integral values."""
    tail_extra = 1 if kind == "dsq" else 0
    base = max(len(encode_int(q0)), k0 + tail_extra)
    j = target - base
    if j < 0:
        raise ParameterViolation("length target below the content size")
    q_enc = encode_int(q0) + "0" * j if q0 != 0 else ""
    tail = ("1" if kind == "dsq" else "") + "0" * (k0 + j)
    return tuple_strs([q_enc, tail])


def _level_sizer(B: int, mu: Callable[[int], int]) -> Callable[[int], int]:
    """Memoized per-level component target max(B + t + 3, ceil(mu(t)/2) + 1);
    the supplied modulus must be non-decreasing, which makes the target
    non-decreasing too."""
    return cache(lambda t: max(B + t + 3, -(-mu(t) // 2) + 1))


def _value_answer(a: str, size: Callable[[int], int], parse, value,
                  kind: str) -> str:
    """Answer of a point-value (kind "dsq") or integral (kind "lp") name to
    the query a: value(*parse(a)) = (q0, k0) padded to the component size
    of a's level, or, when a does not parse, 1^(2(size+1)), which is as
    long as every value answer at that level."""
    target = size(len(a))
    parsed = parse(a)
    if parsed is None:
        return "1" * (2 * (target + 1))
    return _uniform_value(*value(*parsed), target, kind)


def _unary(s: str) -> int | None:
    """n for the unary block 0^n, else None."""
    return len(s) if s == "0" * len(s) else None


def _scale_block(s: str) -> int | None:
    """m for the unary scale block 1 0^m, else None."""
    return _unary(s[1:]) if s[:1] == "1" else None


def delta_square_name(f: PiecewiseLinear, mu: Callable[[int], int],
                      label: str = "") -> Name:
    """Point-value name of a continuous function: the query
    <0^n, r, 1 0^m> answers <q, 1 0^k> with |f(r 2^-m) - q 2^-k| <= 2^-n,
    every value at query length t has one fixed length, and that length
    realizes a modulus of continuity of f (it dominates mu)."""
    size = _level_sizer(int(f.sup_norm()).bit_length() + 2, mu)

    def value(n: int, r: int, m: int) -> tuple[int, int]:
        k0 = n + 1
        return round_half_away(f(Fraction(r, 1 << m)) * (1 << k0)), k0

    def fn(a: str) -> str:
        return _value_answer(a, size, _parse_dsq_query, value, "dsq")

    return Name(fn, label=label or "dsq-name")


def dsq_query(n: int, r: int, m: int) -> str:
    return tuple_strs(["0" * n, nat_str(r), "1" + "0" * m])


def _parse_dsq_query(a: str) -> tuple[int, int, int] | None:
    """Point queries are <0^n, r, 1 0^m> with r <= 2^m: a unary precision
    block, the numerator numeral, and a unary scale block."""
    parts = untuple(3, a)
    if parts is None:
        return None
    zs, rs, ms = parts
    n, r, m = _unary(zs), parse_nat(rs), _scale_block(ms)
    if n is None or r is None or m is None or r > 1 << m:
        return None
    return n, r, m


def dsq_value(psi: Name, n: int, r: int, m: int) -> Fraction:
    raw = psi(dsq_query(n, r, m))
    pair = untuple(2, raw)
    k = None if pair is None else _scale_block(pair[1])
    if k is None:
        raise MalformedName(f"bad point-value answer {raw!r}")
    return Fraction(decode_int(pair[0]), 1 << k)


def dsq_modulus(psi: Name) -> Callable[[int], int]:
    """The modulus a point-value or integral name realizes: its answer
    length at query length t (answers at one query length share a
    length)."""
    return lambda t: len(psi("1" * t))


# ---------------------------------------------------------------------------
# integral names for integrable functions

def _parse_lp_query(a: str) -> tuple[int, int, int, int] | None:
    """Integral queries are <k, l, 1 0^m, 0^n>: endpoint numerals, a unary
    scale block, and a unary precision block (binary precision would force
    exponentially long answers, destroying the modulus-as-length design)."""
    parts = untuple(4, a)
    if parts is None:
        return None
    ks, ls, ms, ns = parts
    k, l, m, n = parse_nat(ks), parse_nat(ls), _scale_block(ms), _unary(ns)
    if k is None or l is None or m is None or n is None:
        return None
    return k, l, m, n


def lp_name(f: StepFn, p: Fraction, mu: Callable[[int], int],
            label: str = "") -> Name:
    """Integral name: the query <k, l, 1 0^m, 0^n> answers <q, 0^j> with
    the integral of f from k 2^-m to l 2^-m strictly within 2^-n of
    q 2^-j; lengths are uniform per level and dominate the L^p modulus mu."""
    size = _level_sizer(
        max(int(sum(abs(l) for l in f.levels)), 1).bit_length() + 2, mu)

    def value(k: int, l: int, m: int, n: int) -> tuple[int, int]:
        j0 = n + 2
        val = f.integral(Fraction(k, 1 << m), Fraction(l, 1 << m))
        return round_half_away(val * (1 << j0)), j0

    def fn(a: str) -> str:
        return _value_answer(a, size, _parse_lp_query, value, "lp")

    return Name(fn, label=label or "lp-name")


def lp_query(k: int, l: int, m: int, n: int) -> str:
    return tuple_strs([nat_str(k), nat_str(l), "1" + "0" * m, "0" * n])


def lp_value(psi: Name, k: int, l: int, m: int, n: int) -> Fraction:
    raw = psi(lp_query(k, l, m, n))
    pair = untuple(2, raw)
    j = None if pair is None else _unary(pair[1])
    if j is None:
        raise MalformedName(f"bad integral answer {raw!r}")
    return Fraction(decode_int(pair[0]), 1 << j)


# ---------------------------------------------------------------------------
# translations: coefficients <-> point values

def counted(phi: Name) -> tuple[Name, list]:
    """Wrap a name so distinct queries are counted (slot 0 of the list)."""
    counter = [0]

    def fn(a: str) -> str:
        counter[0] += 1
        return phi(a)

    return Name(fn, label=f"counted({phi.label})"), counter


def xi_to_dsq(phi: Name, params: BanachReprParams, label: str = "") -> Name:
    """Point-value name computed from a hat-coefficient name.

    A value at (n, r, m) reads the coefficient branch at level 2^(n+3) - 1
    for the at most two nonzero hats per generation at the point; the
    output lengths are driven by the modulus bound assembled from the
    queried length data."""
    lfn = name_length_fn(phi)

    def value_at(x: Fraction, n: int) -> Fraction:
        N, coeff = _xi_reader(phi, (1 << (n + 3)) - 1, params)
        total = Fraction(0)
        for i in fs_nonzero_indices(x, N + 1):
            total += coeff(i) * fs_eval(i, x)
        return total

    def mu_out(t: int) -> int:
        a = max(lfn(t + 3), t + 3)
        b = lfn(lfn(t + 4) + (t + 4))
        return (t + 1) + 3 * a + b + 1

    base = int(value_at(Fraction(1, 2), 0) + 2).bit_length() + 3
    size = _level_sizer(base, mu_out)

    def value(n: int, r: int, m: int) -> tuple[int, int]:
        k0 = n + 2
        return round_half_away(value_at(Fraction(r, 1 << m), n) * (1 << k0)), k0

    def fn(a: str) -> str:
        return _value_answer(a, size, _parse_dsq_query, value, "dsq")

    return Name(fn, label=label or f"dsq({phi.label})")


def dsq_to_xi(psi: Name, params: BanachReprParams, label: str = "") -> Name:
    """Hat-coefficient name computed from a point-value name via the local
    midpoint-deviation formula; norm queries are answered by exact library
    evaluation of the queried combination."""
    mu_in = dsq_modulus(psi)
    fs_system = FSSystem()

    def fval(x: Fraction, n: int) -> Fraction:
        m = _scale_of(x)
        return dsq_value(psi, n, int(x * (1 << m)), m)

    def coeff(i: int, n: int, m: int) -> int:
        prec = n + len(nat_str(m + 1)) + ceil_lb(i + 2) + 4
        lam = fs_coeff(lambda x: fval(x, prec), i)
        return round_half_away(lam * (m + 1))

    def ell_out(k: int) -> int:
        return max(mu_in(k + 3) + 2, k + 2)

    def branch(a: str) -> str:
        return _xi_answer(a, coeff, fs_system)

    return _with_length_branch(branch, ell_out, label or f"xi({psi.label})")


# ---------------------------------------------------------------------------
# translations: coefficients <-> integrals

def _aligned_nonzero_indices(a: Fraction, b: Fraction, max_k: int) -> list[int]:
    """Basis indices k <= max_k whose integral over [a, b] can be nonzero:
    per generation, the at most one element per endpoint whose support
    strictly contains it, plus the constant element.  Supports wholly
    inside or outside the interval integrate to zero.  Generation g's
    supports are the cells (c, c+1) 2^-(g-1), c >= 0, so an endpoint p/q
    lies strictly inside cell c = floor(p 2^(g-1) / q) when the division
    leaves a remainder."""
    out = {0}
    gens = ceil_lb(max_k + 1) + 1
    ends = [(x.numerator, x.denominator) for x in (a, b)]
    for g in range(1, gens + 1):
        for p, q in ends:
            c, r = divmod(p << (g - 1), q)
            k = (1 << (g - 1)) + c                 # node (2c+1) 2^-g
            if r and c >= 0 and k <= max_k:
                out.add(k)
    return sorted(out)


def xi_to_lp(phi: Name, params: BanachReprParams, p: Fraction,
             label: str = "") -> Name:
    """Integral name computed from a Haar-coefficient name: the integral of
    the level-(2^(n+3)-1) combination over the requested dyadic interval is
    evaluated symbolically from the at most two contributing elements per
    generation."""
    lfn = name_length_fn(phi)

    def integral_val(a: Fraction, b: Fraction, n: int) -> RootSum:
        sign = 1
        if a > b:
            a, b, sign = b, a, -1
        N, coeff = _xi_reader(phi, (1 << (n + 3)) - 1, params)
        total = RootSum()
        for k in _aligned_nonzero_indices(a, b, N):
            c = coeff(k)
            if not c:
                continue
            term = haar_integral(k, p, a, b)
            total = total.plus(RootSum.of(ScaledVal(term.coef * c, term.exp2)))
        return total.scaled(Fraction(sign))

    def mu_out(t: int) -> int:
        # linear modulus bound from the queried length data; the worst-case
        # closed form is exponential in t and is never attained by the
        # library's carriers (tests compare against the exact modulus)
        ceil_p = -(-p.numerator // p.denominator)
        return ceil_p * (t + 2) + lfn(t + 3) + t + 7

    size = _level_sizer(int(lfn(4)) + 4, mu_out)

    def value(k: int, l: int, m: int, n: int) -> tuple[int, int]:
        j0 = n + 2
        val = integral_val(Fraction(k, 1 << m), Fraction(l, 1 << m), n)
        lo, hi = _tight_bounds(val.scaled(Fraction(1 << j0)).bounds, Fraction(1, 16))
        return round_half_away((lo + hi) / 2), j0

    def fn(a: str) -> str:
        return _value_answer(a, size, _parse_lp_query, value, "lp")

    return Name(fn, label=label or f"lp({phi.label})")


def lp_to_xi(psi: Name, params: BanachReprParams, p: Fraction,
             label: str = "") -> Name:
    """Haar-coefficient name computed from an integral name via the local
    half-support integral differences; norm queries are answered by exact
    library evaluation."""
    mu_in = dsq_modulus(psi)
    haar_sys = HaarSystem(Fraction(p))

    def int_val(a: Fraction, b: Fraction, n: int) -> Fraction:
        m = max(_scale_of(a), _scale_of(b))
        return lp_value(psi, int(a * (1 << m)), int(b * (1 << m)), m, n)

    def coeff(i: int, n: int, m: int) -> int:
        # c_0 is exact; c_i (i >= 1) is lam_i in step form, whose symbolic
        # scale is enclosed
        prec = (m.bit_length() + 18 if i == 0
                else len(nat_str(m + 1)) + haar_gen(i) + 20)
        c = haar_stepform(lambda a, b: int_val(a, b, prec), i)
        lo, hi = (c, c) if i == 0 else RootSum.of(
            ScaledVal(c, -haar_scale_exp(i, haar_sys.p))).bounds(prec + 8)
        return round_half_away((lo + hi) / 2 * (m + 1))

    def ell_out(k: int) -> int:
        return max(mu_in(k + 3) + 3, k + 2)

    def branch(a: str) -> str:
        return _xi_answer(a, coeff, haar_sys)

    return _with_length_branch(branch, ell_out, label or f"xi({psi.label})")
