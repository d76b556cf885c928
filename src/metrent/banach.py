"""Banach-space names over a Schauder system, the metered norm and
addition algorithms, and the concrete function-space representations:
dyadic point values with a continuity modulus for continuous functions,
dyadic-interval integrals with an L^p modulus for integrable ones, and the
translations between them and the coefficient-based names.

Name layout: the all-zeros query answers the name's own length in unary; a
"0"-tagged triple <i, n, m> answers round(lam_i (m+1)), ties away from
zero, in both systems, where lam_i is the i-th basis coefficient (for a
translated name, the value its stencil reads), valid whenever m exceeds the
threshold tied to n; a "1"-tagged quadruple <<z_0..z_N>, N, n, m> answers
an integer z with z/(n+1) within 1/(n+1) of the norm of sum z_k/(m+1) e_k,
which the system rounds from the integers z_k (``norm_int``).  The hat
system answers round((n+1) times the norm), ties away from zero.  The Haar
system answers the rounded midpoint of the first enclosure of that product
at most 1/4 wide, within 1/2 + 1/8 of it, so near a half it can be one off
the rounding: the one answer of either layout with a tolerance.

The translations compute on integers; they build Fractions only for the
public answers (``dsq_value``, ``lp_value``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable

from .baire import LengthFn, Name
from .compact import (ParameterViolation, _with_length_branch,
                      name_length_fn)
from .machine import (Ctx, RunningTime, need_evaluator, paired,
                      precision_input, quarter_round)
from .funcs import PiecewiseLinear, StepFn, sup_dist_pl
from .schauder import (FSSystem, HaarSystem, _cell_hats, _enclosure_nums,
                       _grid_hats, _haar_sign_integral, _haar_stencil,
                       _hat_num, _hat_stencil, _round_enclosure, _round_root,
                       fs_nonzero_indices, fs_partial_sum_pl, haar_coeffs,
                       haar_gen)
from .strings import (MalformedName, _binary_int, _Record, ceil_lb,
                      decode_int, encode_int, is_binstr, nat_str, parse_nat,
                      parse_nats, proj_value, round_half_away, round_ratio,
                      tuple_list, tuple_strs, untuple)


class BanachReprParams(_Record):
    """S governs how many basis vectors a name mentions at each precision;
    it must be monotone, time-constructible, and grow past every length
    function (checked on tables by check_growth)."""

    def __init__(self, S: RunningTime):
        self.S = S


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
    return RunningTime(bound)


# ---------------------------------------------------------------------------
# coefficient data for library vectors

def _dyadic_scale(f) -> int:
    """s with the carrier's breakpoint denominator 2^s; ParameterViolation
    when a breakpoint is not dyadic."""
    s = f._d.bit_length() - 1
    if f._d != 1 << s:
        raise ParameterViolation(f"breakpoints over {f._d} are not dyadic: "
                                 "the coefficient list would be inexact")
    return s


def fs_vector(f: PiecewiseLinear) -> list[Fraction]:
    """Exact finite hat-coefficient list of a piecewise-linear function with
    dyadic breakpoints and no jump (a nonzero span end inside (0, 1)): the
    hat stencil on f's values at the grid of its breakpoints' scale."""
    x, d = f._x, f._d
    for t, y in ((x[0], f._y[0]), (x[-1], f._y[-1])):
        if y != 0 and 0 < t < d:
            raise ParameterViolation(
                f"the function jumps to zero at its span end {Fraction(t, d)}")
    s = _dyadic_scale(f)
    vals, den = f._at(1, range(d + 1))
    lams = _grid_hats(vals, s, d + 1)                       # over 2 den
    # exactness is structural at the breakpoints' scale; verify it
    if sup_dist_pl(f, fs_partial_sum_pl(lams).scaled(Fraction(1, 2 * den))):
        raise ParameterViolation("the hat expansion does not reproduce the function")
    return [Fraction(a, 2 * den) for a in lams]


def haar_vector(f: StepFn, p: Fraction) -> list[Fraction]:
    """Exact finite step-form Haar coefficient list of a step function with
    dyadic cuts, zero outside [0, 1].  Step form does not depend on p,
    which only HaarSystem reads; p is unread here."""
    c, d = f._x, f._d
    for a, b, level in zip(c, c[1:], f._y):
        if level != 0 and (a < 0 or b > d):
            raise ParameterViolation(
                f"level {Fraction(level, f._yd)} on [{Fraction(a, d)}, "
                f"{Fraction(b, d)}) outside [0, 1]")
    return haar_coeffs(f, 1 << _dyadic_scale(f))


# ---------------------------------------------------------------------------
# name generation

def banach_name(vec, params: BanachReprParams, system, ell: LengthFn) -> Name:
    """Name of the vector with exact coefficients ``vec`` (hat coefficients
    for the hat system, step-form coefficients for the Haar system).

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

    return _with_length_branch(branch, ell, "xi-name")


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
    queried combination, which ``system.norm_int`` keeps within 1/(n+1) of
    the norm; epsilon when rest does not parse."""
    parsed = _parse_norm_query(rest)
    if parsed is None:
        return ""
    zs, n, m = parsed
    return encode_int(system.norm_int(zs, m + 1, n + 1))


def combo_query(zs: list[int], n: int, m: int) -> str:
    """The norm-branch query for the combination sum z_i/(m+1) e_i."""
    blob = tuple_list([encode_int(z) for z in zs])
    return "1" + tuple_strs([blob, nat_str(len(zs) - 1), nat_str(n), nat_str(m)])


def _parse_norm_query(rest: str) -> tuple[list[int], int, int] | None:
    """Inverse of combo_query after the tag: (z_0..z_N, n, m), or None.  A
    tuple's markers and padding are binary, so rest is binary exactly when
    every part is, and each part is decoded unchecked."""
    parts = untuple(4, rest) if is_binstr(rest) else None
    if parts is None:
        return None
    blob, ns, nn, nm = parts
    N, n, m = parse_nat(ns), parse_nat(nn), parse_nat(nm)
    if N is None or n is None or m is None:
        return None
    zparts = [blob] if N == 0 else untuple(N + 1, blob)
    if zparts is None:
        return None
    zs = [_binary_int(z) for z in zparts]
    return None if None in zs else (zs, n, m)


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
               ) -> tuple[int, int, Callable[[int], int]]:
    """(N, m, z): a coefficient name's span and denominator parameter at
    ``level`` (_coeff_plan); z(i) asks <i, level, m>, z(i)/(m+1) ~ lam_i."""
    l = name_length_fn(phi)
    N, m = _coeff_plan(lambda k: params.S.bound(l, k), len(nat_str(level)),
                       level)

    def coeff(i: int) -> int:
        return decode_int(phi(coeff_query(i, level, m)))
    return N, m, coeff


def xi_decode_pl(phi: Name, n: int, params: BanachReprParams) -> PiecewiseLinear:
    """Decoded hat combination at precision level n (within 2/(n+1) of the
    represented function in supremum norm)."""
    N, m, coeff = _xi_reader(phi, n, params)
    return fs_partial_sum_pl([Fraction(coeff(i), m + 1) for i in range(N + 1)])


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


def add_time() -> RunningTime:
    return RunningTime(lambda l, n: 8 * (l(n + 1) + n + 1) + 8)


# ---------------------------------------------------------------------------
# point-value names for continuous functions

def _uniform_value(q0: int, k0: int, target: int, mark: str) -> str:
    """Scale (q0, k0) to (q0*2^j, k0+j) so the padded pair <q, mark 0^k>
    has the exact target component size; the scale block's mark is "1"
    for point values and empty for integral values."""
    q_enc = encode_int(q0)
    j = target - max(len(q_enc), k0 + len(mark))
    if j < 0:
        raise ParameterViolation("length target below the content size")
    return tuple_strs([q_enc + "0" * j if q0 != 0 else "", mark + "0" * (k0 + j)])


def _level_sizer(B: Callable[[], int],
                 mu: Callable[[int], int]) -> Callable[[int], int]:
    """Memoized per-level component target max(B() + t + 3, ceil(mu(t)/2) + 1);
    the supplied modulus must be non-decreasing, which makes the target
    non-decreasing too.  B is called once, at the first level asked, so a
    translation built on a source name reads nothing from it until queried."""
    base = cache(B)
    return cache(lambda t: max(base() + t + 3, -(-mu(t) // 2) + 1))


def _value_answer(a: str, size: Callable[[int], int], parse, value,
                  mark: str) -> str:
    """Answer of a point-value (mark "1") or integral (mark "") name to the
    query a: value(*parse(a)) = (q0, k0) padded to the component size of
    a's level, or, when a does not parse, 1^(2(size+1)), which is as long
    as every value answer at that level."""
    target = size(len(a))
    parsed = parse(a)
    if parsed is None:
        return "1" * (2 * (target + 1))
    return _uniform_value(*value(*parsed), target, mark)


def _block(s: str, mark: str) -> int | None:
    """n for the block mark 0^n, else None: mark "1" for scale blocks and
    "" for unary precision blocks."""
    body = s[len(mark):]
    return len(body) if s.startswith(mark) and body == "0" * len(body) else None


def _read_pair(raw: str, mark: str) -> tuple[int, int]:
    """(q, k) from a value answer <q, mark 0^k>, whose value is q 2^-k;
    MalformedName when raw is not one."""
    pair = untuple(2, raw)
    k = None if pair is None else _block(pair[1], mark)
    if k is None:
        raise MalformedName(f"bad value answer {raw!r}")
    return decode_int(pair[0]), k


def _read_value(raw: str, mark: str) -> Fraction:
    q, k = _read_pair(raw, mark)
    return Fraction(q, 1 << k)


def delta_square_name(f: PiecewiseLinear, mu: Callable[[int], int]) -> Name:
    """Point-value name of a continuous function: the query
    <0^n, r, 1 0^m> answers <q, 1 0^k> with |f(r 2^-m) - q 2^-k| <= 2^-n,
    every value at query length t has one fixed length, and that length
    realizes a modulus of continuity of f (it dominates mu)."""
    size = _level_sizer(lambda: int(f.sup_norm()).bit_length() + 2, mu)

    def value(n: int, r: int, m: int) -> tuple[int, int]:
        k0 = n + 1
        return round_half_away(f(Fraction(r, 1 << m)) * (1 << k0)), k0

    def fn(a: str) -> str:
        return _value_answer(a, size, _parse_dsq_query, value, "1")

    return Name(fn, label="dsq-name")


def dsq_query(n: int, r: int, m: int) -> str:
    return tuple_strs(["0" * n, nat_str(r), "1" + "0" * m])


def _parse_dsq_query(a: str) -> tuple[int, int, int] | None:
    """Point queries are <0^n, r, 1 0^m> with r <= 2^m: a unary precision
    block, the numerator numeral, and a unary scale block."""
    parts = untuple(3, a)
    if parts is None:
        return None
    zs, rs, ms = parts
    n, r, m = _block(zs, ""), parse_nat(rs), _block(ms, "1")
    if n is None or r is None or m is None or r > 1 << m:
        return None
    return n, r, m


def dsq_value(psi: Name, n: int, r: int, m: int) -> Fraction:
    return _read_value(psi(dsq_query(n, r, m)), "1")


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
    k, l, m, n = parse_nat(ks), parse_nat(ls), _block(ms, "1"), _block(ns, "")
    if k is None or l is None or m is None or n is None:
        return None
    return k, l, m, n


def lp_name(f: StepFn, p: Fraction, mu: Callable[[int], int]) -> Name:
    """Integral name: the query <k, l, 1 0^m, 0^n> answers <q, 0^j> with
    the integral of f from k 2^-m to l 2^-m strictly within 2^-n of
    q 2^-j; lengths are uniform per level and dominate the L^p modulus mu."""
    size = _level_sizer(
        lambda: max(sum(map(abs, f._y)) // f._yd, 1).bit_length() + 2, mu)

    def value(k: int, l: int, m: int, n: int) -> tuple[int, int]:
        j0 = n + 2
        val = f.integral(Fraction(k, 1 << m), Fraction(l, 1 << m))
        return round_half_away(val * (1 << j0)), j0

    def fn(a: str) -> str:
        return _value_answer(a, size, _parse_lp_query, value, "")

    return Name(fn, label="lp-name")


def lp_query(k: int, l: int, m: int, n: int) -> str:
    return tuple_strs([nat_str(k), nat_str(l), "1" + "0" * m, "0" * n])


def lp_value(psi: Name, k: int, l: int, m: int, n: int) -> Fraction:
    return _read_value(psi(lp_query(k, l, m, n)), "")


# ---------------------------------------------------------------------------
# translations: coefficients <-> point values

def counted(phi: Name) -> tuple[Name, list]:
    """Wrap a name so distinct queries are counted (slot 0 of the list)."""
    counter = [0]

    def fn(a: str) -> str:
        counter[0] += 1
        return phi(a)

    return Name(fn, label=f"counted({phi.label})"), counter


def xi_to_dsq(phi: Name, params: BanachReprParams) -> Name:
    """Point-value name computed from a hat-coefficient name.

    A value at (n, r, m) sums z_i times hat i's value, over (M+1) 2^m, for
    the at most two nonzero hats per generation at the point, read at level
    2^(n+3) - 1; the output lengths are driven by the modulus bound
    assembled from the queried length data."""
    lfn = name_length_fn(phi)

    def value_at(r: int, m: int, n: int) -> tuple[int, int]:
        N, M, coeff = _xi_reader(phi, (1 << (n + 3)) - 1, params)
        num = sum(coeff(i) * _hat_num(i, r, 1 << m)
                  for i in fs_nonzero_indices(Fraction(r, 1 << m), N + 1))
        return num, (M + 1) << m

    def size_base() -> int:
        num, den = value_at(1, 1, 0)        # int(value at 1/2 + 2)
        return (abs(num + 2 * den) // den).bit_length() + 3

    def mu_out(t: int) -> int:
        a = max(lfn(t + 3), t + 3)
        b = lfn(lfn(t + 4) + (t + 4))
        return (t + 1) + 3 * a + b + 1

    size = _level_sizer(size_base, mu_out)

    def value(n: int, r: int, m: int) -> tuple[int, int]:
        k0 = n + 2
        num, den = value_at(r, m, n)
        return round_ratio(num << k0, den), k0

    def fn(a: str) -> str:
        return _value_answer(a, size, _parse_dsq_query, value, "1")

    return Name(fn, label=f"dsq({phi.label})")


def dsq_to_xi(psi: Name, params: BanachReprParams) -> Name:
    """Hat-coefficient name computed from a point-value name via the local
    midpoint-deviation formula (``_hat_stencil``, on the answers' integer
    pairs);
    norm queries are answered by exact library evaluation of the queried
    combination."""
    mu_in = dsq_modulus(psi)
    fs_system = FSSystem()

    def coeff(i: int, n: int, m: int) -> int:
        prec = n + len(nat_str(m + 1)) + ceil_lb(i + 2) + 4

        def fval(r: int, s: int) -> tuple[int, int]:     # at r/2^s, in lowest terms
            t = min((r & -r).bit_length() - 1, s) if r else s
            return _read_pair(psi(dsq_query(prec, r >> t, s - t)), "1")

        lam, K = _hat_stencil(i, fval)
        return round_ratio(lam * (m + 1), 1 << K)

    def ell_out(k: int) -> int:
        return max(mu_in(k + 3) + 2, k + 2)

    def branch(a: str) -> str:
        return _xi_answer(a, coeff, fs_system)

    return _with_length_branch(branch, ell_out, f"xi({psi.label})")


# ---------------------------------------------------------------------------
# translations: coefficients <-> integrals

def _aligned_nonzero_indices(a: Fraction, b: Fraction, max_k: int) -> list[int]:
    """Basis indices k <= max_k whose integral over [a, b] can be nonzero:
    the constant element and, per generation, the at most one element per
    endpoint whose open support holds it.  Supports wholly inside or
    outside the interval integrate to zero.  Element k >= 1 has the support
    of hat k + 1, so these are the hats ``_cell_hats`` finds, shifted down
    by one."""
    out = {0}
    for x in (a, b):
        out.update(i - 1 for i in _cell_hats(x, max_k + 2))
    return sorted(out)


def xi_to_lp(phi: Name, params: BanachReprParams, p: Fraction) -> Name:
    """Integral name computed from a Haar-coefficient name: the integral of
    the level-(2^(n+3)-1) combination over the requested dyadic interval,
    from the at most two contributing elements per generation, is a sum of
    C_j 2^(j/u), j/u the fractional parts of (g-1)/p for p = u/v, and the
    value is the rounded midpoint of its first enclosure at most 2^-4 wide
    (``_round_enclosure``)."""
    lfn = name_length_fn(phi)
    haar_sys = HaarSystem(Fraction(p))
    u = haar_sys.p.numerator
    ceil_p = -(-u // haar_sys.p.denominator)

    def mu_out(t: int) -> int:
        # linear modulus bound from the queried length data; the worst-case
        # closed form is exponential in t and is never attained by the
        # library's carriers (tests compare against the exact modulus)
        return ceil_p * (t + 2) + lfn(t + 3) + t + 7

    size = _level_sizer(lambda: int(lfn(4)) + 4, mu_out)

    def value(k: int, l: int, m: int, n: int) -> tuple[int, int]:
        j0 = n + 2
        N, M, coeff = _xi_reader(phi, (1 << (n + 3)) - 1, params)
        d = 1 << m
        terms: dict[int, int] = {}     # 2^j0 times the integral, over (M+1) 4^m
        for i in _aligned_nonzero_indices(Fraction(k, d), Fraction(l, d), N):
            z = coeff(i)
            if z:       # an endpoint inside element i's support puts g <= m
                shift, j = haar_sys._scale_split(i, 1)
                z *= _haar_sign_integral(i, k, l, d)
                terms[j] = terms.get(j, 0) + (z << (shift + j0 + m - haar_gen(i)))
        return _round_enclosure(lambda prec: _enclosure_nums(terms, u, prec),
                                (M + 1) << (2 * m), 4), j0

    def fn(a: str) -> str:
        return _value_answer(a, size, _parse_lp_query, value, "")

    return Name(fn, label=f"lp({phi.label})")


def lp_to_xi(psi: Name, params: BanachReprParams, p: Fraction) -> Name:
    """Haar-coefficient name computed from an integral name via the local
    half-support integral differences (``_haar_stencil``, on the answers'
    integer pairs): the coefficient branch rounds the stencil value times
    m + 1, one term C 2^(j/u) / 2^K, exactly (``_round_root``), and norm
    queries are answered by ``HaarSystem.norm_int`` on the queried
    integers."""
    mu_in = dsq_modulus(psi)
    haar_sys = HaarSystem(Fraction(p))

    def coeff(i: int, n: int, m: int) -> int:
        # lam_i (m+1) = c (m+1) 2^(-(g-1)/p) / 2^K, one term of the ring
        prec = (m.bit_length() + 18 if i == 0
                else len(nat_str(m + 1)) + haar_gen(i) + 20)

        c, K = _haar_stencil(
            i, lambda a, g: _read_pair(psi(lp_query(a, a + 1, g, prec)), ""))
        shift, j = haar_sys._scale_split(i, -1)               # shift <= 0
        return _round_root(c * (m + 1), j, haar_sys.p.numerator, 1 << (K - shift))

    def ell_out(k: int) -> int:
        return max(mu_in(k + 3) + 3, k + 2)

    def branch(a: str) -> str:
        return _xi_answer(a, coeff, haar_sys)

    return _with_length_branch(branch, ell_out, f"xi({psi.label})")
