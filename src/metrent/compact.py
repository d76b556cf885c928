"""The unit-interval node enumeration, uniformly dense sequences, and the
compact-space representation with its metered metric algorithm.

Names carry three branches: an all-zeros query 0^n answers 1^L(n) for the
declared length floor L(n) = max ell(0..n), which is the name's length at n
because every other branch answers within it (the tests check this by
exhaustive scan); a "0"-tagged pair <j, n> carries the j-th chunk of the binary index of a
1/(n+1)-approximation; a "1"-tagged triple <i, j, n> answers the discrete
metric to precision 1/(n+1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .baire import LengthFn, Name
from .entropy import (PointCloud, SizeExceeded, covering_number,
                      farthest_first, interval_cover_count)
from .funcs import PiecewiseLinear, modulus_fn, sup_dist_pl
from .machine import (Ctx, RunningTime, const_time, exp_max_time,
                      need_evaluator, paired, precision_input, quarter_round)
from .reprs import (MetricSpaceSpec, _index_answer, _line_dist, cauchy_index,
                    metric_answer, metric_query)
from .strings import (ContractError, Dyadic, InvalidConfig, ceil_lb,
                      decode_int, nat_str, parse_nats, proj_value, tuple_strs,
                      untuple)


class ParameterViolation(ContractError, ValueError):
    """A representation parameter (chunk or span budget, length target)
    cannot hold the value a name has to answer."""


# ---------------------------------------------------------------------------
# dyadic enumeration of [0, 1]

def _q_node(i: int) -> tuple[int, int]:
    """(c, s) with q_i = c / 2^s: past 0 and 1, node i is the odd numerator
    c = 2i - 2^s - 1 at the level s given by the bit length of i - 1."""
    if i < 2:
        if i < 0:
            raise ValueError("index must be non-negative")
        return i, 0
    s = (i - 1).bit_length()
    return 2 * i - (1 << s) - 1, s


def q_seq(i: int) -> Fraction:
    """The node enumeration 0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ..."""
    c, s = _q_node(i)
    return Fraction(c, 1 << s)


def _q_dist(i: int, j: int, precision: int) -> Fraction:
    """|q_i - q_j| exactly, with both nodes put on the finer of their two
    grids."""
    ci, si = _q_node(i)
    cj, sj = _q_node(j)
    s = max(si, sj)
    return Fraction(abs((ci << (s - si)) - (cj << (s - sj))), 1 << s)


def q_index(x) -> int:
    """Inverse of q_seq on [0, 1] dyadics."""
    x = Fraction(x)
    if x == 0:
        return 0
    if x == 1:
        return 1
    d = Dyadic.from_fraction(x)
    if not 0 < x < 1:
        raise ValueError(f"{x} outside [0, 1]")
    return _grid_index(d.num, d.scale)


def _grid_index(c: int, s: int) -> int:
    """q_index(c / 2^s) for 0 <= c <= 2^s, without building the fraction."""
    if c == 0:
        return 0
    if c == 1 << s:
        return 1
    tz = (c & -c).bit_length() - 1
    return (1 << (s - tz - 1)) + ((c >> tz) + 1) // 2


def unit_interval_approx(x, n: int) -> int:
    """Least index i with |x - q_i| <= 1/(n+1).

    The nodes are 0, 1, then per level s = 1, 2, ... the odd c/2^s in
    increasing order, so the least index is 0, 1, or the least odd c within
    tolerance at the first level that has one.  By level ceil_lb(n+1) every
    point of [0, 1] has a node within 1/(n+1); a point farther than that
    from [0, 1] has none and raises ValueError.

    All tests run in integers on x = p/q and t = n+1: the candidate at
    level s is the least odd c >= (x - 1/t) 2^s, and it is within
    tolerance when (c q - p 2^s) t <= q 2^s."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    p, q = x.numerator, x.denominator
    t = n + 1
    if abs(p) * t <= q:
        return 0
    if abs(p - q) * t <= q:
        return 1
    pt, qt = p * t - q, q * t
    for s in range(1, max(ceil_lb(t), 1) + 1):
        c = max(-((-pt << s) // qt), 1) | 1
        if c < 1 << s and (c * q - (p << s)) * t <= q << s:
            return (1 << (s - 1)) + (c + 1) // 2
    raise ValueError(f"{x} is farther than 1/{t} from [0, 1]")


def unit_interval_short_approx(x) -> Callable[[int], int]:
    """Nearest node among the first 2^|n| at precision n; the answer's
    numeral length stays at most the query's, so the name lies in K_l for
    l(n) = n.  The first 2^k nodes form the dyadic grid of step 2^(1-k),
    so the nearest one is found from the two grid neighbours lo/2^s and
    (lo+1)/2^s, compared in integers: |c/2^s - p/q| is |c*q - p*2^s| /
    (q*2^s), which is r and q - r for p*2^s = lo*q + r."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator

    def approx(n: int) -> int:
        s = n.bit_length() - 1
        if s < 0:
            return 0
        S = 1 << s
        lo, r = divmod(p << s, q)
        if lo < 0:
            best = 0
        elif lo >= S:
            best = S
        else:
            # a tie goes to the even neighbour: its level is coarser, so
            # its index is the smaller one
            best = lo + (2 * r > q or (2 * r == q and lo & 1))
        if abs(best * q - (p << s)) * (n + 1) > q * S:
            raise ParameterViolation(f"no admissible short index at precision {n}")
        return _grid_index(best, s)

    return approx


def unit_interval_space() -> MetricSpaceSpec:
    return MetricSpaceSpec(
        label="unit-interval",
        point=q_seq,
        dist=_q_dist,
        exact_dist=_line_dist,
        approx_index=lambda x, n: unit_interval_approx(x, n),
    )


_SIZE_MEMO: dict[int, int] = {}
_SIZE_MEASURE_CAP = 12


def measured_size_unit_interval(n: int) -> int:
    """Exponent of the measured covering number of [0, 1] at radius 2^-n,
    with ball centers on a dyadic grid four times finer.  Measured up to a
    cap, extended by the measured pattern max(n-1, 0) beyond it."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > _SIZE_MEASURE_CAP:
        return max(n - 1, 0)
    if n not in _SIZE_MEMO:
        step = Fraction(1, 1 << (n + 2))
        grid = [k * step for k in range((1 << (n + 2)) + 1)]
        count = interval_cover_count(grid, Fraction(1, 1 << n))
        _SIZE_MEMO[n] = ceil_lb(count)
    return _SIZE_MEMO[n]


def unit_interval_ell(n: int) -> int:
    """The length target measured size(n) + ceil lb(n+1)."""
    return measured_size_unit_interval(n) + ceil_lb(n + 1)


# ---------------------------------------------------------------------------
# uniformly dense sequences

@dataclass
class UniformSeqSpec:
    seq: Callable[[int], object]
    size_bound: Callable[[int], int]
    horizon: int
    dist: Callable[[object, object], Fraction]


def greedy_uniform_seq(K: PointCloud, horizon: int) -> UniformSeqSpec:
    """Nested farthest-point refinement of the cloud: start at the minimax
    center, then repeatedly append the point farthest from the prefix.

    Every prefix is a maximal separated set at its insertion radius, so the
    levels of the separated-set construction appear nested inside one
    another instead of being re-listed per level; the literal per-level
    concatenation misses the covering budget at small n.  Cloud size
    exponents are measured on the way (exact below the brute-force cap,
    greedy above)."""
    m = len(K)
    start = min(range(m), key=lambda p: (max(K.d(p, q) for q in range(m)), p))
    order, _ = farthest_first(K, start)
    sizes: list[int] = []
    for n in range(horizon + 1):
        try:
            sizes.append(covering_number(K, n, "exact").exponent)
        except SizeExceeded:
            sizes.append(covering_number(K, n, "greedy").exponent)

    pts = K.points
    index: dict = {}
    for i, pt in enumerate(pts):
        index.setdefault(pt, i)            # a repeated point keeps its first index

    def seq(i: int):
        return pts[order[min(i, len(order) - 1)]]

    def size_bound(n: int) -> int:
        return sizes[min(n, horizon)]

    def dist(a, b) -> Fraction:
        return K.d(index[a], index[b])

    return UniformSeqSpec(seq=seq, size_bound=size_bound, horizon=horizon, dist=dist)


def _max_separated(points: list, dist, thr: Fraction) -> int:
    """Size of a largest subset with pairwise distance above thr: exact by
    subset search up to 12 points, first-fit greedy (a lower bound) above."""
    best = 0
    m = len(points)
    if m <= 12:
        for mask in range(1 << m):
            sel = [i for i in range(m) if mask >> i & 1]
            if len(sel) <= best:
                continue
            if all(dist(points[a], points[b]) > thr
                   for ai, a in enumerate(sel) for b in sel[ai + 1:]):
                best = len(sel)
        return best
    chosen: list = []
    for p in points:
        if all(dist(p, c) > thr for c in chosen):
            chosen.append(p)
    return len(chosen)


def check_uniformly_dense(spec: UniformSeqSpec, grid: list):
    """Evaluate the covering property against a dense test grid and the
    spanning property exactly; returns (c_ok, s_ok, first_failure)."""
    first = None
    c_ok = True
    for n in range(spec.horizon + 1):
        m = 1 << (spec.size_bound(n) + ceil_lb(n + 1))
        heads = [spec.seq(i) for i in range(m)]
        r = Fraction(1, 1 << n)
        for g in grid:
            if min(spec.dist(g, h) for h in heads) > r:
                c_ok = False
                first = first or ("c", n, g)
                break
        if not c_ok:
            break
    s_ok = True
    for n in range(1, spec.horizon + 1):
        for k in range(spec.size_bound(n - 1) + 1):
            heads = [spec.seq(i) for i in range(1 << k)]
            need = (1 << k) // 2 + ((1 << k) % 2)
            need = max(need, 1) if k else 1
            got = _max_separated(heads, spec.dist, Fraction(1, 1 << n))
            if got < need:
                s_ok = False
                first = first or ("s", n, k)
                break
        if not s_ok:
            break
    return c_ok, s_ok, first


# ---------------------------------------------------------------------------
# the compact-space representation

@dataclass
class CompactReprParams:
    ell: LengthFn
    S: RunningTime


def _chunk_capacity(params: CompactReprParams, n: int) -> tuple[int, int]:
    """(chunk count, bits per chunk) at precision n: S(ell, |n|) + 1 chunks
    of at most ell(|n|) bits each."""
    m = len(nat_str(n))
    return params.S.bound(params.ell, m) + 1, params.ell(m)


def chunk_query(j: int, n: int) -> str:
    """The chunk-branch query "0" + <j, n>."""
    return "0" + tuple_strs([nat_str(j), nat_str(n)])


def _chunk_branch(params: CompactReprParams,
                  approx: Callable[[int], int]) -> Callable[[str], str]:
    """Answerer of the chunk query "0" + rest for rest = <j, n>: the j-th
    ell(|n|)-bit chunk of the binary index approx(n), memoized per n;
    epsilon when rest is not a pair of numerals.  Chunks are raw index bits
    in query order (no boundary markers are needed: the assembled string is
    read as one binary integer)."""
    memo: dict[int, str] = {}

    def chunk(rest: str) -> str:
        jn = parse_nats(2, rest)
        if jn is None:
            return ""
        j, n = jn
        nchunks, cap = _chunk_capacity(params, n)
        if n not in memo:
            bits = nat_str(approx(n))
            if len(bits) > nchunks * cap:
                raise ParameterViolation(
                    f"index needs {len(bits)} bits, budget {nchunks}x{cap}")
            memo[n] = bits
        return memo[n][j * cap:(j + 1) * cap]

    return chunk


def compact_name(space: MetricSpaceSpec, params: CompactReprParams, x) -> Name:
    """Name of x in the compact-space representation: chunk queries read
    the index space.approx_index(x, n) of a 1/(n+1)-approximation, metric
    queries the discrete metric, and 0^k the declared floor ell(k)."""
    if space.approx_index is None:
        raise InvalidConfig("space has no approximation chooser")
    chunk = _chunk_branch(params, lambda n: space.approx_index(x, n))

    def branch(a: str) -> str:
        if a[0] == "0":
            return chunk(a[1:])
        return metric_answer(space, a[1:])

    return _with_length_branch(branch, params.ell, f"compact({x})")


def _with_length_branch(branch: Callable[[str], str], floor: LengthFn,
                        label: str) -> Name:
    """Wrap a branch function so that every all-zeros query 0^k answers
    1^len(k), where len(k) is the running maximum of the declared floor
    over 0..k.  No branch is called: the library layouts answer every query
    of length k within len(k), so len is the name's length function, and
    the tests check that by exhaustive scan."""
    lam: list[int] = []

    def level(k: int) -> int:
        while len(lam) <= k:
            lam.append(max(lam[-1] if lam else 0, floor(len(lam))))
        return lam[k]

    def fn(a: str) -> str:
        if a == "0" * len(a):
            return "1" * level(len(a))
        return branch(a)

    return Name(fn, label=label)


def name_length_fn(phi: Name) -> LengthFn:
    """Length function read off a name that provides its length at 0^k."""
    return lambda k: len(phi("0" * k))


def compact_decode_index(phi: Name, n: int, params: CompactReprParams) -> int:
    """Assemble the approximation index at precision n from the chunks."""
    m = len(nat_str(n))
    l = name_length_fn(phi)
    nchunks = params.S.bound(l, m) + 1
    bits = "".join(phi(chunk_query(j, n)) for j in range(nchunks))
    return int(bits, 2) if bits else 0


def compact_metric_program(params: CompactReprParams) -> Callable[[Ctx], None]:
    """Integer encoding z with |d(x,y) - z/(n+1)| <= 1/(n+1) from a paired
    oracle <phi, psi>: indices are decoded at precision 8n+7 (chunk count
    from the evaluator of S), the metric branch is asked at 4n+3, and z'/4
    is rounded to the output grid, so the three error terms add to exactly
    the contract."""
    need_evaluator(params.S)

    def prog(ctx: Ctx) -> None:
        n = precision_input(ctx)
        na = nat_str(8 * n + 7)
        nchunks = params.S.evaluator(ctx, len(na)) + 1
        bits_phi: list[str] = []
        bits_psi: list[str] = []
        for j in range(nchunks):
            ca, cb = paired(untuple(2, ctx.ask(chunk_query(j, 8 * n + 7))))
            bits_phi.append(ca)
            bits_psi.append(cb)
        i = int("".join(bits_phi) or "0", 2)
        k = int("".join(bits_psi) or "0", 2)
        ctx.tick(len(na) + 2)
        raw = paired(proj_value(1, 2, ctx.ask(metric_query(i, k, 4 * n + 3))))
        zp = decode_int(raw)
        ctx.tick(len(raw) + 2)
        ctx.emit(quarter_round(zp))
    return prog


def compact_metric_time(params: CompactReprParams) -> RunningTime:
    """The budget shape l(n+2) * S(l, n+2); the metered algorithm fits
    below a constant multiple of it (the constant is recorded by tests)."""
    def bound(l: LengthFn, n: int) -> int:
        return l(n + 2) * params.S.bound(l, n + 2)
    return RunningTime(bound, label="l(n+2)S(l,n+2)")


# ---------------------------------------------------------------------------
# translations witnessing admissibility

def compact_to_relativized(phi: Name, params: CompactReprParams) -> Name:
    """Relativized-Cauchy name computed from a compact-representation name."""
    def fn(a: str) -> str:
        if a == "":
            return ""
        if a[0] == "0":
            return _index_answer(lambda n: compact_decode_index(phi, n, params),
                                 a[1:])
        return phi(a)
    return Name(fn, label=f"rel({phi.label})")


def relativized_to_compact(rel: Name, params: CompactReprParams) -> Name:
    """Compact-representation name computed from a relativized-Cauchy name:
    its "0"-tagged index branch, viewed as a Cauchy name, is read by
    cauchy_index."""
    indices = Name(lambda a: rel("0" + a), label=f"index({rel.label})")
    chunk = _chunk_branch(params, lambda n: cauchy_index(indices, n))

    def branch(a: str) -> str:
        if a[0] == "0":
            return chunk(a[1:])
        return rel(a)

    return _with_length_branch(branch, params.ell, f"compact({rel.label})")


# ---------------------------------------------------------------------------
# a second instance: piecewise-linear Lipschitz functions

def lipschitz_family(level: int):
    """All piecewise-linear functions on the 2^-level grid with f(0) = 0 and
    increments in {-h, 0, h}; 3^(2^level) functions of Lipschitz constant 1."""
    h = Fraction(1, 1 << level)
    grid = [k * h for k in range((1 << level) + 1)]
    fns = []
    for incs in product((-h, Fraction(0), h), repeat=1 << level):
        ys = [Fraction(0)]
        for d in incs:
            ys.append(ys[-1] + d)
        fns.append(PiecewiseLinear(tuple(grid), tuple(ys)))
    return fns


def lipschitz_cloud(level: int) -> PointCloud:
    fns = lipschitz_family(level)
    return PointCloud(fns, lambda i, j: sup_dist_pl(fns[i], fns[j]),
                      label=f"lip1-level{level}")


# ---------------------------------------------------------------------------
# instance configuration files

def load_instance(path: str) -> tuple[MetricSpaceSpec, CompactReprParams, int]:
    """Instance config: JSON with space id, sequence id, ell table, S id,
    horizon."""
    running_times = {"const1": lambda: const_time(1), "expmax": exp_max_time}
    with open(path) as fh:
        cfg = json.load(fh)
    if cfg.get("space") != "unit-interval":
        raise InvalidConfig(f"unknown space {cfg.get('space')!r}")
    space = unit_interval_space()
    ell = modulus_fn([int(v) for v in cfg["ell"]])
    s_id = cfg.get("S", "const1")
    factory = running_times.get(s_id)
    if factory is None:
        raise InvalidConfig(f"unknown running time {s_id!r}")
    return space, CompactReprParams(ell=ell, S=factory()), int(cfg.get("horizon", 6))
