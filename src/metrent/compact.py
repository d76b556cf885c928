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

from fractions import Fraction
from itertools import accumulate, product
from typing import Callable

from .baire import LengthFn, Name
from .entropy import (EXACT_COVER_CAP, PointCloud, _first_fit,
                      covering_number, farthest_first)
from .funcs import PiecewiseLinear, sup_dist_pl
from .machine import (Ctx, RunningTime, need_evaluator, paired,
                      precision_input, quarter_round)
from .reprs import (MetricSpaceSpec, _dyadic_gap, _line_dist,
                    _relativized_layout, cauchy_index, metric_answer,
                    metric_query)
from .strings import (ContractError, InvalidConfig, _frac, _Record, ceil_lb,
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
            raise InvalidConfig("index must be non-negative")
        return i, 0
    s = (i - 1).bit_length()
    return 2 * i - (1 << s) - 1, s


def q_seq(i: int) -> Fraction:
    """The node enumeration 0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ..."""
    c, s = _q_node(i)
    return Fraction(c, 1 << s)


def _q_dist(i: int, j: int) -> tuple[int, int]:
    """|q_i - q_j| exactly, as (p, 2^s) with both nodes put on the finer of
    their two grids s."""
    return _dyadic_gap(*_q_node(i), *_q_node(j))


def _grid_index(c: int, s: int) -> int:
    """The index i with q_i = c / 2^s, for 0 <= c <= 2^s: the inverse of
    _q_node on [0, 1]."""
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
    from [0, 1] has none and raises InvalidConfig.

    All tests run in integers on x = p/q and t = n+1: the candidate at
    level s is the least odd c >= (x - 1/t) 2^s, and it is within
    tolerance when (c q - p 2^s) t <= q 2^s."""
    x = _frac(x)
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
    raise InvalidConfig(f"{x} is farther than 1/{t} from [0, 1]")


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


def measured_size_unit_interval(n: int) -> int:
    """Exponent ceil lb of the covering number of the grid of step 2^-(n+2)
    on [0, 1] by balls of radius 2^-n centered on it.  Each ball covers 9
    of the 2^(n+2) + 1 grid points, so the count is ceil((2^(n+2) + 1)/9),
    which lies in (2^(n-2), 2^(n-1)] for n >= 1 and is 1 for n = 0: the
    exponent is max(n - 1, 0) for every n."""
    if n < 0:
        raise InvalidConfig("n must be non-negative")
    return max(n - 1, 0)


def unit_interval_ell(n: int) -> int:
    """The length target measured size(n) + ceil lb(n+1)."""
    return measured_size_unit_interval(n) + ceil_lb(n + 1)


# ---------------------------------------------------------------------------
# uniformly dense sequences

class UniformSeqSpec(_Record):
    def __init__(self, seq: Callable[[int], object],
                 size_bound: Callable[[int], int], horizon: int,
                 dist: Callable[[object, object], Fraction]):
        self.seq = seq
        self.size_bound = size_bound
        self.horizon = horizon
        self.dist = dist


def greedy_uniform_seq(K: PointCloud, horizon: int) -> UniformSeqSpec:
    """Nested farthest-point refinement of the cloud: start at the minimax
    center, then repeatedly append the point farthest from the prefix.

    Every prefix is a maximal separated set at its insertion radius, so the
    levels of the separated-set construction appear nested inside one
    another instead of being re-listed per level; the literal per-level
    concatenation misses the covering budget at small n.  Cloud size
    exponents are measured on the way (exact up to the brute-force cap,
    greedy above).  An empty cloud has no center and is refused."""
    m = len(K)
    if m == 0:
        raise InvalidConfig("an empty cloud has no uniformly dense sequence")
    start = min(range(m), key=lambda p: (max(K.d(p, q) for q in range(m)), p))
    order, _ = farthest_first(K, start)
    mode = "exact" if m <= EXACT_COVER_CAP else "greedy"
    sizes = [covering_number(K, n, mode).exponent for n in range(horizon + 1)]

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
    return len(_first_fit(points, dist, thr))


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

class CompactReprParams(_Record):
    def __init__(self, ell: LengthFn, S: RunningTime):
        self.ell = ell
        self.S = S


def chunk_query(j: int, n: int) -> str:
    """The chunk-branch query "0" + <j, n>."""
    return "0" + tuple_strs([nat_str(j), nat_str(n)])


def _compact_layout(params: CompactReprParams, approx: Callable[[int], int],
                    metric: Callable[[str], str], label: str) -> Name:
    """The compact layout: 0^k answers the declared floor ell(k), the chunk
    query "0" + <j, n> the j-th ell(|n|)-bit chunk of the binary index
    approx(n) (memoized per n; S(ell, |n|) + 1 chunks hold it, else
    ParameterViolation), a malformed chunk query epsilon, and every other
    query goes to ``metric``.  Chunks are raw index bits in query order (no
    boundary markers are needed: the assembled string is read as one binary
    integer)."""
    memo: dict[int, str] = {}

    def branch(a: str) -> str:
        if a[0] != "0":
            return metric(a)
        jn = parse_nats(2, a[1:])
        if jn is None:
            return ""
        j, n = jn
        m = len(nat_str(n))
        nchunks, cap = params.S.bound(params.ell, m) + 1, params.ell(m)
        if n not in memo:
            bits = nat_str(approx(n))
            if len(bits) > nchunks * cap:
                raise ParameterViolation(
                    f"index needs {len(bits)} bits, budget {nchunks}x{cap}")
            memo[n] = bits
        return memo[n][j * cap:(j + 1) * cap]

    return _with_length_branch(branch, params.ell, label)


def compact_name(space: MetricSpaceSpec, params: CompactReprParams, x) -> Name:
    """Name of x in the compact-space representation: chunk queries read
    the index space.approx_index(x, n) of a 1/(n+1)-approximation, metric
    queries the discrete metric, and 0^k the declared floor ell(k)."""
    return _compact_layout(params, lambda n: space.approx_index(x, n),
                           lambda a: metric_answer(space, a[1:]),
                           f"compact({x})")


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
    return RunningTime(bound)


# ---------------------------------------------------------------------------
# translations witnessing admissibility

def compact_to_relativized(phi: Name, params: CompactReprParams) -> Name:
    """Relativized-Cauchy name computed from a compact-representation name:
    indices are assembled from its chunks, metric queries passed to it."""
    return _relativized_layout(lambda n: compact_decode_index(phi, n, params),
                               phi, f"rel({phi.label})")


def relativized_to_compact(rel: Name, params: CompactReprParams) -> Name:
    """Compact-representation name computed from a relativized-Cauchy name:
    its "0"-tagged index branch, viewed as a Cauchy name, is read by
    cauchy_index."""
    indices = Name(lambda a: rel("0" + a), label=f"index({rel.label})")
    return _compact_layout(params, lambda n: cauchy_index(indices, n), rel,
                           f"compact({rel.label})")


# ---------------------------------------------------------------------------
# a second instance: piecewise-linear Lipschitz functions

def lipschitz_family(level: int):
    """All piecewise-linear functions on the 2^-level grid with f(0) = 0 and
    increments in {-h, 0, h}; 3^(2^level) functions of Lipschitz constant 1."""
    d = 1 << level
    return [PiecewiseLinear._of(range(d + 1), d, (0, *accumulate(incs)), d)
            for incs in product((-1, 0, 1), repeat=d)]


def lipschitz_cloud(level: int) -> PointCloud:
    fns = lipschitz_family(level)
    return PointCloud(fns, lambda i, j: sup_dist_pl(fns[i], fns[j]))
