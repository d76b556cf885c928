"""Names as demand-driven string functions and the compact sets K_l.

A name is a total map from binary strings to binary strings, memoized so
that repeated queries return identical answers.  The length of a name at n
is the maximal answer length over all queries of length at most n; the set
K_l collects the names whose length function is dominated by l.
"""

from __future__ import annotations

from typing import Callable

from .strings import (InvalidConfig, MalformedName, is_binstr,
                      strings_of_length, tuple_strs)

LengthFn = Callable[[int], int]

#: cutoff for exhaustive scans over queries; the scan cost is exponential
#: in the depth (2^(n+1) - 1 queries), so keep this small.
SCAN_CUTOFF = 20


class Name:
    """A memoized total string function."""

    __slots__ = ("_fn", "_cache", "label")

    def __init__(self, fn: Callable[[str], str], label: str = ""):
        self._fn = fn
        self._cache: dict[str, str] = {}
        self.label = label

    def __call__(self, a: str) -> str:
        hit = self._cache.get(a)
        if hit is not None:
            return hit
        v = self._fn(a)
        if not isinstance(v, str) or not is_binstr(v):
            raise MalformedName(f"name {self.label!r} answered a non-binary value at {a!r}")
        self._cache[a] = v
        return v

    def __repr__(self):
        return f"Name({self.label or '?'})"


def _check_scan_depth(depth: int) -> None:
    """Refuse, before any query, a scan deeper than SCAN_CUTOFF."""
    if depth > SCAN_CUTOFF:
        raise InvalidConfig(f"scan depth {depth} exceeds cutoff {SCAN_CUTOFF}")


def _level_lengths(phi: Name, k: int) -> list[int]:
    """The answer lengths of phi at the 2^k queries of length k, in order;
    a repeated scan is answered from the name's memo."""
    return [len(phi(a)) for a in strings_of_length(k)]


def in_kl(phi: Name, l: LengthFn, depth: int) -> bool:
    """Finite-depth membership check for K_l: |phi|(n) <= l(n) for n <= depth,
    scanned level by level up to the first level over l; a depth above
    SCAN_CUTOFF raises before any query."""
    _check_scan_depth(depth)
    best = 0
    for n in range(depth + 1):
        best = max(best, *_level_lengths(phi, n))
        if best > l(n):
            return False
    return True


def is_length_monotone(phi: Name, depth: int) -> bool:
    """Exhaustively check |a| <= |b| => |phi(a)| <= |phi(b)| for |a|,|b| <= depth.

    Equal query lengths force equal answer lengths, so the check reduces to
    per-level min/max bookkeeping.
    """
    _check_scan_depth(depth)
    prev_max = 0
    for k in range(depth + 1):
        lens = _level_lengths(phi, k)
        if min(lens) != max(lens):
            return False
        if k > 0 and lens[0] < prev_max:
            return False
        prev_max = lens[0]
    return True


# ---------------------------------------------------------------------------
# padding: turning a bounded name into a length-monotone one

def pad(phi: Name, m: LengthFn) -> Name:
    """Double every digit (0 -> 01, 1 -> 11) and append 0-pairs up to the
    target m(|a|).  Length-monotone whenever m is non-decreasing and
    dominates |phi|; |pad(phi)(a)| = 2 * max(m(|a|), |phi(a)|)."""
    def fn(a: str) -> str:
        v = phi(a)
        doubled = "".join(c + "1" for c in v)
        extra = max(m(len(a)) - len(v), 0)
        return doubled + "00" * extra
    return Name(fn, label=f"pad({phi.label})")


def unpad_value(v: str) -> str:
    if len(v) % 2 != 0:
        raise MalformedName(f"odd length: {v!r}")
    pairs = [v[i:i + 2] for i in range(0, len(v), 2)]
    while pairs and pairs[-1] == "00":
        pairs.pop()
    out = []
    for p in pairs:
        if p[1] != "1":
            raise MalformedName(f"bad digit pair {p!r} in {v!r}")
        out.append(p[0])
    return "".join(out)


def unpad(psi: Name) -> Name:
    return Name(lambda a: unpad_value(psi(a)), label=f"unpad({psi.label})")


# ---------------------------------------------------------------------------
# pairing of names

def pair_names(phi: Name, psi: Name) -> Name:
    """<phi, psi>(a) = <phi(a), psi(a)>; queries each component once per a."""
    return Name(lambda a: tuple_strs([phi(a), psi(a)]),
                label=f"<{phi.label},{psi.label}>")


# ---------------------------------------------------------------------------
# trace fixtures: text lines "query<TAB>answer"

def name_from_trace(text: str) -> Name:
    """The name that answers each traced query as its line does; lines
    without a tab are skipped, and a tab line whose query or answer is not
    a binary string raises InvalidConfig."""
    table: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if "\t" not in line:
            continue
        q, _, ans = line.partition("\t")
        if not (is_binstr(q) and is_binstr(ans)):
            raise InvalidConfig(f"trace line {lineno}: query and answer "
                                "must be binary strings")
        table[q] = ans
    def fn(a: str) -> str:
        if a not in table:
            raise InvalidConfig(f"trace has no entry for {a!r}")
        return table[a]
    return Name(fn, label="traced")


def trace_of(phi: Name, queries) -> str:
    return "\n".join(f"{q}\t{phi(q)}" for q in queries)
