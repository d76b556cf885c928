"""Names as demand-driven string functions and the compact sets K_l.

A name is a total map from binary strings to binary strings, memoized so
that repeated queries return identical answers.  The length of a name at n
is the maximal answer length over all queries of length at most n; the set
K_l collects the names whose length function is dominated by l.
"""

from __future__ import annotations

from typing import Callable

from .strings import (ConfigError, ContractError, MalformedName, is_binstr,
                      proj_value, strings_of_length, tuple_strs)

LengthFn = Callable[[int], int]

#: default cutoff for exhaustive scans over queries; the scan cost is
#: exponential in the depth (2^(n+1) - 1 queries), so keep this small.
SCAN_CUTOFF = 20


class ScanCutoffExceeded(ConfigError, ValueError):
    """A length scan was requested beyond the configured cutoff."""


class BoundViolation(ContractError, ValueError):
    """A name answered longer than its declared length bound."""


class NotAPair(ContractError, ValueError):
    """A value queried from a split name is not in the pairing image."""


class TraceMiss(ConfigError, KeyError):
    """A traced name was queried outside its table."""


class Name:
    """A memoized total string function, optionally with a declared bound.

    The declared bound, when present, promises |eval(a)| <= bound(|a|) for
    every query; it is checked lazily and a violation raises.
    """

    __slots__ = ("_fn", "_cache", "declared_bound", "label", "_length_memo")

    def __init__(self, fn: Callable[[str], str], declared_bound: LengthFn | None = None,
                 label: str = ""):
        self._fn = fn
        self._cache: dict[str, str] = {}
        self._length_memo: dict[int, int] = {}
        self.declared_bound = declared_bound
        self.label = label

    def __call__(self, a: str) -> str:
        hit = self._cache.get(a)
        if hit is not None:
            return hit
        v = self._fn(a)
        if not isinstance(v, str) or not is_binstr(v):
            raise MalformedName(f"name {self.label!r} answered a non-binary value at {a!r}")
        if self.declared_bound is not None and len(v) > self.declared_bound(len(a)):
            raise BoundViolation(
                f"name {self.label!r}: |answer|={len(v)} exceeds bound at |a|={len(a)}")
        self._cache[a] = v
        return v

    def __repr__(self):
        return f"Name({self.label or '?'})"


def constant_name(value: str = "", label: str = "const") -> Name:
    return Name(lambda a: value, label=label)


def length_of(phi: Name, n: int, cutoff: int = SCAN_CUTOFF) -> int:
    """max{|phi(a)| : |a| <= n} by exhaustive scan, memoized per name.

    The scan touches 2^(n+1) - 1 queries, which is why this map is not
    cheap to evaluate; n above the cutoff raises.
    """
    if n > cutoff:
        raise ScanCutoffExceeded(f"scan depth {n} exceeds cutoff {cutoff}")
    memo = phi._length_memo
    if n in memo:
        return memo[n]
    start = max((k for k in memo if k < n), default=-1)
    best = memo.get(start, 0)
    for k in range(start + 1, n + 1):
        for bits in strings_of_length(k):
            m = len(phi(bits))
            if m > best:
                best = m
        memo[k] = best
    return best


def in_kl(phi: Name, l: LengthFn, depth: int, cutoff: int = SCAN_CUTOFF) -> bool:
    """Finite-depth membership check for K_l: |phi|(n) <= l(n) for n <= depth."""
    return all(length_of(phi, n, cutoff) <= l(n) for n in range(depth + 1))


def is_length_monotone(phi: Name, depth: int, cutoff: int = SCAN_CUTOFF) -> bool:
    """Exhaustively check |a| <= |b| => |phi(a)| <= |phi(b)| for |a|,|b| <= depth.

    Equal query lengths force equal answer lengths, so the check reduces to
    per-level min/max bookkeeping.
    """
    if depth > cutoff:
        raise ScanCutoffExceeded(f"depth {depth} exceeds cutoff {cutoff}")
    prev_max = 0
    for k in range(depth + 1):
        lens = [len(phi(a)) for a in strings_of_length(k)]
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


class MalformedPadding(MalformedName):
    pass


def unpad_value(v: str) -> str:
    if len(v) % 2 != 0:
        raise MalformedPadding(f"odd length: {v!r}")
    pairs = [v[i:i + 2] for i in range(0, len(v), 2)]
    while pairs and pairs[-1] == "00":
        pairs.pop()
    out = []
    for p in pairs:
        if p[1] != "1":
            raise MalformedPadding(f"bad digit pair {p!r} in {v!r}")
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


def split_pair(chi: Name) -> tuple[Name, Name]:
    """Observational inverse of pair_names; raises NotAPair lazily when a
    queried value is not in the pairing image."""
    def comp(i: int) -> Name:
        def fn(a: str) -> str:
            v = proj_value(i, 2, chi(a))
            if v is None:
                raise NotAPair(f"value of {chi.label!r} at {a!r} is not a pair")
            return v
        return Name(fn, label=f"proj{i}({chi.label})")
    return comp(1), comp(2)


# ---------------------------------------------------------------------------
# trace fixtures: text lines "query<TAB>answer"

def name_from_trace(text: str, label: str = "traced") -> Name:
    table: dict[str, str] = {}
    for line in text.splitlines():
        if "\t" not in line:
            continue
        q, _, ans = line.partition("\t")
        table[q] = ans
    def fn(a: str) -> str:
        if a not in table:
            raise TraceMiss(f"trace has no entry for {a!r}")
        return table[a]
    return Name(fn, label=label)


def trace_of(phi: Name, queries) -> str:
    return "\n".join(f"{q}\t{phi(q)}" for q in queries)
