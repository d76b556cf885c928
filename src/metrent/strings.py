"""Bit-exact binary strings: codecs, tupling, and exact dyadic arithmetic,
plus the root of the library's typed errors.

Strings over the alphabet {0,1} are plain Python ``str`` values restricted
to the characters "0" and "1".  The empty string is written ``""`` in code
and called epsilon in docs.  Naturals are identified with their binary
numerals (epsilon, "1", "10", ...); integers use the convention that a
leading "0" flips the sign of the numeral that follows.

``nat_str``, ``parse_nat`` and ``parse_nats`` are memoized in a bounded
``functools.lru_cache`` (``_MEMO_SIZE`` entries each, typed, so that ``1.0``
and ``True`` do not hit the entry for ``1``): metered round trips re-read
the same few numerals thousands of times per run, and both sides of these
three are small and immutable (``parse_nats`` returns a tuple).  The integer
codec ``encode_int``/``decode_int`` stays uncached: translated names answer
with integers tens of thousands of characters long, which a cache would keep
alive.  ``tuple_strs`` stays uncached too: it takes a list of parts, and the
benchmark tracer counts its calls and characters, which a cache would hide.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product


class MetrentError(Exception):
    """Root of the errors the library raises on purpose.  A run fails in one
    of two ways, and each branch has its own command-line exit code."""


class ConfigError(MetrentError):
    """The request was bad: an option, a table, a size or a scan depth
    (exit code 2)."""


class InvalidConfig(ConfigError, ValueError):
    """A configuration value the library does not accept: an unknown
    identifier (space, running time, distance formula, metric, covering
    mode) or a malformed table."""


class ContractError(MetrentError):
    """A name broke its representation or its budget, or a computation broke
    a contract it certifies (exit code 3)."""


class MalformedName(ContractError, ValueError):
    """A queried value violates the representation's layout."""


class MalformedEncoding(MalformedName):
    """A string does not follow the claimed encoding convention."""


# strip("01") has the lower fixed cost and two count passes the lower cost
# per character; timed on binary strings (CPython 3.11), the count passes
# win from about 30 characters on
_COUNT_PASS_LEN = 32


def is_binstr(a: str) -> bool:
    if len(a) < _COUNT_PASS_LEN:
        return not a.strip("01")
    return a.count("0") + a.count("1") == len(a)


def str_len(a: str) -> int:
    """Length of a binary string (the unary value |a|)."""
    return len(a)


def all_strings(max_len: int):
    """Yield every binary string of length <= max_len, shortest first."""
    for n in range(max_len + 1):
        yield from strings_of_length(n)


def strings_of_length(n: int):
    for bits in product("01", repeat=n):
        yield "".join(bits)


# ---------------------------------------------------------------------------
# natural / integer codecs

_MEMO_SIZE = 512


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def nat_str(n: int) -> str:
    """Binary numeral of a non-negative integer; 0 encodes as epsilon."""
    if n < 0:
        raise ValueError("nat_str needs n >= 0")
    return "" if n == 0 else format(n, "b")


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def parse_nat(a: str) -> int | None:
    """Inverse of nat_str; None when a is not a valid numeral."""
    if a == "":
        return 0
    if a[0] != "1" or not is_binstr(a):
        return None
    return int(a, 2)


def encode_int(z: int) -> str:
    """Integer codec: 0 -> epsilon, n>0 -> numeral, -n -> "0" + numeral."""
    if z == 0:
        return ""
    if z > 0:
        return format(z, "b")
    return "0" + format(-z, "b")


def decode_int(a: str) -> int:
    if a == "":
        return 0
    if not is_binstr(a):
        raise MalformedEncoding(f"not a binary string: {a!r}")
    if a[0] == "1":
        return int(a, 2)
    body = a[1:]
    if body == "" or body[0] != "1":
        raise MalformedEncoding(f"not an integer encoding: {a!r}")
    return -int(body, 2)


# ---------------------------------------------------------------------------
# tupling

def tuple_strs(parts) -> str:
    """Fixed-arity tupling: pad each part to max length + 1 (append a "1",
    then "0"s), then interleave the padded strings column by column.

    |result| = k * (max |a_i| + 1) and the map is injective for fixed k.
    Parts must be ASCII (binary strings are); others raise ValueError.
    """
    parts = list(parts)
    k = len(parts)
    if k < 2:
        raise ValueError("tuple_strs needs at least two parts")
    m = max(len(p) for p in parts)
    out = bytearray(k * (m + 1))
    for i, p in enumerate(parts):
        out[i::k] = (p + "1" + "0" * (m - len(p))).encode("ascii")
    return out.decode("ascii")


def proj(i: int, k: int, b: str) -> str:
    """Projection onto component i (1-based) of a k-tuple.

    Returns "0" + a_i when b is in the image of the k-ary tupling and
    epsilon otherwise; the leading "0" marks success so that the component
    epsilon stays distinguishable from failure.  Runs in time linear in |b|.
    """
    if not 1 <= i <= k:
        raise ValueError("component index out of range")
    comps = untuple(k, b)
    if comps is None:
        return ""
    return "0" + comps[i - 1]


def proj_value(i: int, k: int, b: str) -> str | None:
    """Component i of a k-tuple without the success marker; None if b is
    not in the image."""
    comps = untuple(k, b)
    return None if comps is None else comps[i - 1]


def untuple(k: int, b: str) -> list[str] | None:
    """All k components of a k-tuple in one pass over b, or None when b is
    not in the image of the k-ary tupling.  Callers that need more than one
    component decode once here instead of projecting per component."""
    if k < 2 or len(b) == 0 or len(b) % k != 0:
        return None
    out = []
    full = False
    for i in range(k):
        col = b[i::k]
        if col[-1] == "1":
            full = True
        stripped = col.rstrip("0")
        if not stripped:           # no terminator marker
            return None
        out.append(stripped[:-1])
    # padding is to max length + 1, so some column must end in its marker
    return out if full else None


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def parse_nats(k: int, b: str) -> tuple[int, ...] | None:
    """The k numerals of a k-tuple, or None when b is not a k-tuple or a
    component is not a numeral."""
    parts = untuple(k, b)
    if parts is None:
        return None
    vals = tuple([parse_nat(p) for p in parts])
    return None if None in vals else vals


def tuple_list(parts) -> str:
    """Tupling of a list of any length: epsilon for the empty list, the
    sole element for singletons, the fixed-arity tupling otherwise."""
    parts = list(parts)
    if not parts:
        return ""
    if len(parts) == 1:
        return parts[0]
    return tuple_strs(parts)


def tuple_list_len(lengths) -> int:
    """len(tuple_list(parts)) from the lengths of the parts alone: 0, |p| or
    k(max |p_i| + 1) for k = 0, 1 or k >= 2 parts."""
    lengths = list(lengths)
    if len(lengths) < 2:
        return lengths[0] if lengths else 0
    return len(lengths) * (max(lengths) + 1)


# ---------------------------------------------------------------------------
# exact dyadic rationals

def round_ratio(n: int, d: int) -> int:
    """Nearest integer to n/d (d > 0) with ties rounded away from zero; n/d
    need not be in lowest terms."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def round_half_away(x: Fraction) -> int:
    """Nearest integer with ties rounded away from zero."""
    return round_ratio(x.numerator, x.denominator)


class Dyadic:
    """Exact value num * 2**(-scale), canonical: num odd or scale == 0."""

    __slots__ = ("num", "scale")

    def __init__(self, num: int, scale: int = 0):
        if scale < 0:
            num <<= -scale
            scale = 0
        while num != 0 and scale > 0 and num % 2 == 0:
            num //= 2
            scale -= 1
        if num == 0:
            scale = 0
        self.num = num
        self.scale = scale

    @staticmethod
    def from_fraction(f: Fraction) -> "Dyadic":
        d = f.denominator
        s = d.bit_length() - 1
        if d != 1 << s:
            raise ValueError(f"{f} is not dyadic")
        return Dyadic(f.numerator, s)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.scale)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        s = max(self.scale, other.scale)
        return Dyadic((self.num << (s - self.scale)) + (other.num << (s - other.scale)), s)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.scale)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.scale)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.scale + other.scale)

    def _cmp(self, other: "Dyadic") -> int:
        lhs = self.num << other.scale
        rhs = other.num << self.scale
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dyadic) and self.num == other.num and self.scale == other.scale

    def __lt__(self, other): return self._cmp(other) < 0
    def __le__(self, other): return self._cmp(other) <= 0
    def __gt__(self, other): return self._cmp(other) > 0
    def __ge__(self, other): return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.num, self.scale))

    def __repr__(self):
        return f"Dyadic({self.num}, {self.scale})"

    def __str__(self):
        return f"{self.num}/2^{self.scale}" if self.scale else str(self.num)


def ceil_lb(n: int) -> int:
    """Ceiling of the base-2 logarithm, with the convention ceil_lb(0) = 0."""
    if n <= 1:
        return 0
    return (n - 1).bit_length()


def ceil_lb_ratio(r) -> int:
    """Exact ceiling of the base-2 logarithm of a positive rational: the
    least integer k with r <= 2^k (negative when r < 1/2)."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"ceil_lb_ratio needs r > 0, got {r}")
    a, b = r.numerator, r.denominator
    # 2^(k-1) < a/b < 2^(k+1), so the answer is k or k + 1
    k = a.bit_length() - b.bit_length()
    return k if a << max(-k, 0) <= b << max(k, 0) else k + 1


def floor_lb(n: int) -> int:
    if n < 1:
        raise ValueError("floor_lb needs n >= 1")
    return n.bit_length() - 1
