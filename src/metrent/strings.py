"""Bit-exact binary strings: codecs, tupling, and the exact rational
helpers the other modules share (``_pow2``, ``_frac``, ``_dyadic``, the
rounding and base-2 logarithm functions), plus the base of the library's
record classes (``_Record``) and the one root of every error it raises on
purpose (``MetrentError``).  The root has two branches: ``ConfigError`` for
a bad request, which includes an argument outside a function's documented
domain (``InvalidConfig``, raised by the helpers here too), and
``ContractError`` for a name or a computation that breaks its contract.

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
alive.

``tuple_strs`` memoizes short tuples only.  A metered run pays per symbol,
and at low precision only a few distinct answers exist, so metered work
tuples the same short parts again and again: about 80 % of the calls of a
metered metric workload repeat an earlier call's parts, and about 92 % of
an entropy run's.  A tuple whose longest part is shorter than
``_SHORT_PART_LEN`` symbols is therefore looked up in a private
``lru_cache`` keyed by the tuple of its parts; a longer one is interleaved
every time, so the tuples of translated names, tens of thousands of symbols
long, are never kept alive.  Every call still goes through ``tuple_strs``
itself, so a tracer that wraps it counts every call and character.

Translated names ask and answer in strings tens of thousands of symbols long,
so ``is_binstr``, ``untuple`` and ``decode_int`` read a long string in single
C passes (``bytes.translate``; ``rfind`` and ``count``; ``int`` of a
numeral's head up to its last "1"), and ``tuple_strs`` pads with ``ljust``.
The comment at ``_BINARY_PASS_LEN`` says what each pass does and from which
length it pays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product


class MetrentError(Exception):
    """Root of the errors the library raises on purpose.  A run fails in one
    of two ways, and each branch has its own command-line exit code."""


class ConfigError(MetrentError):
    """The request was bad: an option, a table, a size, a scan depth, or an
    argument outside the documented domain (exit code 2)."""


class InvalidConfig(ConfigError, ValueError):
    """A value the library does not accept: an argument outside the
    documented domain of the function it is passed to, an unknown covering
    mode, a running time with no evaluator, or a malformed table."""


class ContractError(MetrentError):
    """A name broke its representation or its budget, or a computation broke
    a contract it certifies (exit code 3)."""


class MalformedName(ContractError, ValueError):
    """A queried value violates the representation's layout or its claimed
    encoding convention."""


class _Record:
    """Base of the library's record classes.  The fields are the parameters
    of the subclass's own ``__init__``, in order.  Records compare and print
    field by field, and are unhashable because their fields may change.
    Nothing is generated per class at import, which keeps the library's
    import cheap."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A record whose fields are fixed: it hashes by value and refuses
    assignment.  ``__init__`` sets the fields with ``object.__setattr__``;
    going through ``self.__dict__`` instead would give every instance its
    own dict and slow each attribute read."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


# Each codec function reads a long string in C passes that run at memory
# speed, and a short one with the method of lowest fixed cost:
#   is_binstr   isascii, then encode and translate(None, b"01"), which must
#               leave nothing (short: strip("01"));
#   untuple     per column, rfind("1") and a count("0") of the tail after
#               it, so that rstrip("0") runs only on non-binary text (short:
#               rstrip("0")); a column that ends in its marker is one slice
#               at every length;
#   decode_int  int() of the head up to the last "1", shifted left by the
#               length of the zero tail (short: int() of the whole string).
# The crossovers, timed on CPython 3.11 (x86-64, 2 shared CPUs): translate
# beats strip from about 20 characters; rfind and count beat rstrip on
# columns of about 64 characters whose zero tail is half the column, and
# rstrip costs about 4.5 ns per zero it strips; the head read beats int()
# from about 200 characters when two thirds of the numeral is its zero tail.
_BINARY_PASS_LEN = 20
_TAIL_PASS_LEN = 64
_HEAD_PASS_LEN = 256


def is_binstr(a: str) -> bool:
    if len(a) < _BINARY_PASS_LEN:
        return not a.strip("01")
    return a.isascii() and not a.encode().translate(None, b"01")


def all_strings(max_len: int):
    """Yield every binary string of length <= max_len, shortest first."""
    for n in range(max_len + 1):
        yield from strings_of_length(n)


def strings_of_length(n: int):
    for bits in product("01", repeat=n):
        yield "".join(bits)


# ---------------------------------------------------------------------------
# natural / integer codecs

# Entries per memo.  One hat-norm name at precisions 0-2 reads 899 distinct
# coefficient queries (129 + 257 + 513) before the next name repeats them,
# and an LRU memo smaller than such a cycle hits nothing: every entry is
# evicted just before it is asked again.  1024 holds that cycle; one norm
# plan is 513 queries at precision 3 and 1 025 at precision 4, and from there
# the memos thrash again.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def nat_str(n: int) -> str:
    """Binary numeral of a non-negative integer; 0 encodes as epsilon."""
    if n < 0:
        raise InvalidConfig("nat_str needs n >= 0")
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
        raise MalformedName(f"not a binary string: {a!r}")
    z = _binary_int(a)
    if z is None:
        raise MalformedName(f"not an integer encoding: {a!r}")
    return z


def _binary_int(a: str) -> int | None:
    """decode_int of a binary string a, or None when a is "0" or starts
    with "00", which encode no integer."""
    if a == "":
        return 0
    if a[0] == "1":
        return int(a, 2) if len(a) < _HEAD_PASS_LEN else _long_numeral(a)
    if a[1:2] != "1":
        return None
    # int() reads the sign's "0" as a leading zero
    return -(int(a, 2) if len(a) < _HEAD_PASS_LEN else _long_numeral(a))


def _long_numeral(a: str) -> int:
    """int(a, 2) for a binary string a that has a "1", reading only the head
    up to the last "1": the zero tail is a shift."""
    j = a.rfind("1")
    return int(a[:j + 1], 2) << (len(a) - 1 - j)


# ---------------------------------------------------------------------------
# tupling

# tuple_strs memoizes a tuple whose longest part is shorter than this; its
# result is then at most k * 64 symbols long
_SHORT_PART_LEN = 64


def tuple_strs(parts) -> str:
    """Fixed-arity tupling: pad each part to max length + 1 (append a "1",
    then "0"s), then interleave the padded strings column by column.

    |result| = k * (max |a_i| + 1) and the map is injective for fixed k.
    Parts must be ASCII (binary strings are); others fail to encode with
    UnicodeEncodeError.
    """
    if not isinstance(parts, (list, tuple)):
        parts = list(parts)
    k = len(parts)
    if k < 2:
        raise InvalidConfig("tuple_strs needs at least two parts")
    m = max(map(len, parts)) + 1
    if m <= _SHORT_PART_LEN:
        return _short_tuple(tuple(parts))
    return _interleave(parts, k, m)


@lru_cache(maxsize=_MEMO_SIZE)
def _short_tuple(parts: tuple[str, ...]) -> str:
    """tuple_strs of at least two parts, each shorter than _SHORT_PART_LEN."""
    return _interleave(parts, len(parts), max(map(len, parts)) + 1)


def _interleave(parts, k: int, m: int) -> str:
    """The k parts, each padded to m symbols, interleaved column by column."""
    out = bytearray(k * m)
    i = 0
    for p in parts:
        out[i::k] = (p + "1").ljust(m, "0").encode("ascii")
        i += 1
    return out.decode("ascii")


def proj_value(i: int, k: int, b: str) -> str | None:
    """Component i (1-based) of a k-tuple; None if b is not in the image of
    the k-ary tupling."""
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
            out.append(col[:-1])
            continue
        # the marker is the last symbol other than "0", and must be "1"
        if len(col) < _TAIL_PASS_LEN:
            j = len(col.rstrip("0")) - 1
            if j < 0 or col[j] != "1":
                return None
        else:
            j = col.rfind("1")
            if j < 0 or col.count("0", j + 1) != len(col) - 1 - j:
                return None
        out.append(col[:j])
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
# exact rationals

def _frac(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as it is."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _pow2(e: int) -> int | Fraction:
    """2^e exactly: an int for e >= 0, a Fraction below 1."""
    return 1 << e if e >= 0 else Fraction(1, 1 << -e)


def _dyadic(x: Fraction) -> tuple[int, int]:
    """(num, scale) with x = num / 2^scale in lowest terms: num is odd or
    scale is 0.  Raises InvalidConfig when x is not dyadic."""
    d = x.denominator
    s = d.bit_length() - 1
    if d != 1 << s:
        raise InvalidConfig(f"{x} is not dyadic")
    return x.numerator, s


def round_ratio(n: int, d: int) -> int:
    """Nearest integer to n/d (d > 0) with ties rounded away from zero; n/d
    need not be in lowest terms."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def round_half_away(x: Fraction) -> int:
    """Nearest integer with ties rounded away from zero."""
    return round_ratio(x.numerator, x.denominator)


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
        raise InvalidConfig(f"ceil_lb_ratio needs r > 0, got {r}")
    a, b = r.numerator, r.denominator
    # 2^(k-1) < a/b < 2^(k+1), so the answer is k or k + 1
    k = a.bit_length() - b.bit_length()
    return k if a << max(-k, 0) <= b << max(k, 0) else k + 1


def floor_lb(n: int) -> int:
    if n < 1:
        raise InvalidConfig("floor_lb needs n >= 1")
    return n.bit_length() - 1
