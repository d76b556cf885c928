import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from metrent.banach import _read_pair, delta_square_name, dsq_query
from metrent.funcs import PiecewiseLinear, continuity_modulus, modulus_fn
from metrent.strings import (_BINARY_PASS_LEN, _HEAD_PASS_LEN,
                             _SHORT_PART_LEN, _TAIL_PASS_LEN, InvalidConfig,
                             MalformedName, _short_tuple, all_strings,
                             ceil_lb, ceil_lb_ratio, decode_int, encode_int,
                             floor_lb, is_binstr, nat_str, parse_nat,
                             parse_nats, proj_value, round_half_away,
                             round_ratio, tuple_list, tuple_strs, untuple)

binstr = st.text(alphabet="01", max_size=7)


# independent straight-line transcription of the tupling definition,
# used as the oracle for the production implementation
def oracle_tuple(parts):
    m = max(len(p) for p in parts)
    padded = [p + "1" + "0" * (m - len(p)) for p in parts]
    out = ""
    for pos in range(m + 1):
        for c in padded:
            out += c[pos]
    return out


def test_tuple_golden():
    assert tuple_strs(["", ""]) == "11"
    assert tuple_strs(["0", "1"]) == "0111"
    # frozen via the independent transcription of the definition
    assert oracle_tuple(["1", ""]) == "1110"
    assert tuple_strs(["1", ""]) == "1110"
    # a tuple is read as it is; any other iterable is listed first
    assert tuple_strs(("0", "1")) == tuple_strs(iter(["0", "1"])) == "0111"


def test_tuple_golden_file():
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "tuples.golden"
    for line in golden.read_text().splitlines():
        a, b, expect = line.split("\t")
        assert tuple_strs([a, b]) == expect
        assert oracle_tuple([a, b]) == expect


def test_tuple_length_law():
    for k in (2, 3, 4):
        for parts in [[""] * k, ["1", "0" * 3] + [""] * (k - 2)]:
            m = max(len(p) for p in parts)
            assert len(tuple_strs(parts)) == k * (m + 1)


# binary strings of any length up to 2000, drawn from a seeded generator so
# that long parts are as likely as short ones
long_binstr = st.builds(lambda n, rnd: format(rnd.getrandbits(n), "b").zfill(n) if n else "",
                        st.integers(0, 2000), st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.lists(long_binstr, min_size=k, max_size=k)))
@example(["", ""])
@example(["1" * 2000, ""])
@example(["", "0" * 1999, "1", "01" * 1000, ""])
def test_tuple_strs_matches_oracle_on_long_parts(parts):
    assert tuple_strs(parts) == oracle_tuple(parts)


def test_tuple_strs_rejects_non_ascii():
    with pytest.raises(ValueError):
        tuple_strs(["0", "\u00e9"])


def test_tuple_strs_needs_two_parts():
    with pytest.raises(ValueError, match="at least two parts"):
        tuple_strs(["1"])


# one character that int(a, 2) accepts or rejects, at any position of a
# binary string of up to 200 characters, on both sides of the length where
# is_binstr switches from strip to counting
def _binary_with_one(n):
    return st.tuples(st.text(alphabet="01", min_size=n, max_size=n),
                     st.integers(0, n),
                     st.sampled_from(["", "2", "_", " ", "\n", "\u00e9",
                                      "\u0660"])).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])


# arbitrary code points (lone surrogates included), short strings that are
# mostly binary with the odd ASCII or non-ASCII character, and long binary
# strings with at most one such character
any_text = st.one_of(
    st.lists(st.integers(0, 0x10FFFF)).map(lambda cs: "".join(map(chr, cs))),
    st.text(alphabet="01x \t\u00e9\u0660", max_size=20),
    st.integers(0, 200).flatmap(_binary_with_one))


@settings(max_examples=300, deadline=None)
@given(any_text)
@example("")
@example("\u0660")
@example("01\u00e91")
@example("0 1")
@example("0" * 31 + "_")
@example(" " + "1" * 31)
@example("01" * 16)
@example("01" * 100 + "_")
def test_is_binstr_matches_per_character_check(a):
    assert is_binstr(a) == all(c in "01" for c in a) == (set(a) <= {"0", "1"})


def test_proj_examples():
    assert proj_value(1, 2, "0111") == "0"
    assert proj_value(2, 2, "0111") == "1"
    assert proj_value(2, 2, "1110") == ""
    assert proj_value(1, 2, "0") is None


def test_proj_not_in_image():
    assert proj_value(1, 2, "") is None
    assert proj_value(1, 2, "00") is None       # no terminator markers
    assert proj_value(1, 2, "10") is None       # padding not minimal


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tuple_proj_roundtrip_small(k):
    pool = list(all_strings(3))
    import itertools
    for parts in itertools.product(pool, repeat=k):
        b = tuple_strs(list(parts))
        for i in range(1, k + 1):
            assert proj_value(i, k, b) == parts[i - 1]


@given(st.lists(binstr, min_size=2, max_size=4))
def test_tuple_proj_roundtrip_random(parts):
    b = tuple_strs(parts)
    k = len(parts)
    for i in range(1, k + 1):
        assert proj_value(i, k, b) == parts[i - 1]


def oracle_untuple(k, b):
    """Reference untupling: strip each column's padding, then accept only
    if tupling the components reproduces b."""
    if len(b) == 0 or len(b) % k:
        return None
    parts = []
    for i in range(k):
        col = b[i::k]
        if "1" not in col:
            return None
        parts.append(col[:col.rindex("1")])
    return parts if oracle_tuple(parts) == b else None


def _check_untuple(k, b):
    comps = untuple(k, b)
    assert comps == oracle_untuple(k, b)
    per_component = [proj_value(i, k, b) for i in range(1, k + 1)]
    assert comps == (None if None in per_component else per_component)


@given(st.lists(binstr, min_size=2, max_size=5))
def test_untuple_on_tuples(parts):
    b = tuple_strs(parts)
    assert untuple(len(parts), b) == parts
    _check_untuple(len(parts), b)


@given(st.integers(min_value=2, max_value=5), st.text(alphabet="01", max_size=24))
def test_untuple_on_random_strings(k, b):
    _check_untuple(k, b)


def test_untuple_refuses_a_marker_other_than_one():
    # a column's marker is its last symbol other than "0", and only "1" is
    # one: on short columns and on columns past the tail-pass length
    tail = "0" * (2 * _TAIL_PASS_LEN)
    for k, b in ((2, "1a"), (3, "1z1"), (2, "1a" + tail), (2, "a1" + tail),
                 (2, "1a1z" + tail)):
        assert untuple(k, b) is None, (k, b)
        assert ref_untuple(k, b) is None, (k, b)
    assert parse_nats(2, "1a") is None
    # a symbol other than "0" or "1" before the marker stays in its part
    assert untuple(2, "a111") == ["a", "1"]


def test_int_codec_examples():
    assert encode_int(0) == ""
    assert decode_int("") == 0
    assert encode_int(5) == "101"
    assert decode_int("101") == 5
    assert encode_int(-3) == "011"
    assert decode_int("011") == -3


def test_int_codec_malformed():
    for bad in ("0", "00", "001", "0011"[:3], "2"):
        with pytest.raises(MalformedName):
            decode_int(bad)


@given(st.integers(min_value=-(2 ** 16), max_value=2 ** 16))
def test_int_codec_roundtrip(z):
    assert decode_int(encode_int(z)) == z


def test_nat_codec():
    assert nat_str(0) == ""
    assert parse_nat("") == 0
    assert nat_str(6) == "110"
    assert parse_nat("110") == 6
    assert parse_nat("01") is None


def _outcome(f, *args):
    """What one call does: its value with the value's type, or the type of
    the exception it raised."""
    try:
        v = f(*args)
    except Exception as e:
        return "raised", type(e)
    return "returned", v, type(v)


NUMERAL_CORNERS = ["", "0", "00", "01", "001", "1", "10", "1_0", " 1", "1\n",
                   "0b1", "1\u0660", "\u0661", "1" * 70, "1" + "0" * 200]
numeral_text = st.one_of(st.sampled_from(NUMERAL_CORNERS),
                         st.text(alphabet="01_ b\n\u0660", max_size=12))
nat_args = st.one_of(st.sampled_from([0, 1, 2, -1, 1 << 64, 1 << 200, -(1 << 200),
                                      True, False, 1.0, 0.0]),
                     st.integers(-(1 << 80), 1 << 80))


@settings(max_examples=300, deadline=None)
@given(nat_args)
def test_memoized_nat_str_matches_original(n):
    # each outcome twice: a cached entry and an exception must both repeat
    for _ in range(2):
        assert _outcome(nat_str, n) == _outcome(nat_str.__wrapped__, n)


def test_memoized_nat_str_raises_on_every_call():
    for n in (-1, -(1 << 200)):
        for _ in range(3):
            with pytest.raises(ValueError):
                nat_str(n)


def test_memo_keeps_types_apart():
    # typed: 1.0 and True get their own entries, not the entry for 1
    assert nat_str(1) == "1"
    assert _outcome(nat_str, 1.0) == _outcome(nat_str.__wrapped__, 1.0)
    with pytest.raises(ValueError):
        nat_str(1.0)
    assert _outcome(nat_str, True) == ("returned", "1", str)


@settings(max_examples=300, deadline=None)
@given(numeral_text)
def test_memoized_parse_nat_matches_original(a):
    for _ in range(2):
        assert _outcome(parse_nat, a) == _outcome(parse_nat.__wrapped__, a)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.one_of(
    numeral_text,
    st.lists(numeral_text, min_size=2, max_size=4).map(
        lambda ps: tuple_strs(ps) if all(p.isascii() for p in ps) else "".join(ps))))
def test_memoized_parse_nats_matches_original(k, b):
    for _ in range(2):
        got = _outcome(parse_nats, k, b)
        assert got == _outcome(parse_nats.__wrapped__, k, b)
        assert got[0] == "returned" and got[2] in (tuple, type(None))


def test_parse_nats_returns_a_tuple():
    assert parse_nats(3, tuple_strs([nat_str(4), "", "1"])) == (4, 0, 1)
    assert parse_nats(2, tuple_strs(["01", "1"])) is None
    assert parse_nats(2, "1") is None


def test_memo_is_bounded():
    for f in (nat_str, parse_nat, parse_nats, _short_tuple):
        size = f.cache_info().maxsize
        assert size is not None and 0 < size <= 4096


# The codec's C passes against the per-symbol code they replaced: the
# references below are the earlier bodies of is_binstr, untuple and
# decode_int, and the new ones must agree with them on every str.

def ref_is_binstr(a):
    if len(a) < 32:
        return not a.strip("01")
    return a.count("0") + a.count("1") == len(a)


def ref_untuple(k, b):
    if k < 2 or len(b) == 0 or len(b) % k != 0:
        return None
    out = []
    full = False
    for i in range(k):
        col = b[i::k]
        if col[-1] == "1":
            full = True
        stripped = col.rstrip("0")
        if not stripped.endswith("1"):     # no "1" terminator marker
            return None
        out.append(stripped[:-1])
    return out if full else None


def ref_decode_int(a):
    if a == "":
        return 0
    if not ref_is_binstr(a):
        raise MalformedName(f"not a binary string: {a!r}")
    if a[0] == "1":
        return int(a, 2)
    body = a[1:]
    if body == "" or body[0] != "1":
        raise MalformedName(f"not an integer encoding: {a!r}")
    return -int(body, 2)


def _zero_tail(alphabet):
    """A head of up to 40 characters over the alphabet, then up to 3 000
    zeros."""
    return st.tuples(st.text(alphabet=alphabet, max_size=40),
                     st.integers(0, 3000)).map(lambda t: t[0] + "0" * t[1])


def _sized(alphabet, length):
    """Text over the alphabet within 3 characters of length."""
    return st.integers(length - 3, length + 3).flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n))


def _padded(alphabet, length):
    """A head of up to 40 characters over the alphabet, padded with zeros to
    within 3 characters of length."""
    return st.tuples(st.text(alphabet=alphabet, max_size=40),
                     st.integers(length - 3, length + 3)).map(
        lambda t: t[0] + "0" * (t[1] - len(t[0])))


# binary, non-binary ASCII and non-ASCII text, long zero tails, and lengths
# on both sides of is_binstr's and decode_int's crossovers
codec_text = st.one_of(
    st.text(alphabet="01", max_size=80), long_binstr,
    st.text(alphabet="0012a", max_size=80),
    st.text(alphabet="01\u00e9\u0660", max_size=80), any_text,
    _zero_tail("01"), _zero_tail("0012a"), _zero_tail("01\u00e9"),
    *[f(alphabet, length) for alphabet in ("01", "0012a\u00e9")
      for f, length in ((_sized, _BINARY_PASS_LEN), (_sized, _HEAD_PASS_LEN),
                        (_padded, _HEAD_PASS_LEN))])


def _spoil(b, pos, c):
    pos %= len(b)
    return b[:pos] + c + b[pos + 1:]


def _tuples(k):
    """k-tuples of zero-tailed parts, some with columns on both sides of
    untuple's crossover."""
    part = st.one_of(_zero_tail("01"), _padded("01", _TAIL_PASS_LEN - 1))
    return st.lists(part, min_size=k, max_size=k).map(tuple_strs)


# k-tuples, whole or with one character replaced by a non-binary one, and
# any codec text
tuple_text = st.integers(2, 5).flatmap(lambda k: st.tuples(st.just(k), st.one_of(
    codec_text, _tuples(k),
    st.tuples(_tuples(k), st.integers(0, 1 << 20),
              st.sampled_from("2a \u00e9")).map(lambda t: _spoil(*t)))))

CODEC_CORNERS = ["0" * 40, "1" + "0" * 40, "01" + "0" * 40, "0" * 40 + "1",
                 "a" + "0" * 40, "1a" + "0" * 40, "1" + "0" * 39 + "a",
                 "\u00e9" * 40, "1" * 31, "1" * 32, "01" * 16, "0" * 31 + "\u0660",
                 "1" * 19 + "2", "0" * 19 + "\u0660", "1" + "0" * 255,
                 "01" + "0" * 300, "011" + "0" * 300, "1" + "0" * 254 + "a",
                 "0" * 30 + "\ud800"]


@settings(max_examples=300, deadline=None)
@given(codec_text)
def test_is_binstr_matches_its_reference(a):
    assert is_binstr(a) == ref_is_binstr(a)


@pytest.mark.parametrize("a", CODEC_CORNERS)
def test_codec_corners_match_their_references(a):
    assert is_binstr(a) == ref_is_binstr(a)
    assert _outcome(decode_int, a) == _outcome(ref_decode_int, a)
    for k in (2, 3, 4):
        assert untuple(k, a) == ref_untuple(k, a)


@settings(max_examples=300, deadline=None)
@given(codec_text)
def test_decode_int_matches_its_reference(a):
    # the value, or the class of the exception raised
    assert _outcome(decode_int, a) == _outcome(ref_decode_int, a)


@settings(max_examples=300, deadline=None)
@given(tuple_text)
def test_untuple_matches_its_reference(kb):
    k, b = kb
    assert untuple(k, b) == ref_untuple(k, b)


# The un-memoized body of tuple_strs, kept as the reference for the memo of
# short tuples.
def ref_tuple_strs(parts):
    if not isinstance(parts, (list, tuple)):
        parts = list(parts)
    k = len(parts)
    if k < 2:
        raise InvalidConfig("tuple_strs needs at least two parts")
    m = max(map(len, parts)) + 1
    out = bytearray(k * m)
    i = 0
    for p in parts:
        out[i::k] = (p + "1").ljust(m, "0").encode("ascii")
        i += 1
    return out.decode("ascii")


def _part(alphabet):
    """A part of up to 40 symbols, or one whose length lies within 3 of the
    memo's limit on the longest part."""
    return st.one_of(st.text(alphabet=alphabet, max_size=40),
                     _sized(alphabet, _SHORT_PART_LEN))


# k = 2..4 parts, binary or not, with the longest part on both sides of the
# memo's limit
memo_parts = st.integers(2, 4).flatmap(lambda k: st.lists(
    st.one_of(_part("01"), _part("01a2 ")), min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(memo_parts, st.booleans())
@example(["", ""], False)
@example(["1" * (_SHORT_PART_LEN - 1), ""], True)
@example(["1" * _SHORT_PART_LEN, ""], False)
def test_memoized_tuple_strs_matches_original(parts, as_tuple):
    # each input tupled twice, so that the second call may hit the memo
    arg = tuple(parts) if as_tuple else parts
    for _ in range(2):
        assert _outcome(tuple_strs, arg) == _outcome(ref_tuple_strs, arg)


def test_memoized_tuple_strs_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(UnicodeEncodeError):
            tuple_strs(["0", "\u00e9"])
        with pytest.raises(InvalidConfig):
            tuple_strs(["1"])


def test_long_tuples_are_not_memoized():
    tuple_strs(["1", "0"])
    before = _short_tuple.cache_info().currsize
    long_part = "10" * 12_500
    assert tuple_strs([long_part, "1"]) == ref_tuple_strs([long_part, "1"])
    assert _short_tuple.cache_info().currsize == before


def test_long_point_value_round_trip():
    # a point query at precision 8 191 is about 24 600 symbols and its answer
    # about as long: the pair read back is the rounded value, and it agrees
    # with the references
    f = PiecewiseLinear.build([0, Fraction(1, 2), 1], [0, 1, Fraction(1, 4)])
    psi = delta_square_name(f, modulus_fn(continuity_modulus(f, 8)))
    n = 8191
    for r, m in ((1, 1), (1, 2), (3, 2), (0, 0)):
        query = dsq_query(n, r, m)
        assert len(query) > 24_000
        raw = psi(query)
        q, k = _read_pair(raw, "1")
        x = Fraction(r, 1 << m)
        assert Fraction(q, 1 << k) == Fraction(round_half_away(f(x) * (1 << (n + 1))),
                                              1 << (n + 1))
        zs, mark = ref_untuple(2, raw)
        assert (q, k) == (ref_decode_int(zs), len(mark) - 1)


def test_tuple_list():
    assert tuple_list([]) == ""
    assert tuple_list(["10"]) == "10"
    assert tuple_list(["0", "1"]) == tuple_strs(["0", "1"])


def test_round_half_away():
    assert round_half_away(Fraction(1, 2)) == 1
    assert round_half_away(Fraction(-1, 2)) == -1
    assert round_half_away(Fraction(3, 4)) == 1
    assert round_half_away(Fraction(1, 4)) == 0
    assert round_half_away(Fraction(-5, 2)) == -3


def _round_by_floor(x: Fraction) -> int:
    """Reference rounding: floor(|x| + 1/2) with the sign of x."""
    r = math.floor(abs(x) + Fraction(1, 2))
    return r if x >= 0 else -r


@given(st.integers(-1 << 40, 1 << 40), st.integers(1, 1 << 20), st.integers(1, 9))
@example(1, 2, 1)
@example(-1, 2, 1)
@example(-5, 2, 3)
@example(7, 4, 6)
@example(0, 3, 5)
def test_round_ratio_matches_round_half_away(n, d, k):
    """n*k / d*k is n/d unreduced by the factor k."""
    expect = round_half_away(Fraction(n, d))
    assert round_ratio(n * k, d * k) == expect == _round_by_floor(Fraction(n, d))


@given(st.integers(-1 << 30, 1 << 30), st.integers(1, 1 << 10))
def test_round_ratio_sends_half_ties_away_from_zero(m, k):
    """(2m+1)/2, written unreduced as (2m+1)k / 2k."""
    expect = m + 1 if m >= 0 else m
    assert round_ratio((2 * m + 1) * k, 2 * k) == expect \
        == round_half_away(Fraction(2 * m + 1, 2))


def test_lb_helpers():
    assert [ceil_lb(i) for i in (0, 1, 2, 3, 4, 5)] == [0, 0, 1, 2, 2, 3]
    assert [floor_lb(i) for i in (1, 2, 3, 4)] == [0, 1, 1, 2]
    with pytest.raises(ValueError, match="n >= 1"):
        floor_lb(0)


def _ceil_lb_by_search(r: Fraction) -> int:
    """Least k with r <= 2^k, found by stepping k from 0."""
    k = 0
    while r > Fraction(2) ** k:
        k += 1
    while r <= Fraction(2) ** (k - 1):
        k -= 1
    return k


def test_ceil_lb_ratio_examples():
    cases = {Fraction(1): 0, Fraction(2): 1, Fraction(3): 2, Fraction(1, 2): -1,
             Fraction(3, 4): 0, Fraction(1, 3): -1, Fraction(1, 4): -2,
             Fraction(5, 4): 1, Fraction(1, 1 << 40): -40}
    for r, k in cases.items():
        assert ceil_lb_ratio(r) == k, r
    assert ceil_lb_ratio(5) == ceil_lb(5)
    for bad in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            ceil_lb_ratio(bad)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12), st.integers(-40, 40))
@example(1, 1, 0)
@example(1, 1, 17)
@example(1, 1, -17)
@example(3, 1, -2)
def test_ceil_lb_ratio_matches_power_search(a, b, shift):
    r = Fraction(a, b) * Fraction(2) ** shift
    assert ceil_lb_ratio(r) == _ceil_lb_by_search(r)


def test_importing_the_library_loads_no_code_generator():
    # the record classes are plain classes: importing every module (the CLI
    # imports them all) loads neither dataclasses nor inspect, whose import
    # and per-class code generation cost about a third of a process's setup
    probe = ("import sys, metrent.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_records_compare_by_value():
    from metrent.entropy import ApproxSetSpec, PointCloud
    from metrent.funcs import PiecewiseLinear, StepFn
    from metrent.machine import Dialog, MeterReport
    from metrent.schauder import HaarSystem

    frozen = [(lambda: StepFn.build([0, 1], [2]), "levels"),
              (lambda: PiecewiseLinear.build([0, 1], [0, 1]), "ys"),
              (lambda: Dialog(1, ("10",)), "query_count")]
    for make, field in frozen:
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        assert a == b

    dist = lambda i, j: abs(i - j)
    mutable = [(lambda: MeterReport(3, 5, [("1", "0")]), "budget"),
               (lambda: HaarSystem(Fraction(2)), "p"),
               (lambda: ApproxSetSpec([Fraction(1)]), "delta"),
               (lambda: PointCloud([0, 1], dist), "points")]
    for make, field in mutable:
        a, b = make(), make()
        assert a == b and repr(a) == repr(b)
        with pytest.raises(TypeError):
            hash(a)
        setattr(b, field, None)
        assert a != b
    # a cloud's distance memo is not one of its fields
    a, b = PointCloud([0, 1], dist), PointCloud([0, 1], dist)
    assert a.d(0, 1) == 1 and a == b
    # a record never equals an object of another class, even one with the
    # same fields
    assert a != a._values() and a != ApproxSetSpec([Fraction(1)])
    assert Dialog(1, ("10",)) != (1, ("10",))
