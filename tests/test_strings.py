import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from metrent.strings import (Dyadic, MalformedEncoding, all_strings, ceil_lb,
                             ceil_lb_ratio, decode_int, encode_int, floor_lb,
                             is_binstr, nat_str, parse_nat, parse_nats, proj,
                             proj_value, round_half_away, round_ratio, str_len,
                             tuple_list, tuple_strs, untuple)

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


def test_str_len():
    assert str_len("") == 0
    assert str_len("010") == 3
    assert str_len("1111") == 4


def test_tuple_golden():
    assert tuple_strs(["", ""]) == "11"
    assert tuple_strs(["0", "1"]) == "0111"
    # frozen via the independent transcription of the definition
    assert oracle_tuple(["1", ""]) == "1110"
    assert tuple_strs(["1", ""]) == "1110"


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
    assert proj(1, 2, "0111") == "00"
    assert proj(2, 2, "0111") == "01"
    assert proj(1, 2, "0") == ""


def test_proj_not_in_image():
    assert proj(1, 2, "") == ""
    assert proj(1, 2, "00") == ""       # no terminator markers
    assert proj(1, 2, "10") == ""       # padding not minimal
    assert proj_value(1, 2, "10") is None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tuple_proj_roundtrip_small(k):
    pool = list(all_strings(3))
    import itertools
    for parts in itertools.product(pool, repeat=k):
        b = tuple_strs(list(parts))
        for i in range(1, k + 1):
            assert proj(i, k, b) == "0" + parts[i - 1]


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


def test_int_codec_examples():
    assert encode_int(0) == ""
    assert decode_int("") == 0
    assert encode_int(5) == "101"
    assert decode_int("101") == 5
    assert encode_int(-3) == "011"
    assert decode_int("011") == -3


def test_int_codec_malformed():
    for bad in ("0", "00", "001", "0011"[:3]):
        with pytest.raises(MalformedEncoding):
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
    for f in (nat_str, parse_nat, parse_nats):
        size = f.cache_info().maxsize
        assert size is not None and 0 < size <= 4096


def test_tuple_list():
    assert tuple_list([]) == ""
    assert tuple_list(["10"]) == "10"
    assert tuple_list(["0", "1"]) == tuple_strs(["0", "1"])


fr = st.builds(lambda n, s: Fraction(n, 1 << s),
               st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
               st.integers(min_value=0, max_value=12))


@given(fr, fr)
def test_dyadic_matches_fraction_oracle(a, b):
    da, db = Dyadic.from_fraction(a), Dyadic.from_fraction(b)
    assert (da + db).as_fraction() == a + b
    assert (da - db).as_fraction() == a - b
    assert (da * db).as_fraction() == a * b
    assert (da < db) == (a < b)
    assert (da == db) == (a == b)


def test_dyadic_canonical():
    d = Dyadic(4, 2)
    assert (d.num, d.scale) == (1, 0)
    assert Dyadic(6, 1).as_fraction() == Fraction(3)
    assert Dyadic(0, 7).scale == 0


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
