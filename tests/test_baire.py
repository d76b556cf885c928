import pytest
from hypothesis import given, settings, strategies as st

from metrent.baire import (SCAN_CUTOFF, Name, in_kl, is_length_monotone,
                           name_from_trace, pad, pair_names, trace_of, unpad,
                           unpad_value)
from metrent.strings import (InvalidConfig, MalformedName, all_strings,
                             tuple_strs, untuple)

from fraction_reference import length_of


def identity_name():
    return Name(lambda a: a, label="id")


def test_length_of_examples():
    assert length_of(Name(lambda a: ""), 7) == 0
    assert length_of(identity_name(), 5) == 5
    assert length_of(Name(lambda a: a + a), 3) == 6


def test_length_of_monotone_in_n():
    phi = Name(lambda a: a[:2])
    vals = [length_of(phi, n) for n in range(6)]
    assert vals == sorted(vals)


def test_name_determinism_and_cache():
    calls = []
    phi = Name(lambda a: (calls.append(a), "1")[1])
    assert phi("01") == phi("01") == "1"
    assert calls == ["01"]


def test_name_repr_shows_its_label():
    assert repr(identity_name()) == "Name(id)"
    assert repr(Name(lambda a: a)) == "Name(?)"


def test_non_binary_answer_is_malformed_name():
    with pytest.raises(MalformedName):
        Name(lambda a: "x")("")


def test_in_kl_examples():
    assert in_kl(Name(lambda a: ""), lambda n: n, 5)
    clipped = lambda n: max(n - 1, 0)
    assert not in_kl(identity_name(), clipped, 3)
    assert in_kl(identity_name(), lambda n: n, 8)


def test_is_length_monotone_examples():
    assert is_length_monotone(Name(lambda a: "11"), 4)
    assert is_length_monotone(Name(lambda a: a[::-1]), 4)
    bad = Name(lambda a: "11" if a == "" else "")
    assert not is_length_monotone(bad, 2)
    # two queries of one length, answers of two lengths
    uneven = Name(lambda a: "1" if a == "1" else "")
    assert not is_length_monotone(uneven, 1)


@pytest.mark.parametrize("scan", [
    lambda phi, depth: length_of(phi, depth),
    lambda phi, depth: in_kl(phi, lambda n: n, depth),
    lambda phi, depth: is_length_monotone(phi, depth),
], ids=["length_of", "in_kl", "is_length_monotone"])
def test_scan_past_the_cutoff_raises_before_any_query(scan):
    asked = []
    phi = Name(lambda a: (asked.append(a), "")[1])
    with pytest.raises(InvalidConfig, match="exceeds cutoff"):
        scan(phi, SCAN_CUTOFF + 1)
    assert asked == []
    scan(phi, 2)                  # within the cutoff every query is seen
    assert len(asked) == 7


def test_pad_examples():
    phi = Name(lambda a: "0")
    assert pad(phi, lambda n: 2)("") == "0100"
    psi = Name(lambda a: "")
    assert pad(psi, lambda n: 0)("") == ""
    one = Name(lambda a: "1")
    padded = pad(one, lambda n: 3)
    for a in ("", "0", "10"):
        assert padded(a) == "110000"


def test_pad_length_law():
    phi = Name(lambda a: a)
    m = lambda n: 3
    padded = pad(phi, m)
    for a in all_strings(5):
        assert len(padded(a)) == 2 * max(3, len(a))


def test_unpad_examples():
    assert unpad_value("0100") == "0"
    assert unpad_value("") == ""
    assert unpad_value("110000") == "1"
    with pytest.raises(MalformedName, match="odd length"):
        unpad_value("100")
    with pytest.raises(MalformedName, match="bad digit pair"):
        unpad_value("1000")


@settings(max_examples=25)
@given(st.binary(min_size=1, max_size=8))
def test_pad_makes_length_monotone_and_roundtrips(seed):
    rnd = list(seed)
    phi = Name(lambda a: "01" * (rnd[len(a) % len(rnd)] % 3))
    dominate = lambda n: 8
    padded = pad(phi, dominate)
    assert is_length_monotone(padded, 4)
    back = unpad(padded)
    for a in all_strings(4):
        assert back(a) == phi(a)


def test_pair_and_split():
    phi, psi = identity_name(), Name(lambda a: "1" + a)
    chi = pair_names(phi, psi)
    assert chi("") == tuple_strs(["", "1"])
    for a in all_strings(4):
        assert untuple(2, chi(a)) == [phi(a), psi(a)]


def test_pair_with_a_non_binary_component_is_malformed():
    # the component's own check refuses a non-binary answer before the pair
    # tuples it
    bad = Name(lambda a: "0" if a else "2", label="bad")
    chi = pair_names(identity_name(), bad)
    assert untuple(2, chi("1")) == ["1", "0"]
    with pytest.raises(MalformedName, match="name 'bad'"):
        chi("")
    with pytest.raises(MalformedName, match="name 'bad'"):
        pair_names(bad, bad)("")
    assert "" not in chi._cache


def test_pair_constant_eps():
    chi = pair_names(Name(lambda a: ""), Name(lambda a: ""))
    for a in ("", "0", "11"):
        assert chi(a) == "11"


def test_trace_roundtrip():
    phi = identity_name()
    text = trace_of(phi, list(all_strings(3)))
    replay = name_from_trace(text)
    for a in all_strings(3):
        assert replay(a) == phi(a)
    with pytest.raises(InvalidConfig, match="no entry"):
        replay("0000")
    # a line without a tab is no entry, so its text is not a query
    skipped = name_from_trace("0\t1\n101\n")
    assert skipped("0") == "1"
    with pytest.raises(InvalidConfig, match="no entry"):
        skipped("101")
