import pytest
from hypothesis import given, settings, strategies as st

from metrent.baire import (BoundViolation, MalformedPadding, Name, NotAPair,
                           TraceMiss, constant_name, in_kl,
                           is_length_monotone, length_of, name_from_trace,
                           pad, pair_names, split_pair, trace_of, unpad,
                           unpad_value)
from metrent.strings import MalformedName, all_strings, tuple_strs


def identity_name():
    return Name(lambda a: a, label="id")


def test_length_of_examples():
    assert length_of(constant_name(""), 7) == 0
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


def test_non_binary_answer_is_malformed_name():
    with pytest.raises(MalformedName):
        Name(lambda a: "x")("")


def test_declared_bound_checked():
    phi = Name(lambda a: a + a, declared_bound=lambda n: n + 1)
    assert phi("") == ""
    assert phi("0") == "00"
    with pytest.raises(BoundViolation):
        phi("01")


def test_in_kl_examples():
    assert in_kl(constant_name(""), lambda n: n, 5)
    clipped = lambda n: max(n - 1, 0)
    assert not in_kl(identity_name(), clipped, 3)
    assert in_kl(identity_name(), lambda n: n, 8)


def test_is_length_monotone_examples():
    assert is_length_monotone(constant_name("11"), 4)
    assert is_length_monotone(Name(lambda a: a[::-1]), 4)
    bad = Name(lambda a: "11" if a == "" else "")
    assert not is_length_monotone(bad, 2)


def test_pad_examples():
    phi = Name(lambda a: "0")
    assert pad(phi, lambda n: 2)("") == "0100"
    psi = constant_name("")
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
    with pytest.raises(MalformedPadding):
        unpad_value("100")
    with pytest.raises(MalformedPadding):
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
    p1, p2 = split_pair(chi)
    for a in all_strings(4):
        assert p1(a) == phi(a)
        assert p2(a) == psi(a)


def test_pair_constant_eps():
    chi = pair_names(constant_name(""), constant_name(""))
    for a in ("", "0", "11"):
        assert chi(a) == "11"


def test_split_not_a_pair():
    p1, _ = split_pair(constant_name(""))
    with pytest.raises(NotAPair):
        p1("0")


def test_trace_roundtrip():
    phi = identity_name()
    text = trace_of(phi, list(all_strings(3)))
    replay = name_from_trace(text)
    for a in all_strings(3):
        assert replay(a) == phi(a)
    with pytest.raises(TraceMiss):
        replay("0000")
