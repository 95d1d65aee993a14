"""Ring backends: arithmetic, involution, parsing, canonical order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringinv.errors import NotEnumerableError, UnsupportedInvolutionError
from ringinv.geninv import enumerate_inverse_set
from ringinv.ideals import LEFT, RIGHT, all_ideals
from ringinv.linalg import PrimeField
from ringinv.rings import (MatF, MatQ, MatrixRing, ModularRing, Ring, Zn,
                           classify, inverse_of_unit, is_invertible,
                           ring_from_name)


def test_zn_arithmetic():
    ring = Zn(6)
    a, b = ring.parse(4), ring.parse(5)
    assert (a + b).payload == 3
    assert (a * b).payload == 2
    assert (a - b).payload == 5
    assert (-a).payload == 2
    assert ring.zero + a == a
    assert ring.one * a == a


@pytest.mark.parametrize("name", ["zn:12", "m2f3"])
def test_power_equals_repeated_multiplication(name):
    ring = ring_from_name(name)
    for a in ring.elements():
        power = ring.one
        for k in range(21):
            assert a ** k == power
            power = power * a


def test_zn_has_no_involution():
    ring = Zn(6)
    assert not ring.has_involution
    with pytest.raises(UnsupportedInvolutionError):
        ring.parse(2).star


def test_matq_exact_fractions():
    ring = MatQ(2)
    a = ring.parse([["1/3", "1"], ["0", "1/7"]])
    b = a * a
    assert b.payload[0][0] == Fraction(1, 9)
    assert b.payload[0][1] == Fraction(1, 3) + Fraction(1, 7)
    assert ring.one * a == a


def test_matf_characteristic():
    ring = MatF(2, 5)
    a = ring.parse([[4, 0], [0, 4]])
    assert (a + a).payload[0][0] == 3
    assert (a * a).payload[0][0] == 1


def test_transpose_is_an_involution():
    ring = MatQ(2)
    a = ring.parse([[1, 2], [3, 4]])
    b = ring.parse([[0, 1], [1, 1]])
    assert a.star.star == a
    assert (a * b).star == b.star * a.star
    assert (a + b).star == a.star + b.star


def test_parse_render_round_trip():
    for ring in (Zn(8), MatF(2, 3), MatQ(2)):
        for a in (ring.zero, ring.one):
            assert ring.parse(ring.to_json(a)) == a
            assert ring.render(a)


def test_ring_from_name_shorthands():
    assert ring_from_name("zn:6") == Zn(6)
    assert ring_from_name("m2f2") == MatF(2, 2)
    assert ring_from_name("m2q") == MatQ(2)
    with pytest.raises(ValueError):
        ring_from_name("nosuch")


def test_elements_canonical_and_sorted():
    ring = Zn(6)
    elems = ring.elements()
    assert len(elems) == 6
    keys = [ring.sort_key(a) for a in elems]
    assert keys == sorted(keys)

    ring = MatF(2, 2)
    elems = ring.elements()
    assert len(elems) == 16
    keys = [ring.sort_key(a) for a in elems]
    assert keys == sorted(keys)
    assert len(set(keys)) == 16


def test_finite_flags_and_sizes():
    assert Zn(6).finite and Zn(6).size == 6
    assert MatF(2, 3).finite and MatF(2, 3).size == 81
    ring = MatQ(2)
    assert not ring.finite
    with pytest.raises(NotEnumerableError):
        ring.elements()


def test_classify_flags():
    ring = Zn(6)
    assert classify(ring.parse(5))["invertible"]
    assert classify(ring.parse(3))["idempotent"]
    assert classify(ring.parse(4))["idempotent"]
    assert classify(ring.parse(2))["symmetric"] is None
    ring = MatF(2, 2)
    flags = classify(ring.parse([[0, 1], [0, 0]]))
    assert flags["nilpotent"] and not flags["invertible"]
    assert flags["rank"] == 1
    assert classify(ring.parse([[1, 0], [0, 0]]))["projection"]


def _other_backend(cls):
    """A copy of a backend class that shares its methods but passes no
    isinstance check on it, as a new backend would."""
    return type("Other" + cls.__name__, (Ring,), {
        k: v for k, v in vars(cls).items()
        if k not in ("__dict__", "__weakref__")})


def _payloads(elements):
    return [x.payload for x in elements]


@pytest.mark.parametrize("cls, args", [
    (ModularRing, (8,)), (ModularRing, (12,)), (ModularRing, (30,)),
    (MatrixRing, (2, PrimeField(2)))], ids=["zn:8", "zn:12", "zn:30", "m2f2"])
def test_a_copy_of_a_backend_answers_as_the_backend(cls, args):
    # the other modules reach a backend through the protocol of Ring only,
    # so a new backend is one class and needs no edit elsewhere
    real, other = cls(*args), _other_backend(cls)(*args)
    for a, b in zip(real.elements(), other.elements(), strict=True):
        assert b.payload == a.payload
        assert classify(b) == classify(a)
        for equations in (("1",), ("1", "2"), ("1", "5"), ("2",)):
            assert _payloads(enumerate_inverse_set(b, equations)) == \
                _payloads(enumerate_inverse_set(a, equations))
    for side in (RIGHT, LEFT):
        assert [_payloads(s.members()) for s in all_ideals(other, side)] \
            == [_payloads(s.members()) for s in all_ideals(real, side)]


def test_invertibility_and_unit_inverse():
    ring = MatQ(2)
    a = ring.parse([[2, 1], [1, 1]])
    assert is_invertible(a)
    assert a * inverse_of_unit(a) == ring.one
    assert not is_invertible(ring.parse([[1, 1], [1, 1]]))
    ring = Zn(6)
    assert is_invertible(ring.parse(5))
    assert not is_invertible(ring.parse(2))


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_zn_ring_axioms(x, y, z):
    ring = Zn(6)
    a, b, c = ring.parse(x), ring.parse(y), ring.parse(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@st.composite
def m2f3(draw):
    entries = [[draw(st.integers(0, 2)) for _ in range(2)] for _ in range(2)]
    return MatF(2, 3).parse(entries)


@settings(max_examples=60)
@given(m2f3(), m2f3(), m2f3())
def test_matrix_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a
    assert (a * b).star == b.star * a.star
