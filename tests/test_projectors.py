"""Projectors rho_{S,T} carried by their unit rho(1)."""

import pytest

from ringinv.errors import PreconditionError
from ringinv.ideals import (LEFT, RIGHT, annihilator, direct_sum, principal)
from ringinv.projectors import (phi_equals_projector, projector,
                                projector_from_idempotent)
from ringinv.rings import MatF, Zn

Z6 = Zn(6)
M2F2 = MatF(2, 2)


def test_projector_fixes_onto_kills_along():
    s = principal(Z6.parse(2), RIGHT)
    t = principal(Z6.parse(3), RIGHT)
    rho = projector(s, t)
    assert rho is not None
    assert rho.is_unit_idempotent()
    for x in s.members():
        assert rho.apply(x) == x
    for x in t.members():
        assert rho.apply(x) == Z6.zero


def test_projector_unit_laws():
    s = principal(Z6.parse(2), RIGHT)
    t = principal(Z6.parse(3), RIGHT)
    rho = projector(s, t)
    rho2 = rho.complementary()
    # rho + rho' = id as maps: units sum to 1
    assert rho.unit + rho2.unit == Z6.one
    # module compatibility: rho(x r) = rho(x) r for right ideals
    for x in Z6.elements():
        for r in (Z6.parse(2), Z6.parse(5)):
            assert rho.apply(x * r) == rho.apply(x) * r


def test_projector_none_when_not_direct_sum():
    s = principal(Z6.parse(2), RIGHT)
    assert projector(s, s) is None


def test_projector_from_idempotent():
    p = M2F2.parse([[1, 0], [0, 0]])
    rho = projector_from_idempotent(p, RIGHT)
    assert rho.unit == p
    assert rho.onto == principal(p, RIGHT)
    assert rho.along == annihilator(p, RIGHT)
    lrho = projector_from_idempotent(p, LEFT)
    assert lrho.unit == p
    with pytest.raises(PreconditionError):
        projector_from_idempotent(M2F2.parse([[0, 1], [0, 0]]), RIGHT)


def test_phi_equals_projector():
    p = M2F2.parse([[1, 0], [0, 0]])
    assert phi_equals_projector(p, principal(p, RIGHT),
                                annihilator(p, RIGHT))
    # wrong unit
    q = M2F2.parse([[0, 0], [0, 1]])
    assert not phi_equals_projector(q, principal(p, RIGHT),
                                    annihilator(p, RIGHT))
    # not a direct sum at all
    assert not phi_equals_projector(p, principal(p, RIGHT),
                                    principal(p, RIGHT))


def test_left_projector_applies_on_the_right():
    p = M2F2.parse([[1, 0], [1, 0]])
    assert p * p == p
    rho = projector_from_idempotent(p, LEFT)
    for x in principal(p, LEFT).members():
        assert rho.apply(x) == x
    for x in annihilator(p, LEFT).members():
        assert rho.apply(x) == M2F2.zero


def test_orthogonal_projector_flag():
    p = M2F2.parse([[1, 0], [0, 0]])
    rho = projector_from_idempotent(p, RIGHT)
    assert rho.is_orthogonal()  # p symmetric
    n = M2F2.parse([[1, 1], [0, 0]])
    assert n * n == n
    rho = projector_from_idempotent(n, RIGHT)
    assert not rho.is_orthogonal()


def test_unit_determined_by_split():
    # every idempotent decomposition of 1 gives complementary projectors
    for p in M2F2.elements():
        if p * p != p:
            continue
        u = direct_sum(principal(p, RIGHT), annihilator(p, RIGHT))
        assert u is not None
        assert u == p
