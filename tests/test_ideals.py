"""One-sided ideals: principal, annihilators, lattice, direct sums."""

from fractions import Fraction

import pytest

from ringinv.errors import (BudgetError, PreconditionError,
                            RingMismatchError, UnsupportedInvolutionError)
from ringinv.ideals import (LEFT, RIGHT, SidedIdeal, all_ideals, annihilator,
                            complement, direct_sum, ideal_annihilator,
                            multiply_ideal, orthogonal, phi_preimage,
                            principal)
from ringinv.linalg import Subspace
from ringinv.rings import (_MR_EXACT, MatF, MatQ, MatrixRing, Zn, divisors,
                           ring_from_name)

Z6 = Zn(6)
M2F2 = MatF(2, 2)


def z6(v):
    return Z6.parse(v)


def test_principal_ideal_z6():
    assert {a.payload for a in principal(z6(2), RIGHT).members()} == {0, 2, 4}
    assert {a.payload for a in principal(z6(3), RIGHT).members()} == {0, 3}
    assert principal(z6(5), RIGHT).is_full()
    assert principal(z6(0), LEFT).is_zero()


def test_annihilator_z6():
    assert {a.payload for a in annihilator(z6(2), RIGHT).members()} == {0, 3}
    assert {a.payload for a in annihilator(z6(3), LEFT).members()} == {0, 2, 4}
    assert annihilator(z6(5), RIGHT).is_zero()
    assert annihilator(z6(0), RIGHT).is_full()


def test_matrix_principal_ideals():
    a = M2F2.parse([[0, 0], [0, 1]])
    ar = principal(a, RIGHT)
    # aR = matrices whose columns lie in the column space of a
    assert ar.contains(M2F2.parse([[0, 0], [1, 1]]))
    assert not ar.contains(M2F2.parse([[1, 0], [0, 0]]))
    assert ar.size() == 4
    ra = principal(a, LEFT)
    assert ra.contains(M2F2.parse([[0, 1], [0, 1]]))
    assert not ra.contains(M2F2.parse([[1, 0], [0, 0]]))


def test_matrix_annihilators():
    a = M2F2.parse([[0, 0], [0, 1]])
    # rann(a) = {r : ar = 0} = matrices with zero second row
    rann = annihilator(a, RIGHT)
    assert rann.contains(M2F2.parse([[1, 1], [0, 0]]))
    assert not rann.contains(M2F2.parse([[0, 0], [0, 1]]))
    lann = annihilator(a, LEFT)
    assert lann.contains(M2F2.parse([[1, 0], [1, 0]]))
    assert not lann.contains(M2F2.parse([[0, 1], [0, 0]]))


def test_from_elements_is_ideal_closure():
    gen = z6(4)
    ideal = SidedIdeal.from_elements(Z6, RIGHT, [gen])
    assert ideal == principal(gen, RIGHT)
    both = SidedIdeal.from_elements(Z6, RIGHT, [z6(2), z6(3)])
    assert both.is_full()


def test_ideal_lattice_operations():
    i2, i3 = principal(z6(2), RIGHT), principal(z6(3), RIGHT)
    assert i2.intersect(i3).is_zero()
    assert i2.sum(i3).is_full()
    assert i3.is_subideal_of(principal(Z6.one, RIGHT))
    assert principal(Z6.zero, RIGHT).is_subideal_of(i3)
    with pytest.raises(PreconditionError):
        i2.is_subideal_of(principal(z6(2), LEFT))


def test_direct_sum_witness():
    i2, i3 = principal(z6(2), RIGHT), principal(z6(3), RIGHT)
    u = direct_sum(i2, i3)
    assert u is not None
    r = z6(5)
    s, t = u * r, r - u * r
    assert s + t == r and i2.contains(s) and i3.contains(t)
    assert u * u == u
    assert direct_sum(i2, i2) is None


def test_direct_sum_matrix_ring():
    a = M2F2.parse([[0, 0], [0, 1]])
    s, t = principal(a, RIGHT), annihilator(a, RIGHT)
    u = direct_sum(s, t)
    assert u is not None
    assert u * u == u and s.contains(u)
    r = M2F2.parse([[1, 1], [1, 0]])
    x, y = u * r, r - u * r
    assert x + y == r and s.contains(x) and t.contains(y)
    sl, tl = principal(a, LEFT), annihilator(a, LEFT)
    ul = direct_sum(sl, tl)
    assert ul * ul == ul and sl.contains(ul)
    x, y = r * ul, r - r * ul
    assert x + y == r and sl.contains(x) and tl.contains(y)


def test_complement_exists():
    i2 = principal(z6(2), RIGHT)
    c = complement(i2)
    assert c is not None and direct_sum(i2, c) is not None
    line = principal(M2F2.parse([[1, 0], [0, 0]]), RIGHT)
    c = complement(line)
    assert direct_sum(line, c) is not None


def test_multiply_and_preimage():
    a = z6(2)
    s = principal(Z6.one, RIGHT)
    assert multiply_ideal(a, s) == principal(a, RIGHT)
    assert phi_preimage(a, principal(Z6.zero, RIGHT)) == \
        annihilator(a, RIGHT)
    b = M2F2.parse([[0, 1], [0, 0]])
    assert multiply_ideal(b, principal(M2F2.one, RIGHT)) == \
        principal(b, RIGHT)
    assert phi_preimage(b, principal(M2F2.zero, RIGHT)) == \
        annihilator(b, RIGHT)


def test_ideal_annihilator_duality():
    a = M2F2.parse([[0, 0], [0, 1]])
    assert ideal_annihilator(principal(a, LEFT), RIGHT) == \
        annihilator(a, RIGHT)
    assert ideal_annihilator(principal(a, RIGHT), LEFT) == \
        annihilator(a, LEFT)


def test_orthogonality():
    p = M2F2.parse([[1, 0], [0, 0]])
    q = M2F2.parse([[0, 0], [0, 1]])
    assert orthogonal(principal(p, RIGHT), principal(q, RIGHT), RIGHT)
    assert not orthogonal(principal(p, RIGHT), principal(p, RIGHT), RIGHT) \
        or p == M2F2.zero
    with pytest.raises(UnsupportedInvolutionError):
        orthogonal(principal(z6(2), RIGHT), principal(z6(3), RIGHT), RIGHT)


def test_orthogonality_takes_ideals_of_equal_rings():
    # orthogonal takes the ring rule of ==, <=, + and cap: two equal ring
    # objects are one ring, and unequal rings are refused
    one, other = MatF(2, 2), MatF(2, 2)
    e11 = principal(one.parse([[1, 0], [0, 0]]), RIGHT)
    e22 = principal(other.parse([[0, 0], [0, 1]]), RIGHT)
    assert not e11.is_subideal_of(e22)
    assert orthogonal(e11, e22, RIGHT) and orthogonal(e22, e11, RIGHT)
    assert not orthogonal(e11, principal(other.one, RIGHT), RIGHT)
    assert orthogonal(e11, principal(other.parse([[0, 1], [0, 0]]), LEFT),
                      RIGHT) is False
    e33 = principal(MatF(2, 3).parse([[0, 0], [0, 1]]), RIGHT)
    for i, j in ((e11, e33), (e33, e11)):
        with pytest.raises(RingMismatchError):
            orthogonal(i, j, RIGHT)


def test_all_ideals_counts():
    # Z6 has one right ideal per divisor of 6
    assert len(all_ideals(Z6, RIGHT)) == 4
    assert len(all_ideals(Zn(8), RIGHT)) == 4
    # M2(F2): zero, three lines, full -> five ideals per side
    assert len(all_ideals(M2F2, RIGHT)) == 5
    assert len(all_ideals(M2F2, LEFT)) == 5
    # canonical order is deterministic
    first = [repr(i) for i in all_ideals(M2F2, RIGHT)]
    second = [repr(i) for i in all_ideals(M2F2, RIGHT)]
    assert first == second


def test_divisors_match_trial_division():
    for n in range(1, 2000):
        assert sorted(divisors(n)) == [d for d in range(1, n + 1)
                                       if n % d == 0]


@pytest.mark.parametrize("n, count", [
    # 2^3 3^2 13 1000003 1000000007
    (936002814552019656, 96),
    # two 13-digit primes: the worst case for rho below the bound
    (1800000000047 * 1820000000011, 4),
    (1000000007 ** 2, 3),
    (2 ** 100, 101),
    # above the bound, but every cofactor left is below it
    (3 ** 60 * 1000000007, 122),
    (_MR_EXACT - 2, 16),
])
def test_divisors_of_large_moduli(n, count):
    found = divisors(n)
    assert len(found) == len(set(found)) == count
    assert all(n % d == 0 for d in found)


@pytest.mark.parametrize("n", [_MR_EXACT, 10 ** 40 + 1, 43 * (10 ** 30 + 57)])
def test_divisors_refuse_a_cofactor_past_the_exact_bound(n):
    with pytest.raises(BudgetError):
        divisors(n)


def test_zn_lattice_lists_the_largest_divisor_first():
    assert [i.rep for i in all_ideals(Zn(12), RIGHT)] == \
        [12, 6, 4, 3, 2, 1]


def test_members_canonical_order():
    i = principal(z6(2), RIGHT)
    assert [a.payload for a in i.members()] == [0, 2, 4]
    j = principal(M2F2.parse([[1, 0], [0, 0]]), RIGHT)
    ms = j.members()
    assert len(ms) == j.size()
    keys = [M2F2.sort_key(m) for m in ms]
    assert keys == sorted(keys)


def test_size_counts_without_listing(monkeypatch):
    def refuse(self):
        raise AssertionError("listed the members of an ideal")
    monkeypatch.setattr(SidedIdeal, "members", refuse)
    monkeypatch.setattr(MatrixRing, "elements", refuse)
    assert principal(MatF(6, 7).one, RIGHT).size() == 7 ** 36
    assert principal(M2F2.parse([[1, 0], [0, 0]]), LEFT).size() == 4


def test_extensional_vs_subspace_equality():
    a = M2F2.parse([[0, 0], [0, 1]])
    via_subspace = principal(a, RIGHT)
    via_elements = SidedIdeal.from_elements(M2F2, RIGHT, [a])
    assert via_subspace == via_elements


# -- the ideal lattice against sets built from the ring --------------------
#
# The three brute-force tests below are written in ring operations only, so
# they hold for any backend: the Z_n moduli and two matrix rings.

ZN_MODULI = (2, 6, 8, 12, 30, 36, 72, 97, 100)
LATTICE_RINGS = ZN_MODULI + ("m2f2", "m2f3")


def _ring(name):
    return Zn(name) if isinstance(name, int) else ring_from_name(name)


def _act(a, r, side):
    """a r (side='right') or r a (side='left')."""
    return a * r if side == RIGHT else r * a


def _set(ideal):
    return frozenset(ideal.members())


def _brute_ideals(ring, side):
    """Every one-sided ideal as a set: on Z_n and M_k(F) every one-sided
    ideal is principal, so these are the aR (or Ra)."""
    elements = ring.elements()
    return {frozenset(_act(a, r, side) for r in elements) for a in elements}


@pytest.mark.parametrize("n", LATTICE_RINGS)
def test_zn_principal_and_annihilators_match_brute_force(n):
    ring = _ring(n)
    elements = ring.elements()
    for a in elements:
        for side in (RIGHT, LEFT):
            span = frozenset(_act(a, r, side) for r in elements)
            killed = frozenset(r for r in elements
                               if _act(a, r, side) == ring.zero)
            ideal = principal(a, side)
            assert _set(ideal) == span and ideal.size() == len(span)
            assert _set(annihilator(a, side)) == killed
            assert all(ideal.contains(r) == (r in span) for r in elements)
            assert ideal.is_zero() == (span == {ring.zero})
            assert ideal.is_full() == (len(span) == len(elements))
            # a x = u (x a = u) has a solution iff u lies in aR (Ra)
            for u in elements:
                x = ring.solve(a, u, side)
                assert (x is not None) == (u in span)
                assert x is None or _act(a, x, side) == u


@pytest.mark.parametrize("side", (RIGHT, LEFT))
@pytest.mark.parametrize("n", LATTICE_RINGS)
def test_zn_lattice_and_maps_match_brute_force(n, side):
    ring = _ring(n)
    elements = ring.elements()
    ideals = all_ideals(ring, side)
    sets = [_set(i) for i in ideals]
    # every ideal once, smallest first
    assert set(sets) == _brute_ideals(ring, side)
    assert [len(s) for s in sets] == sorted(len(s) for s in sets)
    assert len(set(sets)) == len(sets)
    for i, si in zip(ideals, sets):
        assert SidedIdeal.from_elements(ring, side, i.members()) == i
        # rann(S) = {r : sr = 0 for all s}, lann(S) = {r : rs = 0}, on
        # both sides of S
        for ann_side in (RIGHT, LEFT):
            killer = frozenset(r for r in elements if all(
                _act(s, r, ann_side) == ring.zero for s in si))
            assert _set(ideal_annihilator(i, ann_side)) == killer
        for j, sj in zip(ideals, sets):
            assert _set(i.sum(j)) == frozenset(x + y for x in si for y in sj)
            assert _set(i.intersect(j)) == si & sj
            assert i.is_subideal_of(j) == (si <= sj)
            if ring.has_involution:
                assert orthogonal(i, j, RIGHT) == all(
                    x.star * y == ring.zero for x in si for y in sj)
                assert orthogonal(i, j, LEFT) == all(
                    x * y.star == ring.zero for x in si for y in sj)
        for a in elements:
            assert _set(multiply_ideal(a, i)) == frozenset(
                _act(a, s, side) for s in si)
            assert _set(phi_preimage(a, i)) == frozenset(
                r for r in elements if _act(a, r, side) in si)


@pytest.mark.parametrize("side", (RIGHT, LEFT))
@pytest.mark.parametrize("n", LATTICE_RINGS)
def test_zn_direct_sums_and_complements_match_brute_force(n, side):
    ring = _ring(n)
    elements = ring.elements()
    ideals = all_ideals(ring, side)
    for s in ideals:
        ss = _set(s)
        partners = []
        for t in ideals:
            st = _set(t)
            splits = (ss & st == {ring.zero}
                      and {x + y for x in ss for y in st} == set(elements))
            u = direct_sum(s, t)
            assert (u is not None) == splits
            if u is None:
                continue
            partners.append(t)
            assert u * u == u
            for r in elements:
                x = _act(u, r, side)
                y = r - x
                assert x + y == r and x in ss and y in st
        c = complement(s)
        assert (c is None) == (not partners)
        assert c is None or c in partners


def test_zn_generated_ideal_is_the_gcd():
    ring = Zn(36)
    for g1, g2 in ((4, 6), (9, 12), (0, 0), (8, 27), (18, 24)):
        span = frozenset(ring.element(g1 * r + g2 * s)
                         for r in range(36) for s in range(36))
        gens = [ring.element(g1), ring.element(g2)]
        assert _set(SidedIdeal.from_elements(ring, RIGHT, gens)) == span


@pytest.mark.parametrize("side", (RIGHT, LEFT))
@pytest.mark.parametrize("name", ("zn:12", "m2f2", "m2f3"))
def test_generator_generates_every_finite_ideal(name, side):
    ring = ring_from_name(name)
    for ideal in all_ideals(ring, side):
        assert principal(ideal.generator(), side) == ideal


@pytest.mark.parametrize("side", (RIGHT, LEFT))
@pytest.mark.parametrize("vectors", [
    (), ((1, 2, 3),), ((1, 0, -1), (2, 1, 0)), ((0, 0, 1), (0, 0, 2)),
    ((Fraction(1, 2), 1, 0), (0, Fraction(-3, 4), 5), (1, 1, 1)),
])
def test_generator_generates_q_span_ideals(vectors, side):
    ring = MatQ(3)
    ideal = SidedIdeal(ring, side, Subspace.from_vectors(
        ring.field, 3, [tuple(map(Fraction, v)) for v in vectors]))
    assert principal(ideal.generator(), side) == ideal
