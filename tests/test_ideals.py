"""One-sided ideals: principal, annihilators, lattice, direct sums."""

from fractions import Fraction

import pytest

from ringinv.errors import (BudgetError, PreconditionError,
                            UnsupportedInvolutionError)
from ringinv.ideals import (_MR_EXACT, LEFT, RIGHT, SidedIdeal, all_ideals,
                            annihilator, complement, direct_sum, divisors,
                            ideal_annihilator, multiply_ideal, orthogonal,
                            phi_preimage, principal)
from ringinv.linalg import Subspace
from ringinv.rings import MatF, MatQ, Zn, ring_from_name

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
    assert [i.divisor for i in all_ideals(Zn(12), RIGHT)] == \
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
        raise AssertionError("listed the vectors of a subspace")
    monkeypatch.setattr(Subspace, "vectors", refuse)
    assert principal(MatF(6, 7).one, RIGHT).size() == 7 ** 36
    assert principal(M2F2.parse([[1, 0], [0, 0]]), LEFT).size() == 4


def test_extensional_vs_subspace_equality():
    a = M2F2.parse([[0, 0], [0, 1]])
    via_subspace = principal(a, RIGHT)
    via_elements = SidedIdeal.from_elements(M2F2, RIGHT, [a])
    assert via_subspace == via_elements


# -- Z_n ideals as divisors, against sets built from the ring ------------

ZN_MODULI = (2, 6, 8, 12, 30, 36, 72, 97, 100)


def _set(ideal):
    return frozenset(x.payload for x in ideal.members())


def _brute_ideals(ring):
    """Every ideal of Z_n as a set of residues: the principal sets aZ_n."""
    n = ring.n
    return {frozenset(a * r % n for r in range(n)) for a in range(n)}


@pytest.mark.parametrize("n", ZN_MODULI)
def test_zn_principal_and_annihilators_match_brute_force(n):
    ring = Zn(n)
    for a in ring.elements():
        v = a.payload
        right = frozenset(v * r % n for r in range(n))
        killed = frozenset(r for r in range(n) if v * r % n == 0)
        for side in (RIGHT, LEFT):
            ideal = principal(a, side)
            assert _set(ideal) == right and ideal.size() == len(right)
            assert _set(annihilator(a, side)) == killed
            assert all(ideal.contains(ring.element(r)) == (r in right)
                       for r in range(n))
            assert ideal.is_zero() == (right == {0})
            assert ideal.is_full() == (len(right) == n)


@pytest.mark.parametrize("side", (RIGHT, LEFT))
@pytest.mark.parametrize("n", ZN_MODULI)
def test_zn_lattice_and_maps_match_brute_force(n, side):
    ring = Zn(n)
    ideals = all_ideals(ring, side)
    sets = [_set(i) for i in ideals]
    # every ideal once, smallest first
    assert set(sets) == _brute_ideals(ring)
    assert [len(s) for s in sets] == sorted(len(s) for s in sets)
    assert len(set(sets)) == len(sets)
    for i, si in zip(ideals, sets):
        assert SidedIdeal.from_elements(ring, side, i.members()) == i
        killer = frozenset(r for r in range(n)
                           if all(s * r % n == 0 for s in si))
        assert _set(ideal_annihilator(i, RIGHT)) == killer
        assert _set(ideal_annihilator(i, LEFT)) == killer
        for j, sj in zip(ideals, sets):
            assert _set(i.sum(j)) == frozenset((x + y) % n
                                               for x in si for y in sj)
            assert _set(i.intersect(j)) == si & sj
            assert i.is_subideal_of(j) == (si <= sj)
        for a in ring.elements():
            v = a.payload
            assert _set(multiply_ideal(a, i)) == frozenset(v * s % n
                                                           for s in si)
            assert _set(phi_preimage(a, i)) == frozenset(
                r for r in range(n) if v * r % n in si)


@pytest.mark.parametrize("side", (RIGHT, LEFT))
@pytest.mark.parametrize("n", ZN_MODULI)
def test_zn_direct_sums_and_complements_match_brute_force(n, side):
    ring = Zn(n)
    ideals = all_ideals(ring, side)
    for s in ideals:
        ss = _set(s)
        partners = []
        for t in ideals:
            st = _set(t)
            splits = (ss & st == {0}
                      and {(x + y) % n for x in ss for y in st}
                      == set(range(n)))
            u = direct_sum(s, t)
            assert (u is not None) == splits
            if u is None:
                continue
            partners.append(t)
            assert u * u == u
            for r in ring.elements():
                x = u * r if side == RIGHT else r * u
                y = r - x
                assert x + y == r and x.payload in ss and y.payload in st
        c = complement(s)
        assert (c is None) == (not partners)
        assert c is None or c in partners


def test_zn_generated_ideal_is_the_gcd():
    ring = Zn(36)
    for g1, g2 in ((4, 6), (9, 12), (0, 0), (8, 27), (18, 24)):
        span = frozenset((g1 * r + g2 * s) % 36
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
    ideal = SidedIdeal.from_subspace(ring, side, Subspace.from_vectors(
        ring.field, 3, [tuple(map(Fraction, v)) for v in vectors]))
    assert principal(ideal.generator(), side) == ideal
