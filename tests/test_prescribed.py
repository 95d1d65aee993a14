"""Inverses with prescribed principal/annihilator ideals."""

import hashlib
import json

import pytest

from ringinv.errors import PreconditionError
from ringinv.geninv import any_inner, drazin_inverse, satisfies
from ringinv.ideals import (LEFT, RIGHT, SidedIdeal, all_ideals, annihilator,
                            principal)
from ringinv.linalg import PrimeField, Subspace
from ringinv.oracle import _ideal_quadruples
from ringinv.prescribed import (IdealConstraints, mitsch_leq,
                                one_inverse_family, one_inverse_solution_set,
                                outer_with)
from ringinv.rings import (MatF, MatQ, MatrixRing, ModularRing, Zn,
                           ring_from_name)

M2F5 = MatF(2, 5)
M2F2 = MatF(2, 2)
Z6 = Zn(6)

# the standard matrix units over F5
E11 = M2F5.parse([[1, 0], [0, 0]])
E12 = M2F5.parse([[0, 1], [0, 0]])
E21 = M2F5.parse([[0, 0], [1, 0]])
E22 = M2F5.parse([[0, 0], [0, 1]])


def f5_ideal(side, vectors):
    sp = Subspace.from_vectors(PrimeField(5), 2, vectors)
    return SidedIdeal(M2F5, side, sp)


# complements of A F^{2x2} and F^{2x2} A for A = E12
S = f5_ideal(RIGHT, [(0, 1)])    # matrices with zero first row
SP = f5_ideal(LEFT, [(1, 0)])    # matrices with zero second column
T, TP = S, SP


def test_constraints_validate_sides():
    with pytest.raises(PreconditionError):
        IdealConstraints(right_principal=SP)
    with pytest.raises(PreconditionError):
        IdealConstraints()


def test_prescribed_outer_inverses_all_equal_e21():
    for cons in (IdealConstraints(right_principal=S, right_annihilator=T),
                 IdealConstraints(left_principal=SP, left_annihilator=TP),
                 IdealConstraints(right_principal=S, left_principal=SP),
                 IdealConstraints(right_annihilator=T, left_annihilator=TP)):
        rep = outer_with(E12, cons)
        assert rep.exists and rep.value == E21
        rep = outer_with(E12, cons, reflexive=True)
        assert rep.exists and rep.value == E21


@pytest.mark.parametrize("ring", [MatQ(2), MatF(2, 3)])
def test_left_prescribed_outer_needs_no_involution(monkeypatch, ring):
    # the (S', T') answer is built from the left ideals themselves, so it
    # does not depend on * being the transpose
    a = ring.parse([[1, 2], [0, 0]])
    gens = [ring.parse(m) for m in ([[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                     [[1, 1], [0, 0]], [[0, 0], [2, 1]],
                                     [[1, 0], [0, 1]], [[0, 0], [0, 0]])]
    bundles = [IdealConstraints(left_principal=principal(g, LEFT),
                                left_annihilator=annihilator(h, LEFT))
               for g in gens for h in gens]
    want = [outer_with(a, cons).to_json() for cons in bundles]
    assert any(doc["exists"] for doc in want)
    assert any(not doc["exists"] for doc in want)

    def refuse(self, x):
        raise AssertionError("used the involution")
    monkeypatch.setattr(MatrixRing, "involute", refuse)
    assert [outer_with(a, cons).to_json() for cons in bundles] == want


def test_prescribed_outer_none_when_split_fails():
    # T = rann(A) makes R = aR + T fail for A = E12 (aR = rann(A))
    bad = IdealConstraints(right_principal=S,
                           right_annihilator=annihilator(E12, RIGHT))
    rep = outer_with(E12, bad)
    assert not rep.exists and rep.reason


def brute_one_set(a, cons):
    ring = a.ring
    out = []
    for x in ring.elements():
        if not satisfies(a, x, ("1",)):
            continue
        ok = True
        if cons.right_principal is not None:
            ok = ok and principal(x * a, RIGHT) == cons.right_principal
        if cons.right_annihilator is not None:
            ok = ok and annihilator(a * x, RIGHT) == cons.right_annihilator
        if cons.left_principal is not None:
            ok = ok and principal(a * x, LEFT) == cons.left_principal
        if cons.left_annihilator is not None:
            ok = ok and annihilator(x * a, LEFT) == cons.left_annihilator
        if ok:
            out.append(x)
    return out


def all_constraint_bundles(a, two_sided=True, one_sided=True):
    xa_r = principal(a, RIGHT)     # placeholder, rebuilt per x below
    del xa_r
    ring = a.ring
    bundles = []
    seen = set()
    for x in ring.elements():
        if not satisfies(a, x, ("1",)):
            continue
        s = principal(x * a, RIGHT)
        t = annihilator(a * x, RIGHT)
        sp = principal(a * x, LEFT)
        tp = annihilator(x * a, LEFT)
        shapes = []
        if two_sided:
            shapes += [dict(right_principal=s, right_annihilator=t),
                       dict(left_principal=sp, left_annihilator=tp),
                       dict(right_principal=s, left_principal=sp),
                       dict(right_annihilator=t, left_annihilator=tp)]
        if one_sided:
            shapes += [dict(right_principal=s),
                       dict(right_annihilator=t),
                       dict(left_principal=sp),
                       dict(left_annihilator=tp)]
        for kw in shapes:
            key = tuple(sorted((k, v) for k, v in kw.items()))
            if key not in seen:
                seen.add(key)
                bundles.append(IdealConstraints(**kw))
    return bundles


@pytest.mark.parametrize("ring,a_raw", [
    (M2F2, [[0, 0], [0, 1]]),
    (M2F2, [[1, 1], [0, 0]]),
    (Z6, 2),
    (Z6, 4),
])
def test_one_inverse_family_matches_brute_force(ring, a_raw):
    a = ring.parse(a_raw)
    for cons in all_constraint_bundles(a):
        fam = one_inverse_family(a, cons)
        want = brute_one_set(a, cons)
        if fam is None:
            assert want == []
        else:
            assert fam.members() == want


@pytest.mark.parametrize("name, stride", [("zn:12", 1), ("zn:8", 1),
                                          ("m2f2", 1), ("m2f3", 4)])
def test_family_members_are_base_plus_every_perturbation(name, stride):
    # the listed coset against base + L y R over every y of the ring, for
    # every (or every stride-th) subject
    ring = ring_from_name(name)
    elements = ring.elements()
    for a in elements[::stride]:
        if any_inner(a) is None:
            continue
        for cons in all_constraint_bundles(a):
            fam = one_inverse_family(a, cons)
            want = sorted({fam.element(y) for y in elements},
                          key=ring.sort_key)
            assert fam.members() == want, (a, cons.shape())


def test_one_inverse_family_none_for_irregular():
    a = Zn(8).parse(2)  # 2x2 is 0 or 4 mod 8, never 2: a{1} is empty
    cons = IdealConstraints(right_principal=principal(a, RIGHT))
    assert one_inverse_family(a, cons) is None
    assert brute_one_set(a, cons) == []


def test_solution_set_through_fixed_inner():
    a = M2F2.parse([[0, 0], [0, 1]])
    g = a  # idempotent, its own inner inverse
    cons = IdealConstraints(right_principal=principal(g * a, RIGHT))
    got = one_inverse_solution_set(a, cons, g)
    assert got == brute_one_set(a, cons)
    with pytest.raises(PreconditionError):
        one_inverse_solution_set(a, cons, M2F2.zero)


def test_f5_single_constraint_families():
    # {aE22 + E21 + bE12} = {X in A{1} : XA R = S} = {X : lann(XA) = T'}
    want = sorted({(E22 * M2F5.parse([[i, 0], [0, i]])) + E21 +
                   (E12 * M2F5.parse([[j, 0], [0, j]]))
                   for i in range(5) for j in range(5)},
                  key=M2F5.sort_key)
    for cons in (IdealConstraints(right_principal=S),
                 IdealConstraints(left_annihilator=TP)):
        fam = one_inverse_family(E12, cons)
        assert fam.members() == want
    # {aE12 + E21 + bE11} = {X : rann(AX) = T} = {X : R AX = S'}
    want = sorted({(E12 * M2F5.parse([[i, 0], [0, i]])) + E21 +
                   (E11 * M2F5.parse([[j, 0], [0, j]]))
                   for i in range(5) for j in range(5)},
                  key=M2F5.sort_key)
    for cons in (IdealConstraints(right_annihilator=T),
                 IdealConstraints(left_principal=SP)):
        fam = one_inverse_family(E12, cons)
        assert fam.members() == want


def test_f5_two_constraint_family():
    # {aE12 + E21} for every two-constraint bundle
    want = sorted({(E12 * M2F5.parse([[i, 0], [0, i]])) + E21
                   for i in range(5)}, key=M2F5.sort_key)
    for cons in (IdealConstraints(right_principal=S, right_annihilator=T),
                 IdealConstraints(left_principal=SP, left_annihilator=TP),
                 IdealConstraints(right_annihilator=T, left_annihilator=TP),
                 IdealConstraints(right_principal=S, left_principal=SP)):
        fam = one_inverse_family(E12, cons)
        assert fam.members() == want


def test_mitsch_order_is_a_partial_order_on_z6():
    elems = Z6.elements()
    for y in elems:
        assert mitsch_leq(y, y)
        assert mitsch_leq(Z6.zero, y)
    for y in elems:
        for z in elems:
            if mitsch_leq(y, z) and mitsch_leq(z, y):
                assert y == z


def test_mitsch_leq_infinite_matrix_path():
    ring = MatQ(2)
    a = ring.parse([[1, 0], [0, 0]])
    assert mitsch_leq(a, ring.one)
    assert not mitsch_leq(ring.one, a)


def _mitsch_by_definition(ring):
    """{(y, z) : some v, w give vz = vy = y = yw = zw}, scanning v and w
    over a product table of the ring."""
    elems = ring.elements()
    idx = {x: i for i, x in enumerate(elems)}
    prod = [[idx[x * y] for y in elems] for x in elems]
    pairs = set()
    for y in range(len(elems)):
        vs = [v for v in range(len(elems)) if prod[v][y] == y]
        ws = [w for w in range(len(elems)) if prod[y][w] == y]
        for z in range(len(elems)):
            if any(prod[v][z] == y for v in vs) and \
                    any(prod[z][w] == y for w in ws):
                pairs.add((elems[y], elems[z]))
    return pairs


@pytest.mark.parametrize("name", ["zn:2", "zn:6", "zn:8", "zn:12", "zn:30",
                                  "zn:36", "zn:72", "zn:97", "zn:100",
                                  "m2f2", "m2f3"])
def test_mitsch_leq_matches_the_definition(name):
    ring = ring_from_name(name)
    elems = ring.elements()
    got = {(y, z) for y in elems for z in elems if mitsch_leq(y, z)}
    assert got == _mitsch_by_definition(ring)


# 2^3 * 3^2 * 13 * 1000003 * 1000000007: 18 digits, repeated prime factors.
BIG_N = 936002814552019656


def test_mitsch_leq_needs_no_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("scanned the elements of %s" % self.short_name)
    monkeypatch.setattr(ModularRing, "elements", refuse)
    monkeypatch.setattr(MatrixRing, "elements", refuse)
    m3f3, big = MatF(3, 3), Zn(BIG_N)
    nil = m3f3.parse([[0, 1, 2], [0, 0, 1], [0, 0, 0]])
    d = 13 * 1000003  # the CRT idempotent 0 mod d, 1 mod BIG_N / d
    for e, r in ((m3f3.parse([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                  nil + m3f3.one),
                 (big.element(d * pow(d, -1, BIG_N // d)), big.element(6))):
        one = e.ring.one
        assert e * e == e and e != one
        assert mitsch_leq(e, one) and not mitsch_leq(one, e)
        # z = e + (1 - e) r (1 - e) lies above e, with v = w = e
        z = e + (one - e) * r * (one - e)
        assert z != e and mitsch_leq(e, z)
    assert mitsch_leq(nil, nil) and not mitsch_leq(nil, nil * nil)
    # v * 6 = 6 and v * 7 = 6 force v = 0
    assert not mitsch_leq(big.element(6), big.element(7))


def test_large_modulus_prescribed_inverses_need_no_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("scanned the elements of %s" % self.short_name)
    monkeypatch.setattr(ModularRing, "elements", refuse)
    ring = Zn(BIG_N)
    for value in (0, 5, 6, 13 * 1000003, 12 * 1000000007, BIG_N - 1):
        a = ring.element(value)
        x = drazin_inverse(a).value  # an outer inverse of every a
        regular = any_inner(a) is not None
        s, t = principal(x, RIGHT), annihilator(x, RIGHT)
        sp, tp = principal(x, LEFT), annihilator(x, LEFT)
        for kw in (dict(right_principal=s, right_annihilator=t),
                   dict(left_principal=sp, left_annihilator=tp),
                   dict(right_principal=s, left_principal=sp),
                   dict(right_annihilator=t, left_annihilator=tp)):
            cons = IdealConstraints(**kw)
            rep = outer_with(a, cons)
            assert rep.exists and rep.value == x
            rep = outer_with(a, cons, reflexive=True)
            assert rep.exists == regular
            assert not regular or rep.value == x
        if regular:
            g = any_inner(a)
            for kw in (dict(right_principal=principal(g * a, RIGHT)),
                       dict(right_annihilator=annihilator(a * g, RIGHT)),
                       dict(left_principal=principal(a * g, LEFT)),
                       dict(left_annihilator=annihilator(g * a, LEFT))):
                fam = one_inverse_family(a, IdealConstraints(**kw))
                assert satisfies(a, fam.base, ("1",))
    # rann(x) = lann(x) = 0 makes x a unit, and xax = x then makes a one
    rep = outer_with(ring.element(6), IdealConstraints(
        right_annihilator=principal(ring.zero, RIGHT),
        left_annihilator=principal(ring.zero, LEFT)))
    assert not rep.exists
    assert rep.reason == "no element satisfies the annihilator conditions"


def test_large_modulus_family_members_need_no_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("scanned the elements of %s" % self.short_name)
    monkeypatch.setattr(ModularRing, "elements", refuse)
    ring = Zn(BIG_N)
    a = ring.element(13)   # 13 divides BIG_N once, so a is regular
    g = any_inner(a)
    s, t = principal(g * a, RIGHT), annihilator(a * g, RIGHT)
    for kw in (dict(right_principal=s), dict(right_annihilator=t),
               dict(right_principal=s, right_annihilator=t)):
        members = one_inverse_family(a, IdealConstraints(**kw)).members()
        assert len(members) == 13
        assert members == sorted(members, key=ring.sort_key)
        for x in members:
            assert satisfies(a, x, ("1",))
            assert principal(x * a, RIGHT) == s
            assert annihilator(a * x, RIGHT) == t


# -- golden digest of every prescribed report ------------------------------

# the keywords of IdealConstraints, spelled out here so that the sweep does
# not depend on the table it checks
_SLOT_NAMES = ("right_principal", "right_annihilator", "left_principal",
               "left_annihilator")


def _prescribed_report_lines(ring):
    """One JSON line for the outer and reflexive report and the {1}-family
    (base and multipliers) of every element and every two-ideal bundle
    over the ideal lattices, then for the family of every single-slot
    bundle, in canonical order."""
    to_json = ring.to_json
    bundles = _ideal_quadruples(ring)
    singles = [IdealConstraints(**{name: ideal})
               for name in _SLOT_NAMES
               for ideal in all_ideals(ring, RIGHT if name.startswith("r")
                                       else LEFT)]

    def family(a, cons):
        fam = one_inverse_family(a, cons)
        return None if fam is None else [
            to_json(fam.base), to_json(fam.left_mult),
            to_json(fam.right_mult)]

    for a in ring.elements():
        for cons in bundles:
            yield json.dumps([outer_with(a, cons).to_json(),
                              outer_with(a, cons, reflexive=True).to_json(),
                              family(a, cons)], sort_keys=True)
        for cons in singles:
            yield json.dumps(family(a, cons), sort_keys=True)


# sha256 of the lines above, recorded before prescribed.py read its slot
# table; a change of any answer, reason text or split order changes them
_GOLDEN = {
    "zn:12":
        "dc4d08e7fed1af0e7f8be9a9c011d20e256c615ea6210e3b0de6a38b86b959a0",
    "m2f2":
        "df4d2fdd97609fed43fc68dfb51fb6667daf715accc1bf85daa0372e74a068ab",
    "m2f3":
        "325718749a6150dc3aa85e7ca0db381c9851f4db7d1e4470ea8220576a8e53d1",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_prescribed_reports_match_the_golden_digest(name):
    digest = hashlib.sha256()
    for line in _prescribed_report_lines(ring_from_name(name)):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == _GOLDEN[name]
