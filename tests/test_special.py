"""Weighted, one-sided, (b,c) and (p,q) inverse families."""

import pytest

from ringinv import cli, ideals, oracle, prescribed, special
from ringinv.errors import PreconditionError, VerificationError
from ringinv.geninv import (InverseReport, core_inverse, dual_core_inverse,
                            group_inverse, moore_penrose, satisfies)
from ringinv.oracle import star_class_identity_report, star_class_membership
from ringinv.special import (BC_FLAVORS, PQ_FLAVORS, bc_inverse,
                             bott_duffin_inverse, djordjevic_wei_inverse,
                             e_core, f_dual_core, image_kernel_inverse,
                             left_v_dual_core, pq_inverse, right_w_core,
                             star_class_set, v_dual_core, w_core,
                             weighted_mp)
from ringinv.rings import MatF, MatQ, MatrixRing, Zn

M2Q = MatQ(2)
M2F2 = MatF(2, 2)
A = M2Q.parse([[2, -2], [0, 0]])
I2 = M2Q.one


def test_star_class_membership_golden():
    # over Q: a{1,3} contains the Moore-Penrose inverse
    mp = moore_penrose(A).value
    member, clauses = star_class_membership(A, mp, "13")
    assert member and all(clauses.values())
    member, _ = star_class_membership(A, M2Q.zero, "13")
    assert not member
    # core inverse realizes {1,3,6} and {1,3,7}
    core = core_inverse(A).value
    assert star_class_membership(A, core, "137")[0]
    assert star_class_membership(A, core, "136")[0]
    dual = dual_core_inverse(A).value
    assert star_class_membership(A, dual, "149")[0]
    assert star_class_membership(A, dual, "148")[0]


def test_star_class_sets_on_m2f2():
    a = M2F2.parse([[1, 1], [0, 0]])
    sizes = {tag: len(star_class_set(a, tag))
             for tag in ("13", "14", "134", "136", "148", "137", "149")}
    # a has no {1,4}-inverse over F2, hence no MP inverse either
    assert sizes["14"] == 0 and sizes["134"] == 0
    assert sizes["13"] > 0 and sizes["137"] == 1


def test_star_class_identity_reports():
    ctx = oracle._Context(M2F2)
    for a in (M2F2.parse([[1, 1], [0, 0]]), M2F2.parse([[0, 0], [0, 1]])):
        for tag in ("13", "14", "134", "136", "148", "137", "149"):
            report = star_class_identity_report(a, tag, ctx)
            if report["sufficient_only"]:
                assert all(x in report["members"]
                           for x in report["described"])
            else:
                assert report["equal"]


def test_weighted_mp_reduces_to_mp():
    rep = weighted_mp(A, I2, I2)
    assert rep.exists and rep.value == moore_penrose(A).value


def test_weighted_mp_requires_valid_weights():
    bad = M2Q.parse([[0, 1], [0, 0]])  # not invertible, not symmetric
    with pytest.raises(PreconditionError):
        weighted_mp(A, bad, I2)
    with pytest.raises(PreconditionError):
        weighted_mp(A, I2, M2Q.parse([[1, 1], [0, 1]]))  # not symmetric


def test_weighted_mp_nontrivial_weights():
    e = M2Q.parse([[2, 0], [0, 1]])
    f = M2Q.parse([[1, 0], [0, 3]])
    rep = weighted_mp(A, e, f)
    assert rep.exists
    x = rep.value
    assert A * x * A == A and x * A * x == x
    assert (e * A * x).star == e * A * x
    assert (f * x * A).star == f * x * A
    # the grid holds at x, the inverse, and at 0, which is not
    grids = oracle._weighted_mp_grids(A, e, f)
    oracle._require_grids(grids, x)
    oracle._require_grids(grids, M2Q.zero)
    ideals = special.weighted_mp_ideals(A, e, f)
    with pytest.raises(VerificationError):
        oracle._bundle_grid(A, x, ideals, False)
    with pytest.raises(VerificationError):
        oracle._bundle_grid(A, M2Q.zero, ideals, True)


def test_e_core_and_f_dual_core_reduce_to_core():
    assert e_core(A, I2).value == core_inverse(A).value
    assert f_dual_core(A, I2).value == dual_core_inverse(A).value
    grids = oracle._e_core_grids(A, I2)
    oracle._require_grids(grids, core_inverse(A).value)
    with pytest.raises(VerificationError):
        oracle._bundle_grid(A, core_inverse(A).value, grids[0][1], False)


def test_w_core_and_v_dual_core_reduce_to_core():
    assert w_core(A, I2).value == core_inverse(A).value
    assert v_dual_core(A, I2).value == dual_core_inverse(A).value
    grids = oracle._w_core_grids(A, I2)
    oracle._require_grids(grids, core_inverse(A).value)
    b, bundle, _, extra = grids[0]
    with pytest.raises(VerificationError):
        oracle._bundle_grid(b, core_inverse(A).value, bundle, False, *extra)


def test_w_core_nontrivial_weight_defining_equations():
    w = M2Q.parse([[1, 1], [0, 1]])
    rep = w_core(A, w)
    if rep.exists:
        x, b = rep.value, A * w
        assert (b * x).star == b * x
        assert x * b * A == A
        assert b * x * x == x


def test_right_w_core_and_left_v_dual_core():
    # weight 1: members are exactly a{1,3,7} intersected with aR <= aR
    rep = right_w_core(M2F2.parse([[1, 1], [0, 0]]), M2F2.one)
    assert rep.exists
    members = rep.extra["members"]
    assert len(members) >= 1
    for x in members:
        assert star_class_membership(M2F2.parse([[1, 1], [0, 0]]), x, "137")[0]
    # infinite backend returns a witness
    rep = right_w_core(A, I2)
    assert rep.exists and rep.value == core_inverse(A).value
    rep = left_v_dual_core(A, I2)
    assert rep.exists and rep.value == dual_core_inverse(A).value


def test_bc_inverse_with_b_c_equal_a():
    grp = group_inverse(A).value
    for flavor in BC_FLAVORS:
        rep = bc_inverse(A, A, A, flavor)
        assert rep.exists and rep.value == grp
        assert rep.extra["closed_form"] == grp


def test_bc_inverse_flavors_on_m2f2():
    a = M2F2.parse([[1, 1], [0, 1]])  # invertible: everything collapses
    b = c = M2F2.one
    for flavor in BC_FLAVORS:
        rep = bc_inverse(a, b, c, flavor)
        assert rep.exists and rep.extra["cab_invertible"] is True
        x = rep.value
        assert x * a * x == x


def test_image_kernel_and_dw_inverses():
    grp = group_inverse(A).value
    p = grp * A
    q = I2 - A * grp
    rep = image_kernel_inverse(A, p, q)
    assert rep.exists and rep.value == grp
    rep = djordjevic_wei_inverse(A, p, q)
    assert rep.exists and rep.value == grp
    assert rep.value * A == p and A * rep.value == I2 - q
    with pytest.raises(PreconditionError):
        djordjevic_wei_inverse(A, M2Q.parse([[0, 1], [0, 0]]), q)


def test_bott_duffin_inverse():
    grp = group_inverse(A).value
    p = grp * A
    rep = bott_duffin_inverse(A, p)
    assert rep.exists and rep.value == grp
    # p = 0 always works and gives 0
    rep = bott_duffin_inverse(A, M2Q.zero)
    assert rep.exists and rep.value == M2Q.zero
    # two-idempotent variant
    rep = bott_duffin_inverse(A, p, p)
    assert rep.exists and rep.value == grp


def test_pq_dispatcher():
    grp = group_inverse(A).value
    p = grp * A
    q = I2 - A * grp
    assert set(PQ_FLAVORS) == {"djordjevic_wei", "image_kernel",
                               "bott_duffin"}
    assert pq_inverse(A, p, q, "djordjevic_wei").value == grp
    assert pq_inverse(A, p, q, "image_kernel").value == grp
    with pytest.raises(PreconditionError):
        pq_inverse(A, p, q, "nope")


def test_dw_against_brute_force_on_z6():
    ring = Zn(6)
    for a in ring.elements():
        for p in ring.elements():
            if p * p != p:
                continue
            for q in ring.elements():
                if q * q != q:
                    continue
                rep = djordjevic_wei_inverse(a, p, q)
                want = [x for x in ring.elements()
                        if satisfies(a, x, ("2",)) and x * a == p
                        and a * x == ring.one - q]
                if rep.exists:
                    assert want == [rep.value]
                else:
                    assert want == []


# -- compute builds each inverse once

def _count_calls(monkeypatch, module, name, real):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting, raising=False)
    return calls


@pytest.mark.parametrize("compute, args", [
    (weighted_mp, (I2, I2)),
    (weighted_mp, (M2Q.parse([[2, 0], [0, 1]]), M2Q.parse([[1, 0], [0, 3]]))),
    (e_core, (I2,)),
    (f_dual_core, (I2,)),
])
def test_weighted_and_core_like_solve_one_bundle(monkeypatch, compute, args):
    calls = _count_calls(monkeypatch, special, "outer_with",
                         prescribed.outer_with)
    assert compute(A, *args).exists
    assert len(calls) == 1


@pytest.mark.parametrize("compute, inverse, flag", [
    (e_core, "e-core", "--e"), (f_dual_core, "f-dual-core", "--f")])
def test_core_like_candidate_with_the_wrong_rx_raises(
        monkeypatch, capsys, compute, inverse, flag):
    # outer_with's x has xR = S and rann(x) = T, which force Rx = S': a
    # candidate with another Rx (here 0) is an internal error, not "none"
    def wrong_rx(a, cons, reflexive=False):
        return InverseReport("reflexive-prescribed", True, a.ring.zero,
                             satisfied=("1", "2"))

    monkeypatch.setattr(special, "outer_with", wrong_rx)
    with pytest.raises(VerificationError, match="fails Rx = S'"):
        compute(A, I2)
    code = cli.main(["compute", "--ring", "m2q", "--element",
                     '[["2","-2"],["0","0"]]', "--inverse", inverse,
                     flag, '[["1","0"],["0","1"]]'])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 70
    assert out == "" and "fails Rx = S'" in err
    assert "Traceback" not in err


def test_djordjevic_wei_does_not_recheck_phi_preimages(monkeypatch):
    calls = _count_calls(monkeypatch, ideals, "phi_preimage",
                         ideals.phi_preimage)
    calls_here = _count_calls(monkeypatch, special, "phi_preimage",
                              ideals.phi_preimage)
    grp = group_inverse(A).value
    rep = djordjevic_wei_inverse(A, grp * A, I2 - A * grp)
    assert rep.exists and rep.value == grp
    assert calls == [] and calls_here == []


def test_bott_duffin_p_inverse_skips_the_image_kernel_inverse(monkeypatch):
    calls = _count_calls(monkeypatch, special, "image_kernel_inverse",
                         image_kernel_inverse)
    grp = group_inverse(A).value
    rep = bott_duffin_inverse(A, grp * A)
    assert rep.exists and rep.value == grp
    assert calls == []



def test_bc_inverse_does_not_rerun_the_construction_clauses(monkeypatch):
    # one outer-inverse construction per call; the clauses of the (b,c)
    # construction theorem are checked by the oracle, not by compute
    calls = _count_calls(monkeypatch, special, "outer_with",
                         prescribed.outer_with)
    grp = group_inverse(A).value
    for flavor in BC_FLAVORS:
        rep = bc_inverse(A, A, A, flavor)
        assert rep.exists and rep.value == grp
        assert rep.extra["closed_form"] == grp
    a = M2F2.parse([[1, 1], [0, 1]])
    rep = bc_inverse(a, M2F2.one, M2F2.one, "right_hybrid")
    assert rep.extra["cab_invertible"] is True
    assert len(calls) == len(BC_FLAVORS) + 1


def test_right_w_core_member_tests_the_linear_solutions_only(monkeypatch):
    # on a finite ring the member test runs only on the x in awR that solve
    # the linear awxa = a, and the ring is never listed; on Q the witness
    # is (aw)^core, tested once
    members = _count_calls(monkeypatch, special, "right_w_core_member",
                           special.right_w_core_member)
    cores = _count_calls(monkeypatch, special, "core_inverse", core_inverse)
    a = M2F2.parse([[1, 1], [0, 0]])
    elements = M2F2.elements()
    monkeypatch.setattr(MatrixRing, "elements", _refuse_to_list)
    rep = right_w_core(a, M2F2.one)
    assert rep.exists
    in_ar = ideals.principal(a, ideals.RIGHT)
    assert len(members) == 2 == sum(a * x * a == a and in_ar.contains(x)
                                    for x in elements)
    assert cores == []
    for x in elements:
        bx = a * x
        want = bx * a == a and bx.star == bx and bx * x == x
        assert (x in rep.extra["members"]) == want
    del members[:]
    assert right_w_core(A, I2).exists
    assert len(members) == 1 and len(cores) == 1


def _refuse_to_list(ring):
    raise AssertionError("listed the elements of %s" % ring.short_name)


@pytest.mark.parametrize("ring", [M2F2, MatF(2, 3)],
                         ids=lambda ring: ring.short_name)
def test_one_sided_core_sets_agree_with_brute_force(ring):
    # every (a, w), against the defining equations tested on every x of
    # the ring through a table of products: awxa = a, (awx)* = awx,
    # awx^2 = x on the right and axwa = a, (xwa)* = xwa, x^2wa = x on the
    # left
    elements = ring.elements()
    index = {x: i for i, x in enumerate(elements)}
    mul = [[index[x * y] for y in elements] for x in elements]
    star = [index[x.star] for x in elements]
    everything = range(len(elements))
    for a in everything:
        for w in everything:
            b, c = mul[a][w], mul[w][a]
            bx = [mul[b][x] for x in everything]
            xc = [mul[x][c] for x in everything]
            right = [elements[x] for x in everything
                     if mul[bx[x]][a] == a and star[bx[x]] == bx[x]
                     and mul[bx[x]][x] == x]
            left = [elements[x] for x in everything
                    if mul[a][xc[x]] == a and star[xc[x]] == xc[x]
                    and mul[x][xc[x]] == x]
            for rep, want in ((right_w_core(elements[a], elements[w]), right),
                              (left_v_dual_core(elements[a], elements[w]),
                               left)):
                assert rep.exists == bool(want), (a, w)
                if want:
                    assert rep.extra["members"] == want, (a, w)
                    assert rep.value == want[0]


@pytest.mark.parametrize("ring, stride", [(M2F2, 1), (MatF(2, 3), 5)],
                         ids=lambda v: getattr(v, "short_name", str(v)))
def test_one_sided_core_sets_are_the_core_sets_of_aw_and_va(ring, stride):
    # the right w-core inverses of a are (aw){1,3,7} when aR <= awR and
    # none otherwise, and the left v-dual core inverses are (va){1,4,9}
    # when Ra <= Rva; both are listed here by brute force over a table of
    # products, and each way an answer can be empty must occur
    elements = ring.elements()
    index = {x: i for i, x in enumerate(elements)}
    mul = [[index[x * y] for y in elements] for x in elements]
    star = [index[x.star] for x in elements]
    everything = range(len(elements))
    right_ideal = [set(row) for row in mul]                 # bR
    left_ideal = [{mul[y][c] for y in everything} for c in everything]

    def core_set(b):          # b{1,3,7}: bxb = b, (bx)* = bx, bx^2 = x
        return [x for x in everything
                if mul[mul[b][x]][b] == b and star[mul[b][x]] == mul[b][x]
                and mul[mul[b][x]][x] == x]

    def dual_core_set(c):     # c{1,4,9}: cxc = c, (xc)* = xc, x^2c = x
        return [x for x in everything
                if mul[c][mul[x][c]] == c and star[mul[x][c]] == mul[x][c]
                and mul[x][mul[x][c]] == x]

    empties = set()
    for a in everything[::stride]:
        for w in everything:
            b, c = mul[a][w], mul[w][a]
            for rep, inside, listed, none in (
                    (right_w_core(elements[a], elements[w]),
                     a in right_ideal[b], core_set(b),
                     "no right w-core inverse exists"),
                    (left_v_dual_core(elements[a], elements[w]),
                     a in left_ideal[c], dual_core_set(c),
                     "no left v-dual core inverse exists")):
                want = [elements[x] for x in listed] if inside else []
                assert rep.exists == bool(want), (a, w)
                if want:
                    assert rep.extra["members"] == want, (a, w)
                else:
                    assert rep.reason == none
                    empties.add((rep.name, inside))
    assert empties == {(name, inside)
                       for name in ("right-w-core", "left-v-dual-core")
                       for inside in (False, True)}


def test_one_sided_core_reasons_over_q():
    nilpotent = M2Q.parse([[0, 1], [0, 0]])
    for compute, name, why in (
            (right_w_core, "right-w-core", "aR is not contained in awR"),
            (left_v_dual_core, "left-v-dual-core",
             "Ra is not contained in Rva")):
        rep = compute(I2, M2Q.zero)
        assert rep.name == name and not rep.exists and rep.reason == why
    rep = right_w_core(nilpotent, I2)
    assert not rep.exists
    assert rep.reason == ("(aw){1,3,7} is empty: %s"
                          % core_inverse(nilpotent).reason)
    rep = left_v_dual_core(nilpotent, I2)
    assert not rep.exists
    assert rep.reason == ("(va){1,4,9} is empty: %s"
                          % dual_core_inverse(nilpotent).reason)


@pytest.mark.parametrize("ring", [M2F2, Zn(12)],
                         ids=lambda ring: ring.short_name)
def test_pq_bott_duffin_flavor_against_brute_force(ring):
    # the (p,q) Bott-Duffin inverse is the one x with px = x, xq = x,
    # xap = p and qax = q; with no q it is the (p,p) one
    elements = ring.elements()
    idempotents = [p for p in elements if p * p == p]
    found = set()
    for a in elements:
        for p in idempotents:
            for q in idempotents + [None]:
                rep = pq_inverse(a, p, q, "bott_duffin")
                e = p if q is None else q
                want = [x for x in elements
                        if p * x == x and x * e == x and x * a * p == p
                        and e * a * x == e]
                assert rep.name == "pq-bott-duffin"
                assert len(want) <= 1
                assert rep.exists == bool(want), (a, p, q)
                if want:
                    assert rep.value == want[0]
                found.add((q is None, rep.exists))
    assert found == {(none, exists) for none in (False, True)
                     for exists in (False, True)}
