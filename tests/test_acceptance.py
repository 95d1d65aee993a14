"""End-to-end acceptance checks.

Criterion 1: exact named inverses and iff-grids for a rational 2x2 matrix.
Criterion 2: the worked F5 example (inverse-set sizes, prescribed values,
             partially-constrained families).
Criterion 3: the full verification catalog on Z6, Z8 and M2(F2) with zero
             counterexamples.
Criterion 4: Moore-Penrose non-existence over M2(F2).
Criterion 5: constructive operations agree with brute force on Z6, M2(F2).
Criterion 6: two consecutive runs of criteria 2-5 emit byte-identical JSON.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from ringinv.geninv import (core_inverse, dual_core_inverse,
                            enumerate_inverse_set, group_inverse,
                            moore_penrose, satisfies)
from ringinv.ideals import RIGHT, LEFT, SidedIdeal, annihilator, principal
from ringinv.linalg import (QQ, PrimeField, Subspace, mat_mul,
                            nullspace_basis, solve_matrix)
from ringinv.oracle import CATALOG, verify_all
from ringinv.prescribed import (IdealConstraints, one_inverse_family,
                                outer_with)
from ringinv.rings import MatF, MatQ, Zn

M2Q = MatQ(2)
A = M2Q.parse([[2, -2], [0, 0]])

M2F5 = MatF(2, 5)
E11 = M2F5.parse([[1, 0], [0, 0]])
E12 = M2F5.parse([[0, 1], [0, 0]])
E21 = M2F5.parse([[0, 0], [1, 0]])
E22 = M2F5.parse([[0, 0], [0, 1]])

M2F2 = MatF(2, 2)

# sha256 of criterion 3's JSON; a change to it must be explained in
# CHANGES.md
CRITERION_3_SHA256 = ("45abec650023ee23b41a4e9256b0877b"
                      "81e6cfa5f2fdd42366b08da70d0f3507")

# ids of the catalog entries exercising every constructive operation
AGREEMENT_IDS = ("O-named-inverses", "T-one-prescribed-families",
                 "P-one-solution-sets", "T-2I-prescribed",
                 "T-12I-prescribed", "T-bc-inverses", "T-pq-inverses")


# -- criterion 1 ----------------------------------------------------------

def affine_solution_space(conditions):
    """Solve linear conditions on a 2x2 unknown over Q exactly.

    Each condition maps an unknown matrix X to a matrix that must vanish;
    returns (particular solution as ring element, nullspace Subspace).
    """
    def flatten(m):
        return [x for row in m.payload for x in row]

    basis = [M2Q.parse([[1 if (i, j) == (r, c) else 0 for c in range(2)]
                        for r in range(2)])
             for i in range(2) for j in range(2)
             for (r, c) in [(i, j)]]
    rows, rhs = [], []
    zero_out = [flatten(cond(M2Q.zero)) for cond in conditions]
    for ci, cond in enumerate(conditions):
        cols = [[x - z for x, z in zip(flatten(cond(e)), zero_out[ci])]
                for e in basis]
        for k in range(4):
            rows.append(tuple(Fraction(cols[j][k]) for j in range(4)))
            rhs.append(-Fraction(zero_out[ci][k]))
    part = solve_matrix(QQ, tuple(rows), tuple((v,) for v in rhs))
    if part is None:
        return None, None
    x0 = M2Q.parse([[part[0][0], part[1][0]], [part[2][0], part[3][0]]])
    null = Subspace.from_vectors(QQ, 4, nullspace_basis(QQ, tuple(rows)))
    return x0, null


def assert_same_affine_set(set_a, set_b):
    xa, na = set_a
    xb, nb = set_b
    assert xa is not None and xb is not None
    assert na == nb
    diff = [x - y for rx, ry in zip(xa.payload, xb.payload)
            for x, y in zip(rx, ry)]
    assert na.contains(tuple(diff))


def test_criterion_1_rational_matrix_exact_values_and_iff_grids():
    start = time.monotonic()
    grp = group_inverse(A)
    mp = moore_penrose(A)
    core = core_inverse(A)
    dual = dual_core_inverse(A)
    assert grp.value == M2Q.parse([["1/2", "-1/2"], [0, 0]])
    assert mp.value == M2Q.parse([["1/4", 0], ["-1/4", 0]])
    assert core.value == M2Q.parse([["1/2", 0], [0, 0]])
    assert dual.value == M2Q.parse([["1/4", "-1/4"], ["-1/4", "1/4"]])

    ag, amp, acore, adual = grp.value, mp.value, core.value, dual.value
    grids = [
        # AX = XA = AA^#  <=>  X in A{1,5}
        ([lambda x: A * x - A * ag, lambda x: x * A - ag * A],
         [lambda x: A * x * A - A, lambda x: A * x - x * A]),
        # AX = AA^dag, XA = A^dag A  <=>  X in A{1,3,4}
        ([lambda x: A * x - A * amp, lambda x: x * A - amp * A],
         [lambda x: A * x * A - A, lambda x: (A * x).star - A * x,
          lambda x: (x * A).star - x * A]),
        # AX = AA^core, XA = A^core A  <=>  X in A{3,6}
        ([lambda x: A * x - A * acore, lambda x: x * A - acore * A],
         [lambda x: (A * x).star - A * x, lambda x: x * A * A - A]),
        # AX = AA_core, XA = A_core A  <=>  X in A{4,8}
        ([lambda x: A * x - A * adual, lambda x: x * A - adual * A],
         [lambda x: (x * A).star - x * A, lambda x: A * A * x - A]),
    ]
    for lhs, rhs in grids:
        assert_same_affine_set(affine_solution_space(lhs),
                               affine_solution_space(rhs))
    assert time.monotonic() - start < 1.0


# -- criteria 2-5 as one deterministic bundle ------------------------------

def scalar_mul(c, m):
    return M2F5.parse([[c * int(x) % 5 for x in row]
                       for row in M2F5.to_json(m)])


def criterion_2_report():
    s_sub = Subspace.from_vectors(PrimeField(5), 2, [(0, 1)])
    sp_sub = Subspace.from_vectors(PrimeField(5), 2, [(1, 0)])
    s = SidedIdeal(M2F5, RIGHT, s_sub)
    sp = SidedIdeal(M2F5, LEFT, sp_sub)
    t, tp = s, sp

    one_set = enumerate_inverse_set(E12, ("1",))
    refl_set = enumerate_inverse_set(E12, ("1", "2"))
    one_ok = all(m.payload[1][0] == 1 for m in one_set)
    refl_ok = all(m.payload[0][1] == m.payload[0][0] * m.payload[1][1] % 5
                  for m in refl_set)

    bundles = (IdealConstraints(right_principal=s, right_annihilator=t),
               IdealConstraints(left_principal=sp, left_annihilator=tp),
               IdealConstraints(right_principal=s, left_principal=sp),
               IdealConstraints(right_annihilator=t, left_annihilator=tp))
    outer_vals = [outer_with(E12, cons) for cons in bundles]
    refl_vals = [outer_with(E12, cons, reflexive=True) for cons in bundles]

    def fam_members(cons):
        fam = one_inverse_family(E12, cons)
        return [M2F5.to_json(x) for x in fam.members()]

    # the two displayed two-parameter families, each with two descriptions
    want_s = sorted({scalar_mul(i, E22) + E21 + scalar_mul(j, E12)
                     for i in range(5) for j in range(5)},
                    key=M2F5.sort_key)
    want_t = sorted({scalar_mul(i, E12) + E21 + scalar_mul(j, E11)
                     for i in range(5) for j in range(5)},
                    key=M2F5.sort_key)
    families = {
        "S": fam_members(IdealConstraints(right_principal=s)),
        "Tp": fam_members(IdealConstraints(left_annihilator=tp)),
        "T": fam_members(IdealConstraints(right_annihilator=t)),
        "Sp": fam_members(IdealConstraints(left_principal=sp)),
    }
    return {
        "one_count": len(one_set),
        "one_condition_x21": one_ok,
        "reflexive_count": len(refl_set),
        "reflexive_condition_x12": refl_ok,
        "outer": [M2F5.to_json(r.value) for r in outer_vals],
        "reflexive": [M2F5.to_json(r.value) for r in refl_vals],
        "families": families,
        "families_match": (
            families["S"] == families["Tp"]
            == [M2F5.to_json(x) for x in want_s]
            and families["T"] == families["Sp"]
            == [M2F5.to_json(x) for x in want_t]),
    }


def criterion_3_reports():
    out = {}
    for ring in (Zn(6), Zn(8), M2F2):
        out[ring.short_name] = [rep.to_json() for rep in verify_all(ring)]
    return out


def criterion_4_report():
    a = M2F2.parse([[1, 1], [0, 0]])
    rep = moore_penrose(a)
    return {
        "exists": rep.exists,
        "reason": rep.reason,
        "enumerated_1234": [M2F2.to_json(x) for x in
                            enumerate_inverse_set(a, ("1", "2", "3", "4"))],
    }


def criterion_5_reports(catalog_reports):
    out = {}
    for name in ("zn:6", "m2f2"):
        picked = [rep for rep in catalog_reports[name]
                  if rep["theorem"] in AGREEMENT_IDS]
        out[name] = picked
    return out


def run_bundle():
    """Criteria 2-5 as JSON text blocks, with wall-clock per criterion."""
    texts, times = {}, {}
    start = time.monotonic()
    texts["criterion2"] = json.dumps(criterion_2_report(), sort_keys=True)
    times["criterion2"] = time.monotonic() - start

    start = time.monotonic()
    catalog = criterion_3_reports()
    texts["criterion3"] = json.dumps(catalog, sort_keys=True)
    times["criterion3"] = time.monotonic() - start

    start = time.monotonic()
    texts["criterion4"] = json.dumps(criterion_4_report(), sort_keys=True)
    times["criterion4"] = time.monotonic() - start

    texts["criterion5"] = json.dumps(criterion_5_reports(catalog),
                                     sort_keys=True)
    return texts, times


@pytest.fixture(scope="module")
def bundle_runs():
    return [run_bundle(), run_bundle()]


def test_criterion_2_f5_worked_example(bundle_runs):
    texts, times = bundle_runs[0]
    doc = json.loads(texts["criterion2"])
    assert doc["one_count"] == 125 and doc["one_condition_x21"]
    assert doc["reflexive_count"] == 25 and doc["reflexive_condition_x12"]
    e21 = M2F5.to_json(E21)
    assert doc["outer"] == [e21] * 4
    assert doc["reflexive"] == [e21] * 4
    assert doc["families_match"]
    assert times["criterion2"] < 10.0


def test_criterion_3_catalog_zero_counterexamples(bundle_runs):
    texts, times = bundle_runs[0]
    doc = json.loads(texts["criterion3"])
    assert set(doc) == {"zn:6", "zn:8", "m2f2"}
    for ring_name, reports in doc.items():
        assert len(reports) == len(CATALOG)
        for rep in reports:
            assert rep["counterexample"] is None, (ring_name, rep)
            assert rep["complete"] and rep["passed"]
    assert hashlib.sha256(texts["criterion3"].encode()).hexdigest() == \
        CRITERION_3_SHA256
    assert times["criterion3"] < 300.0


def test_criterion_4_moore_penrose_nonexistence(bundle_runs):
    texts, times = bundle_runs[0]
    doc = json.loads(texts["criterion4"])
    assert not doc["exists"] and doc["reason"]
    assert doc["enumerated_1234"] == []
    assert times["criterion4"] < 1.0


def test_criterion_5_oracle_agreement(bundle_runs):
    texts, _ = bundle_runs[0]
    doc = json.loads(texts["criterion5"])
    for ring_name in ("zn:6", "m2f2"):
        seen = {rep["theorem"] for rep in doc[ring_name]}
        assert seen == set(AGREEMENT_IDS)
        for rep in doc[ring_name]:
            assert rep["passed"], rep
            assert rep["cases_checked"] > 0


def test_criterion_6_byte_identical_reports(bundle_runs):
    first, second = bundle_runs[0][0], bundle_runs[1][0]
    for key in ("criterion2", "criterion3", "criterion4", "criterion5"):
        assert first[key].encode() == second[key].encode()
