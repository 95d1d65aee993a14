"""Exhaustive theorem verification on finite backends."""

import hashlib
import json
import time
from itertools import islice, product

import pytest

from ringinv import geninv, oracle, prescribed, special
from ringinv.errors import (NotEnumerableError, PreconditionError,
                            VerificationError)
from ringinv.geninv import InverseReport, enumerate_inverse_set, satisfies
from ringinv.ideals import LEFT, RIGHT, annihilator, principal
from ringinv.oracle import (CATALOG, CATALOG_BY_ID, TheoremCase, verify,
                            verify_all)
from ringinv.prescribed import mitsch_leq
from ringinv.rings import MatF, MatQ, Zn, is_invertible, ring_from_name

# Shared rings for tests that patch nothing.  A ring keeps the answers of
# principal, annihilator, any_inner and the ideal lattice in its memo, so
# a test that patches a library function builds its own ring (_fresh).
Z6 = Zn(6)
M2F2 = MatF(2, 2)


def _fresh(ring):
    return ring_from_name(ring.short_name)


def _cases(theorem, ring):
    """(label, ok) of each case of a catalog entry, in order, each case
    run only when it is asked for."""
    entry = CATALOG_BY_ID[theorem]
    ctx = oracle._Context(ring)
    for label, args in entry.scope(ctx):
        yield str(label), entry.clause(ctx, *args)


def test_catalog_ids_are_unique_and_scoped():
    assert len(CATALOG_BY_ID) == len(CATALOG)
    for case in CATALOG:
        assert case.id and case.quantifier_scope


def test_brute_force_set():
    a = Z6.parse(2)
    got = enumerate_inverse_set(a, ("1",))
    assert [x.payload for x in got] == [2, 5]
    with pytest.raises(NotEnumerableError):
        enumerate_inverse_set(MatQ(2).one, ("1",))


def test_unknown_theorem_id():
    with pytest.raises(PreconditionError):
        verify("T-no-such-theorem", Z6)


def test_error_escaping_a_checker_is_the_next_case(monkeypatch):
    def scope(ctx):
        yield "first", ()
        yield "second", ()
        raise PreconditionError("ideals of different sides")

    monkeypatch.setitem(CATALOG_BY_ID, "T-invertible-lemma",
                        TheoremCase("T-invertible-lemma", "test", scope,
                                    lambda ctx: True))
    rep = verify("T-invertible-lemma", Z6)
    assert rep.counterexample == ("case 3 raised PreconditionError: "
                                  "ideals of different sides")
    assert rep.cases_checked == 3 and not rep.passed
    rep = verify("T-invertible-lemma", Z6, max_cases=2)
    assert rep.counterexample is None and not rep.complete


def test_error_in_a_clause_fails_its_own_case(monkeypatch):
    z6 = Zn(6)

    def broken(a, side):
        raise PreconditionError("mutant")

    monkeypatch.setattr(oracle, "principal", broken)
    rep = verify("T-invertible-lemma", z6)
    assert rep.counterexample == "a=0" and rep.cases_checked == 1


@pytest.mark.parametrize("max_cases", [0, 2, 5])
def test_budget_is_checked_before_the_clause_runs(monkeypatch, max_cases):
    calls = []

    def counting(a):
        calls.append(a)
        return is_invertible(a)

    monkeypatch.setattr(oracle, "is_invertible", counting)
    rep = verify("T-invertible-lemma", Z6, max_cases=max_cases)
    assert not rep.complete and rep.cases_checked == max_cases
    assert len(calls) == max_cases


def test_invertible_lemma_case_count():
    rep = verify("T-invertible-lemma", Z6)
    assert rep.passed and rep.cases_checked == 6


def test_one_inverse_projector_case_counts():
    rep = verify("T-1I-projectors", Z6)
    assert rep.passed and rep.cases_checked == 36
    rep = verify("T-1I-projectors", M2F2)
    assert rep.passed and rep.cases_checked == 256


_PROJECTOR_BLOCKS = (oracle._one_inverse_block, oracle._outer_inverse_block,
                     oracle._reflexive_inverse_block,
                     oracle._commuting_inverse_block, oracle._drazin_block)


def test_projector_blocks_agree_with_the_equations():
    a = Z6.parse(2)
    for x in Z6.elements():
        for block in _PROJECTOR_BLOCKS:
            clauses = block(a, x)
            assert len(set(clauses.values())) == 1, (block, x, clauses)
        assert oracle._one_inverse_block(a, x)["equations"] == \
            satisfies(a, x, ("1",))
        assert oracle._outer_inverse_block(a, x)["equations"] == \
            satisfies(a, x, ("2",))


_NAMED_BLOCKS = (("1", oracle._one_inverse_block),
                 ("2", oracle._outer_inverse_block),
                 ("12", oracle._reflexive_inverse_block),
                 ("15", oracle._commuting_inverse_block))

# the clause labels of each block and star class, in order
_BLOCK_LABELS = {
    "1": ["equations", "phi_ax=rho_{aR,rann(ax)}", "phi_xa=rho_{xaR,rann(a)}",
          "ax_phi=rho_{Rax,lann(a)}", "xa_phi=rho_{Ra,lann(xa)}"],
    "2": ["equations", "phi_ax=rho_{axR,rann(x)}", "phi_xa=rho_{xR,rann(xa)}",
          "ax_phi=rho_{Rx,lann(ax)}", "xa_phi=rho_{Rxa,lann(x)}"],
    "12": ["equations", "phi_ax=rho_{aR,rann(x)}", "phi_xa=rho_{xR,rann(a)}",
           "ax_phi=rho_{Rx,lann(a)}", "xa_phi=rho_{Ra,lann(x)}"],
}
_STAR_CLASS_LABELS = {
    "13": ["phi_ax=rho_{aR,rann(a*)}", "ax_phi=rho_{Ra*,lann(a)}"],
    "14": ["phi_xa=rho_{a*R,rann(a)}", "xa_phi=rho_{Ra,lann(a*)}"],
    "134": ["phi_ax=rho_{aR,rann(a*)}+phi_xa=rho_{a*R,rann(a)}",
            "phi_ax=rho_{aR,rann(a*)}+xa_phi=rho_{Ra,lann(a*)}",
            "ax_phi=rho_{Ra*,lann(a)}+phi_xa=rho_{a*R,rann(a)}",
            "ax_phi=rho_{Ra*,lann(a)}+xa_phi=rho_{Ra,lann(a*)}"],
    "136": ["phi_ax=rho_{aR,rann(a*)}+phi_xa=rho_{aR,rann(a)}",
            "phi_ax=rho_{aR,rann(a*)}+xa_phi=rho_{Ra,lann(a)}",
            "ax_phi=rho_{Ra*,lann(a)}+phi_xa=rho_{aR,rann(a)}",
            "ax_phi=rho_{Ra*,lann(a)}+xa_phi=rho_{Ra,lann(a)}"],
    "148": ["phi_ax=rho_{aR,rann(a)}+phi_xa=rho_{a*R,rann(a)}",
            "phi_ax=rho_{aR,rann(a)}+xa_phi=rho_{Ra,lann(a*)}",
            "ax_phi=rho_{Ra,lann(a)}+phi_xa=rho_{a*R,rann(a)}",
            "ax_phi=rho_{Ra,lann(a)}+xa_phi=rho_{Ra,lann(a*)}"],
    "137": ["phi_ax=rho_{aR,rann(a*)}+x_in_aR",
            "ax_phi=rho_{Ra*,lann(a)}+lann(a)<=lann(x)"],
    "149": ["phi_xa=rho_{a*R,rann(a)}+rann(a)<=rann(x)",
            "xa_phi=rho_{Ra,lann(a*)}+x_in_Ra"],
}


def test_block_and_star_class_labels_are_pinned():
    a = x = M2F2.one
    for name, labels in _BLOCK_LABELS.items():
        assert list(dict(_NAMED_BLOCKS)[name](a, x)) == labels
    for tag, labels in _STAR_CLASS_LABELS.items():
        assert list(oracle._star_class_clauses(a, x, tag)) == labels


@pytest.mark.parametrize("reading", ["holds", "reads"])
def test_each_star_class_row_is_evaluated_once_per_case(monkeypatch,
                                                        reading):
    # the conditions of 134, 136 and 148 pair each row with two others
    real = getattr(oracle._Row, reading)
    calls = []

    def recording(row, t):
        calls.append(row)
        return real(row, t)

    monkeypatch.setattr(oracle._Row, reading, recording)
    elements = M2F2.elements()
    for tag in ("134", "136", "148"):
        for a in elements:
            for x in elements:
                calls.clear()
                oracle._star_conditions(tag, oracle._terms(a, x, a.star),
                                        reading == "reads")
                assert len(calls) == len(set(calls))


def _projector_clause_lines(ring):
    """One line per block clause dict on every pair (a, x) and, on a
    *-ring, per star-class clause dict and identity report."""
    ctx = oracle._Context(ring)
    r = ring.render
    for name, block in _NAMED_BLOCKS:
        for a in ctx.elements:
            for x in ctx.elements:
                yield "%s\t%s\t%s\t%r" % (name, r(a), r(x),
                                          list(block(a, x).items()))
    if not ring.has_involution:
        return
    for tag in sorted(special.STAR_CLASS_EQS):
        for a in ctx.elements:
            for x in ctx.elements:
                member, clauses = oracle.star_class_membership(a, x, tag)
                yield "%s\t%s\t%s\t%r\t%r" % (tag, r(a), r(x), member,
                                              list(clauses.items()))
            report = oracle.star_class_identity_report(a, tag, ctx)
            yield "%s\t%s\t%r" % (tag, r(a), [
                [r(y) for y in v] if isinstance(v, list) else v
                for v in report.values()])


# sha256 of _projector_clause_lines, recorded before the blocks, the
# star-class clauses and their ideal descriptions came from one row table
_PROJECTOR_CLAUSE_DIGESTS = {
    "zn:12":
        "55ed92e100e349a37a13327238e88d26d38e6ea9e9553fc143284a02ddf954e0",
    "m2f2":
        "74c52148cf2ea7d758be3fe84d0e1b9750528a9dfa426f2b037b0828daf371f5",
}


@pytest.mark.parametrize("name", sorted(_PROJECTOR_CLAUSE_DIGESTS))
def test_projector_clauses_match_the_golden_digest(name):
    text = "\n".join(_projector_clause_lines(ring_from_name(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        _PROJECTOR_CLAUSE_DIGESTS[name]


def test_a_swapped_star_row_breaks_both_readings(monkeypatch):
    # one row feeds a class's projector clauses and its ideal descriptions,
    # so swapping u and v in a {1,3} row breaks both
    row = oracle._ROWS["c13"][0]
    swapped = oracle._Row(row.p, row.side, row.v, row.u)
    for conditions in oracle._STAR_CLASSES.values():
        for label, cond in list(conditions.items()):
            if row in cond:
                monkeypatch.setitem(conditions, label, tuple(
                    swapped if item is row else item for item in cond))
    ring = MatF(2, 2)
    rep = verify("T-star-classes", ring)
    assert (rep.counterexample, rep.cases_checked) == \
        ("a=[0 0; 1 0],class=13", 15)
    a, x = ring.parse([[0, 0], [1, 0]]), ring.parse([[0, 1], [0, 0]])
    with pytest.raises(VerificationError):
        oracle.star_class_membership(a, x, "13")
    with pytest.raises(VerificationError):
        oracle.star_class_identity_report(a, "13", oracle._Context(ring))


def test_brute_force_match_needs_the_one_solution():
    a, b = Z6.parse(2), Z6.parse(5)
    none = InverseReport("group", False, reason="none")
    some = InverseReport("group", True, a)
    assert oracle._is_brute_force(none, [])
    assert oracle._is_brute_force(some, [a])
    # "none" while brute force finds two solutions is a mismatch
    for rep, want in ((none, [a]), (none, [a, b]), (some, []),
                      (some, [b]), (some, [a, b])):
        assert not oracle._is_brute_force(rep, want)


@pytest.mark.parametrize("ring", [Zn(8), M2F2])
def test_drazin_block_defect_is_blamed_on_its_entry_only(monkeypatch, ring):
    ring = _fresh(ring)
    index_zero = lambda a: 0
    monkeypatch.setattr(geninv, "drazin_index", index_zero)
    monkeypatch.setattr(oracle, "drazin_index", index_zero)
    zero = ring.render(ring.zero)
    for theorem in ("T-1I-projectors", "T-2I-projectors", "T-12I-projectors",
                    "T-15-projectors", "T-drazin-projectors"):
        rep = verify(theorem, ring)
        if theorem == "T-drazin-projectors":
            assert rep.counterexample == "a=%s,x=%s" % (zero, zero)
        else:
            assert rep.passed, rep


def test_reflexive_clauses_agree_with_definition():
    a = M2F2.parse([[0, 0], [0, 1]])
    for x in M2F2.elements():
        if not satisfies(a, x, ("1", "2")):
            continue
        ideals = (principal(x, RIGHT), annihilator(x, RIGHT),
                  principal(x, LEFT), annihilator(x, LEFT))
        clauses = oracle._reflexive_clauses(a, x, ("S", "T"), ideals,
                                            oracle._Context(M2F2))
        assert all(clauses.values())
        assert set(clauses) == {
            "projectors+x_in_S", "projectors+lann(S)<=lann(x)",
            "projectors+T<=rann(x)", "a1+ideals+x_in_S",
            "a1+ideals+lann(S)<=lann(x)", "a1+ideals+T<=rann(x)",
            "closed_form", "isomorphism_phi_b"}


def test_budget_marks_report_incomplete():
    rep = verify("T-1I-projectors", M2F2, max_cases=10)
    assert not rep.complete and not rep.passed
    assert rep.counterexample is None
    assert rep.cases_checked == 10


def test_budget_equal_to_case_count_completes():
    rep = verify("T-invertible-lemma", Z6, max_cases=6)
    assert rep.complete and rep.passed and rep.cases_checked == 6
    rep = verify("T-invertible-lemma", Z6, max_cases=5)
    assert not rep.complete and not rep.passed and rep.cases_checked == 5


def test_a_time_budget_stops_a_case_inside_its_sweep():
    # each T-star-classes case on M3(F3) sweeps its 19,683 x; the second
    # call starts one on the warm context, and the sweep stops it
    ring = ring_from_name("m3f3")
    for _ in range(2):
        rep = verify("T-star-classes", ring, max_cases=30, max_seconds=1)
        assert rep.elapsed < 5
        assert not rep.complete and rep.counterexample is None
        assert rep.cases_checked < 30
    assert oracle._Context.of(ring).deadline is None


def test_a_time_budget_stops_a_projector_algebra_case():
    # one L-projector-algebra case on M3(F3) sweeps the 19,683 elements
    # twice, and ran 2.4 s past a 0.3 s budget before its sweeps polled
    start = time.monotonic()
    rep = verify("L-projector-algebra", MatF(3, 3), max_seconds=0.3)
    assert time.monotonic() - start < 1.5
    assert not rep.complete and rep.counterexample is None


@pytest.mark.parametrize("theorem", ["T-star-classes", "T-bc-inverses",
                                     "T-pq-inverses", "O-named-inverses"])
def test_a_sweep_stopped_by_the_deadline_is_not_counted(monkeypatch,
                                                        theorem):
    # a deadline past at the first poll stops the first case's sweep
    ring = MatF(2, 2)
    ctx = oracle._Context.of(ring)
    real = oracle._polling
    monkeypatch.setattr(oracle, "_polling",
                        lambda items, deadline: real(items, 0))
    rep = verify(theorem, ring, max_seconds=60)
    assert rep.cases_checked == 0 and not rep.complete
    assert rep.counterexample is None and ctx.deadline is None
    # the stopped scan was not kept, so the same case passes unbudgeted
    monkeypatch.setattr(oracle, "_polling", real)
    assert verify(theorem, ring, max_cases=3).counterexample is None


def test_no_budget_polls_nothing(monkeypatch):
    def refused(items, deadline):
        raise AssertionError("polled without a budget")

    monkeypatch.setattr(oracle, "_polling", refused)
    for theorem in ("T-star-classes", "T-bc-inverses", "T-pq-inverses",
                    "L-core-equation-systems"):
        assert verify(theorem, MatF(2, 2), max_cases=40).counterexample \
            is None


def test_mitsch_order_yields_before_tabulating(monkeypatch):
    calls = []

    def counting(y, z):
        calls.append((y, z))
        return mitsch_leq(y, z)

    monkeypatch.setattr(oracle, "mitsch_leq", counting)
    label, ok = next(_cases("T-mitsch-order", M2F2))
    assert label.startswith("reflexive y=") and ok
    assert len(calls) == 1


def _eager_mitsch_order(ring):
    """The order checks with the whole leq table built up front."""
    elems = ring.elements()
    leq = {(y, z): mitsch_leq(y, z) for y in elems for z in elems}
    r = ring.render
    for y in elems:
        yield "reflexive y=%s" % r(y), leq[(y, y)]
        for z in elems:
            if leq[(y, z)] and leq[(z, y)]:
                yield "antisym y=%s,z=%s" % (r(y), r(z)), y == z
            for u in elems:
                if leq[(y, z)] and leq[(z, u)]:
                    yield ("trans y=%s,z=%s,u=%s" % (r(y), r(z), r(u)),
                           leq[(y, u)])


@pytest.mark.parametrize("ring", [Z6, Zn(8), M2F2])
def test_mitsch_order_cases_match_eager_table(ring):
    assert list(_cases("T-mitsch-order", ring)) == \
        list(_eager_mitsch_order(ring))


def test_mitsch_extremes_report():
    ctx = oracle._Context(M2F2)
    a = M2F2.parse([[0, 0], [0, 1]])
    # a is idempotent: its own outer inverse, prescribed by its ideals in
    # every two-ideal shape
    for tags in oracle._TWO_SHAPES:
        assert oracle._mitsch_extremes(ctx, a, a, tags)
    # 1 prescribes xR = R and rann(x) = 0, which no outer inverse of the
    # singular a has
    assert not oracle._mitsch_extremes(ctx, a, M2F2.one, ("S", "T"))


def test_infinite_ring_rejected():
    with pytest.raises(NotEnumerableError):
        verify("T-invertible-lemma", MatQ(2))


# sha256 of every entry's (label, ok) sequence, entries in catalog order
# and each case as "id<TAB>label<TAB>ok" on a line; m2f2 keeps the first
# 200 cases of each entry, zn:12 and m2f3 the first 100.  The zn:6, zn:8
# and m2f2 digests were recorded before the scope layer replaced the
# per-entry checkers, whose sequences these are; the zn:12 and m2f3 ones
# before the ideals of an indexed ring were interned, so that the index
# paths are pinned on lattices of 6 ideals per side.
_CASE_SEQUENCES = {
    ("zn:6", None):
        "b22c9d14e6dccc4a1098089e1d315ed95bbedf5b4d500374e74f23c322466a2d",
    ("zn:8", None):
        "2d9829ef9fa004b989d2a8f238bbd5fec92f7150f703970b2957fc127b1907b3",
    ("m2f2", 200):
        "363ca2be47b8958bee3f8a15731445d0908b90c05b7be09416a35714dc752adf",
    ("zn:12", 100):
        "285710f839d19bccab335e8565d0b3ecf7a1fc567d6fb71d2cc740b40b7688ca",
    ("m2f3", 100):
        "452647fb0a208d19e906a4bfd0d75dcaf0f08f672e9d53091a58279a6da7eced",
}


@pytest.mark.parametrize("name, limit", sorted(_CASE_SEQUENCES, key=str))
def test_case_sequences_are_pinned(name, limit):
    ring = ring_from_name(name)
    text = "\n".join(
        "%s\t%s\t%d" % (entry.id, label, ok) for entry in CATALOG
        for label, ok in islice(_cases(entry.id, ring), limit))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        _CASE_SEQUENCES[name, limit]


def test_report_json_is_deterministic_and_excludes_timing():
    a = verify("T-mitsch-order", Z6)
    b = verify("T-mitsch-order", Z6)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)
    assert "elapsed" not in a.to_json()


def test_full_catalog_passes_on_z6():
    reports = verify_all(Z6)
    assert len(reports) == len(CATALOG)
    for rep in reports:
        assert rep.passed, "%s: %s" % (rep.theorem, rep.counterexample)


@pytest.mark.parametrize("n, skipped", [
    (12, ()),
    # T-bc-inverses alone takes about a minute on zn:30
    (30, ("T-bc-inverses",)),
])
def test_catalog_passes_on_larger_zn(n, skipped):
    ids = [case.id for case in CATALOG if case.id not in skipped]
    for rep in verify_all(Zn(n), theorem_ids=ids):
        assert rep.passed, "%s: %s" % (rep.theorem, rep.counterexample)


@pytest.mark.slow
@pytest.mark.parametrize("theorem, cases", [
    ("O-named-inverses", 512), ("T-1I-projectors", 512 ** 2),
    # 8 shapes for each of the 22,632 pairs (a, g) with g in a{1}
    ("T-one-prescribed-families", 181056),
    ("P-one-solution-sets", 181056)])
def test_entries_complete_on_m3f2(theorem, cases):
    rep = verify(theorem, MatF(3, 2))
    assert rep.passed and rep.cases_checked == cases


def test_selected_entries_pass_on_z8():
    ids = ("T-invertible-lemma", "L-idempotent-ideals", "T-12I-projectors",
           "T-one-prescribed-families", "P-one-solution-sets",
           "T-mitsch-extremes", "O-named-inverses")
    for rep in verify_all(Zn(8), theorem_ids=ids):
        assert rep.passed, "%s: %s" % (rep.theorem, rep.counterexample)


def test_selected_entries_pass_on_m2f2():
    # the cheap entries; the full sweep runs in the acceptance suite
    ids = ("T-invertible-lemma", "L-star-ideal-duality",
           "L-core-equation-systems", "T-star-classes",
           "T-one-prescribed-families", "P-one-solution-sets",
           "O-named-inverses")
    for rep in verify_all(M2F2, theorem_ids=ids):
        assert rep.passed, "%s: %s" % (rep.theorem, rep.counterexample)


def test_counterexample_detection():
    # a deliberately false claim must surface its first failing case
    entry = TheoremCase("T-bogus", "all a", oracle._scope("a"),
                        lambda ctx, a: a * a == a)
    CATALOG_BY_ID[entry.id] = entry
    try:
        rep = verify("T-bogus", Z6)
    finally:
        del CATALOG_BY_ID[entry.id]
    assert not rep.passed
    assert rep.counterexample == "a=2"  # 2*2 = 4 != 2, first in order
    assert rep.cases_checked == 3
    assert rep.ring == "zn:6"


def test_only_the_counterexample_label_is_built(monkeypatch):
    texts = []
    real = oracle._Context.text

    def recording(ctx, value):
        texts.append(value)
        return real(ctx, value)

    monkeypatch.setattr(oracle._Context, "text", recording)
    assert verify("T-1I-projectors", Z6).passed and texts == []
    entry = TheoremCase("T-bogus", "all a, x", oracle._scope("a", "x"),
                        lambda ctx, a, x: a * x != a.ring.one)
    monkeypatch.setitem(CATALOG_BY_ID, entry.id, entry)
    rep = verify("T-bogus", Z6)
    assert rep.counterexample == "a=1,x=1" and rep.cases_checked == 8
    assert texts == [Z6.one, Z6.one]


# -- cross-checks that moved out of the compute path ----------------------
#
# Each mutant breaks one equivalence that compute no longer re-proves; the
# catalog entry covering it must report a counterexample, never raise.

def _counterexample(theorem, ring, max_cases):
    rep = verify(theorem, ring, max_cases=max_cases)
    assert rep.counterexample is not None, rep
    return rep


def test_outer_with_without_an_inverse_is_a_counterexample(monkeypatch):
    z6 = Zn(6)
    # each case's x is the outer inverse its own ideals prescribe, so an
    # outer_with that finds none fails the first case
    monkeypatch.setattr(oracle, "outer_with", lambda a, cons, reflexive:
                        InverseReport("outer-prescribed", False,
                                      reason="mutant"))
    rep = _counterexample("T-mitsch-extremes", z6, 60)
    assert rep.counterexample == "a=0,x=0,shape=S+T"
    assert rep.cases_checked == 1


def test_disagreeing_bundle_is_a_counterexample(monkeypatch):
    m2f2 = MatF(2, 2)
    real = prescribed.outer_with

    def one_bundle_off(a, cons, reflexive=False):
        if reflexive and cons.shape() == ("Sp", "Tp"):
            return InverseReport("reflexive", False, reason="mutant")
        return real(a, cons, reflexive=reflexive)

    monkeypatch.setattr(special, "outer_with", one_bundle_off)
    monkeypatch.setattr(oracle, "outer_with", one_bundle_off)
    zero = m2f2.render(m2f2.zero)
    for theorem in ("T-weighted-mp-grid", "T-e-core-grid"):
        rep = _counterexample(theorem, m2f2, 20)
        assert rep.cases_checked == 1
        assert rep.counterexample.startswith("a=%s," % zero)


def test_wrong_grid_side_clause_is_a_counterexample(monkeypatch):
    m2f2 = MatF(2, 2)
    monkeypatch.setitem(oracle._SIDE_CLAUSES, "xR<=S",
                        lambda x, s, t, sp, tp: True)
    rep = _counterexample("T-w-core-grid", m2f2, 20)
    assert rep.cases_checked == 2


def test_failing_group_compute_is_its_first_case(monkeypatch):
    m2f2 = MatF(2, 2)

    def broken(a, w):
        raise VerificationError("constructed w-core inverse fails")

    monkeypatch.setattr(special, "w_core", broken)
    rep = _counterexample("T-w-core-grid", m2f2, 20)
    zero = m2f2.render(m2f2.zero)
    assert rep.cases_checked == 1
    assert rep.counterexample == "a=%s,w=%s,x=%s" % (zero, zero, zero)


_real_bc_inverse = special.bc_inverse


def _shifted_closed_form(a, b, c, flavor="full"):
    rep = _real_bc_inverse(a, b, c, flavor)
    if "closed_form" in rep.extra:
        rep.extra["closed_form"] = rep.extra["closed_form"] + a.ring.one
    return rep


@pytest.mark.parametrize("module, name, mutant", [
    # the reported closed form is no longer b (cab)^(1) c
    (special, "bc_inverse", _shifted_closed_form),
    # the invertibility hypotheses claimed where they do not hold
    (special, "bc_invertibility_hypotheses", lambda a, b, c: (True, True)),
    # b (cab)^{-1} c taken with a wrong inverse of cab
    (oracle, "inverse_of_unit", lambda u: u.ring.one),
])
def test_bc_mutants_are_counterexamples(monkeypatch, module, name, mutant):
    z6 = Zn(6)
    monkeypatch.setattr(module, name, mutant)
    _counterexample("T-bc-inverses", z6, 60)


def test_phi_preimage_mutant_is_a_counterexample(monkeypatch):
    z6 = Zn(6)
    monkeypatch.setattr(oracle, "phi_preimage",
                        lambda a, ideal: principal(a.ring.one, ideal.side))
    _counterexample("T-pq-inverses", z6, 40)


@pytest.mark.parametrize("name, mutant", [
    # (awx)* = awx dropped
    ("right_w_core_member",
     lambda a, w, x: a * w * x * a == a and a * w * x * x == x),
    # (xva)* = xva dropped
    ("left_v_dual_core_member",
     lambda a, v, x: a * x * v * a == a and x * x * v * a == x),
])
def test_one_sided_member_mutants_are_counterexamples(monkeypatch, name,
                                                      mutant):
    m2f2 = MatF(2, 2)
    monkeypatch.setattr(special, name, mutant)
    _counterexample("T-one-sided-core", m2f2, 40)


# -- a library error inside a clause is a counterexample, never a raise ---

def _raise_verification_error(*args, **kwargs):
    raise VerificationError("mutant")


@pytest.mark.parametrize("theorem, ring, name", [
    ("T-2I-prescribed", Z6, "outer_with"),
    ("T-12I-prescribed", Z6, "outer_with"),
    ("T-mitsch-extremes", Z6, "outer_with"),
    ("L-core-equation-systems", M2F2, "core_inverse"),
    ("T-one-prescribed-families", Z6, "one_inverse_family"),
    # raised by the first case's regularity test
    ("L-regular-ideal-inclusions", Z6, "any_inner"),
])
def test_library_error_is_the_raising_case(monkeypatch, theorem, ring, name):
    ring = _fresh(ring)
    first, ok = next(_cases(theorem, ring))
    assert ok
    monkeypatch.setattr(oracle, name, _raise_verification_error)
    rep = _counterexample(theorem, ring, 5)
    assert rep.counterexample == first and rep.cases_checked == 1


# -- T-bc-inverses and T-pq-inverses compute each tuple's data once -------

def test_bc_case_solves_each_flavor_once(monkeypatch):
    calls = []

    def counting(a, cons, reflexive=False):
        calls.append(cons.shape())
        return prescribed.outer_with(a, cons, reflexive=reflexive)

    monkeypatch.setattr(special, "outer_with", counting)
    label, ok = next(_cases("T-bc-inverses", Z6))
    assert ok and len(calls) == len(special.BC_FLAVORS) == 4


@pytest.mark.parametrize("name", ["zn:12", "m2f2"])
def test_bc_flavor_ideals_are_the_library_bundles(name):
    # the hybrid flavors coincide on a regular ring, so no catalog case
    # tells a swap of two flavors in the library from the paper's mapping
    ring = ring_from_name(name)
    assert tuple(oracle._BC_FLAVOR_IDEALS) == special.BC_FLAVORS
    for b, c in product(ring.elements(), repeat=2):
        for flavor, ideals in oracle._BC_FLAVOR_IDEALS.items():
            assert ideals(b, c) == special._bc_constraints(b, c, flavor).ideals


def test_multiply_ideal_mutant_breaks_a_djordjevic_wei_item(monkeypatch):
    z6 = Zn(6)
    monkeypatch.setattr(oracle, "multiply_ideal",
                        lambda a, ideal: principal(a.ring.one, ideal.side))
    rep = _counterexample("T-pq-inverses", z6, 40)
    assert rep.counterexample == "a=1,p=1,q=0" and rep.cases_checked == 21


def test_flipped_bc_ideal_formulation_is_a_counterexample(monkeypatch):
    z6 = Zn(6)
    real = oracle._bc_ideal_formulations

    def flipped(a, b, c):
        forms = real(a, b, c)
        first, second = forms["outer_with_xR=bR"]
        forms["outer_with_xR=bR"] = (not first, second)
        return forms

    monkeypatch.setattr(oracle, "_bc_ideal_formulations", flipped)
    rep = _counterexample("T-bc-inverses", z6, 60)
    assert rep.cases_checked == 1


def test_bc_equality_clauses_catch_a_stray_closed_form(monkeypatch):
    z6 = Zn(6)
    # with one b (cab)^(1) c too many, only the closed-form equality
    # clause changes: every brute-force comparison still passes
    real = oracle.bc_construction_clauses
    messages = []

    def one_more(a, b, c, inners):
        reports = real(a, b, c, inners)
        for x in list(reports):
            reports.setdefault(x + a.ring.one, reports[x])
        return reports

    entry = CATALOG_BY_ID["T-bc-inverses"]
    clause = entry.clause

    def recording(ctx, *args):
        try:
            return clause(ctx, *args)
        except VerificationError as exc:
            messages.append(str(exc))
            raise

    monkeypatch.setattr(oracle, "bc_construction_clauses", one_more)
    monkeypatch.setattr(entry, "clause", recording)
    rep = _counterexample("T-bc-inverses", z6, 60)
    assert rep.cases_checked == 1
    assert messages[0].startswith("(b,c) equality clauses disagree")
