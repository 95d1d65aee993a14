"""Named generalized inverses and equation-set enumeration."""

import hashlib
import json
import os
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringinv import geninv
from ringinv.errors import PreconditionError, UnsupportedInvolutionError
from ringinv.geninv import (EQUATION_TOKENS, NAMED_SYSTEMS, any_inner,
                            core_inverse, count_inverse_set, drazin_index,
                            drazin_inverse, dual_core_inverse,
                            enumerate_inverse_set, group_inverse,
                            inner_inverse, moore_penrose, parse_equations,
                            reflexive_inverse, satisfies)
from ringinv.linalg import rank
from ringinv.rings import (MatF, MatQ, MatrixRing, ModularRing, RingElement,
                           Zn, ring_from_name)

Z6 = Zn(6)
M2F2 = MatF(2, 2)
M2Q = MatQ(2)


def test_parse_equations():
    assert parse_equations("1,2,5") == ("1", "2", "5")
    assert parse_equations("group") == ("1", "2", "5")
    assert parse_equations("moore-penrose") == ("1", "2", "3", "4")
    with pytest.raises(ValueError):
        parse_equations("1,99")


def test_satisfies_equations():
    a = M2Q.parse([[2, -2], [0, 0]])
    g = M2Q.parse([["1/2", "-1/2"], [0, 0]])
    assert satisfies(a, g, ("1", "2", "5"))
    assert not satisfies(a, g, ("3",))
    with pytest.raises(UnsupportedInvolutionError):
        satisfies(Z6.parse(2), Z6.parse(5), ("3",))


def test_enumeration_computes_each_power_once(monkeypatch):
    # a^k and a^(k+1) do not depend on the candidate: 162 powers on the
    # 81 candidates of m2f3 when each candidate recomputes both
    calls = []
    power = RingElement.__pow__

    def counting(self, k):
        calls.append(k)
        return power(self, k)

    monkeypatch.setattr(RingElement, "__pow__", counting)
    m2f3 = MatF(2, 3)
    a = m2f3.parse([[1, 1], [0, 0]])
    for eqs in (("1k",), ("k1",), ("1k", "k1")):
        calls.clear()
        sols = enumerate_inverse_set(a, eqs, k=10 ** 18)
        assert len(calls) <= 2
        assert sols == [x for x in m2f3.elements()
                        if satisfies(a, x, eqs, k=10 ** 18)]


def test_inner_inverses_of_2_mod_6():
    # by direct check, 2*x*2 = 2 mod 6 iff x in {2, 5}
    assert [x.payload for x in enumerate_inverse_set(Z6.parse(2), ("1",))] \
        == [2, 5]
    rep = inner_inverse(Z6.parse(2))
    assert rep.exists and rep.value.payload in (2, 5)


def test_reflexive_inverse():
    rep = reflexive_inverse(Z6.parse(4))
    assert rep.exists
    x = rep.value
    a = Z6.parse(4)
    assert a * x * a == a and x * a * x == x


def test_drazin_index_and_inverse():
    n = M2F2.parse([[0, 1], [0, 0]])
    assert drazin_index(n) == 2
    rep = drazin_inverse(n)
    assert rep.exists and rep.value == M2F2.zero
    assert drazin_index(M2F2.one) == 0
    a = M2Q.parse([[2, -2], [0, 0]])
    assert drazin_index(a) == 1


def test_group_inverse_exists_iff_index_at_most_one():
    n = M2Q.parse([[0, 1], [0, 0]])
    rep = group_inverse(n)
    assert not rep.exists and "index" in rep.reason
    a = M2Q.parse([[2, -2], [0, 0]])
    rep = group_inverse(a)
    assert rep.exists
    assert rep.value == M2Q.parse([["1/2", "-1/2"], [0, 0]])


def test_moore_penrose_over_q():
    a = M2Q.parse([[2, -2], [0, 0]])
    rep = moore_penrose(a)
    assert rep.exists
    assert rep.value == M2Q.parse([["1/4", 0], ["-1/4", 0]])
    assert moore_penrose(M2Q.zero).value == M2Q.zero


def test_moore_penrose_can_fail_over_f2():
    a = M2F2.parse([[1, 1], [0, 0]])
    rep = moore_penrose(a)
    assert not rep.exists
    assert enumerate_inverse_set(a, ("1", "2", "3", "4")) == []


def test_core_and_dual_core_over_q():
    a = M2Q.parse([[2, -2], [0, 0]])
    assert core_inverse(a).value == M2Q.parse([["1/2", 0], [0, 0]])
    assert dual_core_inverse(a).value == \
        M2Q.parse([["1/4", "-1/4"], ["-1/4", "1/4"]])


@pytest.mark.parametrize("compute", [core_inverse, dual_core_inverse])
def test_core_types_validate_once(monkeypatch, compute):
    # group-invertible (index 1) and of rank 2 in m3q
    a = MatQ(3).parse([[1, 2, 0], [0, 0, 0], [3, 1, 1]])
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return satisfies(*args, **kwargs)

    monkeypatch.setattr(geninv, "satisfies", counting)
    rep = compute(a)
    assert rep.exists and drazin_index(a) == 1
    assert len(calls) == 1


def test_named_inverses_agree_with_enumeration_on_m2f2():
    systems = {
        "group": ("1", "2", "5"),
        "moore-penrose": ("1", "2", "3", "4"),
        "core": ("1", "2", "3", "6", "7"),
        "dual-core": ("1", "2", "4", "8", "9"),
    }
    fns = {"group": group_inverse, "moore-penrose": moore_penrose,
           "core": core_inverse, "dual-core": dual_core_inverse}
    for a in M2F2.elements():
        for name, eqs in systems.items():
            sols = enumerate_inverse_set(a, eqs)
            rep = fns[name](a)
            assert len(sols) <= 1  # uniqueness
            if sols:
                assert rep.exists and rep.value == sols[0]
            else:
                assert not rep.exists


def test_no_involution_paths():
    with pytest.raises(UnsupportedInvolutionError):
        moore_penrose(Z6.parse(2))
    with pytest.raises(UnsupportedInvolutionError):
        core_inverse(Z6.parse(2))


def test_report_json_round_trips():
    rep = group_inverse(M2Q.parse([[2, -2], [0, 0]]))
    doc = rep.to_json()
    assert doc["exists"] and doc["inverse"] == "group"
    assert doc["value"] == [["1/2", "-1/2"], ["0", "0"]]
    # deterministic serialization
    assert json.dumps(doc, sort_keys=True) == \
        json.dumps(group_inverse(M2Q.parse([[2, -2], [0, 0]])).to_json(),
                   sort_keys=True)


@st.composite
def m2f2_el(draw):
    return M2F2.parse([[draw(st.integers(0, 1)) for _ in range(2)]
                       for _ in range(2)])


@settings(max_examples=40)
@given(m2f2_el())
def test_reflexive_from_any_inner(a):
    rep = inner_inverse(a)
    if rep.exists:
        g = rep.value
        x = g * a * g
        assert satisfies(a, x, ("1", "2"))
    else:
        assert enumerate_inverse_set(a, ("1",)) == []


@settings(max_examples=40)
@given(m2f2_el())
def test_drazin_inverse_properties(a):
    rep = drazin_inverse(a)
    k = rep.extra["index"]
    assert rep.exists
    x = rep.value
    assert x * a == a * x
    assert x * a * x == x
    assert x * a ** (k + 1) == a ** k


def _preperiod(a):
    """Least k with a^k in the cycle of the power sequence of a."""
    seen = {}
    power = a.ring.one
    while power not in seen:
        seen[power] = len(seen)
        power = power * a
    return seen[power]


def _assert_agrees_with_brute_force(a, elements):
    k = _preperiod(a)
    drz = drazin_inverse(a)
    assert drazin_index(a) == drz.extra["index"] == k
    assert [x for x in elements
            if satisfies(a, x, ("2", "5", "1k"), k=k)] == [drz.value]
    named = [(group_inverse, ("1", "2", "5"))]
    if a.ring.has_involution:
        named += [(moore_penrose, ("1", "2", "3", "4")),
                  (core_inverse, ("1", "2", "3", "6", "7")),
                  (dual_core_inverse, ("1", "2", "4", "8", "9"))]
    for fn, eqs in named:
        rep = fn(a)
        sols = [x for x in elements if satisfies(a, x, eqs)]
        assert sols == ([rep.value] if rep.exists else []), (fn, a)
    if isinstance(a.ring, ModularRing):
        first = next((x for x in elements if a * x * a == a), None)
        assert any_inner(a) == first


@pytest.mark.parametrize("name", ["m2f3", "zn:12", "zn:30", "zn:36",
                                  "zn:72", "zn:97"])
def test_named_inverses_agree_with_brute_force_exhaustively(name):
    ring = ring_from_name(name)
    elements = ring.elements()
    for a in elements:
        _assert_agrees_with_brute_force(a, elements)


def test_named_inverses_agree_with_brute_force_on_m2f5_sample():
    elements = MatF(2, 5).elements()
    for a in random.Random(2014).sample(elements, 48):
        _assert_agrees_with_brute_force(a, elements)


# sha256 of the JSON list of any_inner(a) over the elements in canonical
# order, recorded from the earlier construction Q diag(I_r, 0) E (column
# operations after the row reduction); x = P E must give the same values.
ANY_INNER_DIGESTS = {
    "m2f2": "97ad29565630f3b2ea4b097ac6e713dbd95bf2ec234ef1a09a6d1df34ed232d7",
    "m2f3": "a2af672de03385fec7829ffe9dc7ff59eddfb6165cdd6bc3fc7bd5b5ac914e60",
    "m3f2": "e3297e95170eb7860c11b62dfa874abb5fd4f106359c22e544a8ed90a8d5a27a",
}


@pytest.mark.parametrize("name", sorted(ANY_INNER_DIGESTS))
def test_any_inner_values_are_unchanged(name):
    ring = ring_from_name(name)
    values = json.dumps([ring.to_json(any_inner(a))
                         for a in ring.elements()])
    assert hashlib.sha256(values.encode()).hexdigest() == \
        ANY_INNER_DIGESTS[name]


# 2^3 * 3^2 * 13 * 1000003 * 1000000007: 18 digits, repeated prime factors.
BIG_N = 936002814552019656
# element -> (Drazin index = nilpotency index modulo n0, regular?)
BIG_CASES = {
    0: (1, True),
    5: (0, True),
    BIG_N - 1: (0, True),
    6: (3, False),
    12 * 1000000007: (2, False),
    13 * 1000003: (1, True),
}


def test_large_modulus_needs_no_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("scanned the elements of %s" % self.short_name)
    monkeypatch.setattr(ModularRing, "elements", refuse)
    ring = Zn(BIG_N)
    for value, (index, regular) in BIG_CASES.items():
        a = ring.element(value)
        assert drazin_index(a) == index
        drz = drazin_inverse(a)
        assert drz.exists
        assert satisfies(a, drz.value, ("2", "5", "1k"), k=index)
        grp = group_inverse(a)
        assert grp.exists == (index <= 1)
        if grp.exists:
            assert satisfies(a, grp.value, ("1", "2", "5"))
        inner, refl = inner_inverse(a), reflexive_inverse(a)
        assert inner.exists == refl.exists == regular
        if regular:
            assert satisfies(a, inner.value, ("1",))
            assert satisfies(a, refl.value, ("1", "2"))


# -- listing a{...} from its linear structure --------------------------------

def _outcome(listing):
    """The list a listing returns, or the type and message it raises."""
    try:
        return listing()
    except (UnsupportedInvolutionError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def _assert_listing_is_the_scan(elements, a, eqs, k):
    want = _outcome(lambda: [x for x in elements
                             if satisfies(a, x, eqs, k=k)])
    assert _outcome(lambda: enumerate_inverse_set(a, eqs, k=k)) == want, \
        (a, eqs)
    count = _outcome(lambda: count_inverse_set(a, eqs, k=k))
    assert count == (len(want) if isinstance(want, list) else want), \
        (a, eqs)


SMALL_SYSTEMS = [eqs for size in range(4)
                 for eqs in combinations(EQUATION_TOKENS, size)] + \
    sorted(NAMED_SYSTEMS.values())


@pytest.mark.parametrize("name", ["zn:12", "zn:30", "m2f2"])
def test_listing_matches_the_scan_on_small_systems(name):
    ring = ring_from_name(name)
    elements = ring.elements()
    for a in elements:
        for eqs in SMALL_SYSTEMS:
            _assert_listing_is_the_scan(elements, a, eqs, 2)


SLOW = pytest.mark.skipif(not os.environ.get("RINGINV_SLOW"),
                          reason="set RINGINV_SLOW=1 to run")


@SLOW
def test_listing_matches_the_scan_on_every_system_of_m2f3():
    ring = MatF(2, 3)
    elements = ring.elements()
    systems = [eqs for size in range(len(EQUATION_TOKENS) + 1)
               for eqs in combinations(EQUATION_TOKENS, size)]
    for a in elements:
        for eqs in systems:
            _assert_listing_is_the_scan(elements, a, eqs, 2)


@SLOW
def test_listing_matches_the_scan_on_a_sample_of_m3f2():
    ring = MatF(3, 2)
    elements = ring.elements()
    rng = random.Random(2024)
    systems = [eqs for size in range(len(EQUATION_TOKENS) + 1)
               for eqs in combinations(EQUATION_TOKENS, size)]
    for a in rng.sample(elements, 24):
        for eqs in rng.sample(systems, 60) + sorted(NAMED_SYSTEMS.values()):
            _assert_listing_is_the_scan(elements, a, eqs, rng.randint(1, 3))


# Z8 has no involution and no k is given: the first token that cannot be
# tested raises when the tokens before it have a solution, else a{...} is
# empty.  a{1} is empty for 2, 4 and 6, and a{2}, a{5} hold 0.
LAZY_ERRORS = {
    ("1", "3"): ({0, 1, 3, 5, 7}, UnsupportedInvolutionError),
    ("3", "1"): (set(range(8)), UnsupportedInvolutionError),
    ("2", "4"): (set(range(8)), UnsupportedInvolutionError),
    ("4", "2"): (set(range(8)), UnsupportedInvolutionError),
    ("1k", "5"): (set(range(8)), PreconditionError),
    ("5", "1k"): (set(range(8)), PreconditionError),
}


@pytest.mark.parametrize("eqs", sorted(LAZY_ERRORS))
def test_a_token_that_cannot_be_tested_raises_as_the_scan_does(eqs):
    ring = Zn(8)
    raising, error = LAZY_ERRORS[eqs]
    for a in ring.elements():
        for listing in (enumerate_inverse_set, count_inverse_set):
            if a.payload in raising:
                with pytest.raises(error):
                    listing(a, eqs)
            else:
                assert listing(a, eqs) in ([], 0)
        _assert_listing_is_the_scan(ring.elements(), a, eqs, None)


MATRIX_WORKLOAD_SYSTEMS = ("1", "1,2", "1,3", "1,4", "1,5", "1,2,3,4", "2",
                           "1,2,5", "2,5,1k")


def test_m3f3_sets_are_listed_without_a_scan(monkeypatch):
    # the workload's systems on m3f3, with a{1} counted by rank (p^(9-r^2)
    # members) and the unique sets checked against the named inverses
    ring = MatF(3, 3)
    subjects = [ring.parse(m) for m in (
        [[1, 2, 0], [0, 1, 1], [2, 0, 1]], [[1, 1, 0], [0, 1, 2], [1, 2, 2]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[2, 1, 1], [1, 2, 0], [0, 0, 0]])]
    monkeypatch.setattr(MatrixRing, "elements", _refuse_to_list)
    named = {"1,2,3,4": moore_penrose, "1,2,5": group_inverse}
    for a in subjects:
        for spec in MATRIX_WORKLOAD_SYSTEMS:
            eqs = parse_equations(spec)
            sols = enumerate_inverse_set(a, eqs, k=2)
            assert sols == sorted(set(sols), key=ring.sort_key)
            assert len(sols) == count_inverse_set(a, eqs, k=2)
            assert all(satisfies(a, x, eqs, k=2) for x in sols)
            if spec in named:
                rep = named[spec](a)
                assert sols == ([rep.value] if rep.exists else [])
        r = rank(ring.field, a.payload)
        assert count_inverse_set(a, ("1",)) == 3 ** (9 - r * r)


def _refuse_to_list(ring):
    raise AssertionError("listed the elements of %s" % ring.short_name)


def test_linear_sets_are_counted_without_listing(monkeypatch):
    monkeypatch.setattr(ModularRing, "elements", _refuse_to_list)
    ring = Zn(BIG_N)
    assert count_inverse_set(ring.zero, ("1",)) == BIG_N
    assert count_inverse_set(ring.element(13), ("1",)) == 13
    assert count_inverse_set(ring.element(6), ("1", "5")) == 0
