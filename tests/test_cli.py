"""CLI contract: JSON in, canonical JSON out, stable exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringinv
from ringinv import special
from ringinv.cli import (EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_INTERNAL,
                         EXIT_INVOLUTION, EXIT_NONE, EXIT_NOT_ENUMERABLE,
                         EXIT_OK, EXIT_USAGE, UsageError, main,
                         parse_constraints, parse_element, parse_ring)
from ringinv.errors import VerificationError
from ringinv.geninv import enumerate_inverse_set, parse_equations, satisfies
from ringinv.linalg import _MR_EXACT
from ringinv.prescribed import one_inverse_family
from ringinv.rings import MatF, MatQ, ModularRing, Zn, ring_from_name


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_VALID_JOB = json.dumps({"command": "enumerate", "ring": "zn:6",
                         "element": "2", "options": {"equations": "1"}})


def run_job(capsys, monkeypatch, job):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    return run_cli(capsys, "--job", "-")


def test_parse_ring_shorthands_and_json():
    assert parse_ring("zn:6") == Zn(6)
    assert parse_ring("m2f5") == MatF(2, 5)
    assert parse_ring('{"kind": "zn", "n": 8}') == Zn(8)
    assert parse_ring('{"kind": "matrix", "size": 2, '
                      '"scalars": {"kind": "q"}, '
                      '"involution": "transpose"}') == MatQ(2)
    assert parse_ring('{"kind": "matrix", "size": 2, '
                      '"scalars": {"kind": "fp", "p": 3}}') == MatF(2, 3)
    with pytest.raises(UsageError):
        parse_ring("m2c")
    with pytest.raises(UsageError):
        parse_ring('{"kind": "matrix", "size": 2, '
                   '"scalars": {"kind": "q"}, "involution": "conjugate"}')


def test_parse_element_and_constraints():
    ring = MatF(2, 2)
    a = parse_element(ring, '[["1","0"],["0","1"]]')
    assert a == ring.one
    with pytest.raises(UsageError):
        parse_element(ring, '[[1]]')
    cons = parse_constraints(ring, json.dumps(
        {"right_principal": {"principal": [["0", "0"], ["0", "1"]]},
         "right_annihilator": {"annihilator": [["0", "0"], ["0", "1"]]}}))
    assert cons.shape() == ("S", "T")
    cons = parse_constraints(ring, json.dumps(
        {"right_principal": {"colspace": [["0", "1"]]}}))
    assert cons.shape() == ("S",)
    with pytest.raises(UsageError):
        parse_constraints(ring, '{"bogus": {"principal": "0"}}')


def test_compute_moore_penrose_golden(capsys):
    code, out, _ = run_cli(capsys, "compute", "--ring", "m2q",
                           "--element", '[["2","-2"],["0","0"]]',
                           "--inverse", "moore-penrose")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["exists"] and doc["value"] == [["1/4", "0"], ["-1/4", "0"]]
    assert out.endswith("\n") and "\n" not in out[:-1]


def test_compute_nonexistent_returns_exit_one(capsys):
    code, out, _ = run_cli(capsys, "compute", "--ring", "m2q",
                           "--element", '[["0","1"],["0","0"]]',
                           "--inverse", "group")
    assert code == EXIT_NONE
    doc = json.loads(out)
    assert not doc["exists"] and "index" in doc["reason"]


def test_compute_weighted_and_pq(capsys):
    code, out, _ = run_cli(capsys, "compute", "--ring", "m2q",
                           "--element", '[["2","-2"],["0","0"]]',
                           "--inverse", "ef-mp")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == [["1/4", "0"], ["-1/4", "0"]]
    code, out, _ = run_cli(capsys, "compute", "--ring", "m2q",
                           "--element", '[["2","-2"],["0","0"]]',
                           "--inverse", "bott-duffin",
                           "--p", '[["1","-1"],["0","0"]]')
    assert code == EXIT_OK
    assert json.loads(out)["value"] == [["1/2", "-1/2"], ["0", "0"]]


_A = '[["2","-2"],["0","0"]]'
_P = '[["1","-1"],["0","0"]]'
_Q = '[["0","0"],["0","1"]]'


@pytest.mark.parametrize("ring, element, inverse, flags, compute", [
    ("m2q", _A, "f-dual-core", {"f": '[["2","0"],["0","1"]]'},
     lambda a, f: special.f_dual_core(a, f)),
    ("m2q", _A, "v-dual-core", {"v": '[["1","0"],["0","3"]]'},
     lambda a, v: special.v_dual_core(a, v)),
    ("m2q", _A, "right-w-core", {"w": '[["1","0"],["0","3"]]'},
     lambda a, w: special.right_w_core(a, w)),
    ("m2q", '[["1","0"],["0","1"]]', "right-w-core",
     {"w": '[["0","0"],["0","0"]]'},
     lambda a, w: special.right_w_core(a, w)),
    ("m2f3", '[["1","1"],["0","0"]]', "right-w-core",
     {"w": '[["1","0"],["0","2"]]'}, lambda a, w: special.right_w_core(a, w)),
    ("m2f2", '[["1","1"],["0","0"]]', "left-v-dual-core", {},
     lambda a: special.left_v_dual_core(a, a.ring.one)),
    ("m2q", _A, "pq", {"p": _P, "q": _Q},
     lambda a, p, q: special.pq_inverse(a, p, q)),
    ("m2q", _A, "pq", {"p": _P, "q": _Q, "flavor": "djordjevic_wei"},
     lambda a, p, q: special.pq_inverse(a, p, q, "djordjevic_wei")),
    ("m2q", _A, "pq", {"p": _P, "q": _Q, "flavor": "bott_duffin"},
     lambda a, p, q: special.pq_inverse(a, p, q, "bott_duffin")),
])
def test_compute_special_inverses_print_the_library_report(
        capsys, ring, element, inverse, flags, compute):
    argv = [arg for flag, text in flags.items()
            for arg in ("--" + flag, text)]
    code, out, err = run_cli(capsys, "compute", "--ring", ring, "--element",
                             element, "--inverse", inverse, *argv)
    r = ring_from_name(ring)
    rep = compute(parse_element(r, element),
                  *[parse_element(r, text) for flag, text in flags.items()
                    if flag != "flavor"])
    assert out == json.dumps(dict(rep.to_json(), ring=r.short_name),
                             sort_keys=True) + "\n"
    assert code == (EXIT_OK if rep.exists else EXIT_NONE) and err == ""


def test_enumerate_inner_inverses(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ring", "zn:6",
                           "--element", "2", "--equations", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 2 and doc["members"] == ["2", "5"]
    code, out, _ = run_cli(capsys, "enumerate", "--ring", "zn:6",
                           "--element", "2", "--equations", "1",
                           "--count-only")
    assert "members" not in json.loads(out)


def test_enumerate_with_a_huge_k_is_quick(capsys):
    # a^k of an idempotent is a for every k >= 1
    argv = ("enumerate", "--ring", "m2f2", "--element",
            '[["1","1"],["0","0"]]', "--equations", "1k", "--k")
    start = time.monotonic()
    huge = run_cli(capsys, *argv, "1000000000000000000")
    assert time.monotonic() - start < 1.0
    assert huge == run_cli(capsys, *argv, "1")
    assert huge[0] == EXIT_OK and json.loads(huge[1])["count"] == 4


def test_enumerate_named_system(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ring", "m2f2",
                           "--element", '[["1","1"],["0","0"]]',
                           "--equations", "moore-penrose")
    assert code == EXIT_OK
    assert json.loads(out)["count"] == 0


def test_enumerate_raises_a_token_error_only_when_it_is_reached(capsys):
    # 2 has no inner inverse mod 8, so (3) is never reached; 3 has one
    argv = ("enumerate", "--ring", "zn:8", "--equations", "1,3")
    code, out, _ = run_cli(capsys, *argv, "--element", "2")
    assert code == EXIT_OK and json.loads(out)["count"] == 0
    code, out, _ = run_cli(capsys, *argv, "--element", "2", "--count-only")
    assert code == EXIT_OK and json.loads(out)["count"] == 0
    code, _, err = run_cli(capsys, *argv, "--element", "3")
    assert code == EXIT_INVOLUTION and "involution" in err


BIG_N = 936002814552019656


def test_large_modulus_requests_need_no_enumeration(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("scanned the elements of %s" % self.short_name)
    monkeypatch.setattr(ModularRing, "elements", refuse)
    ring = "zn:%d" % BIG_N
    code, out, _ = run_cli(capsys, "enumerate", "--ring", ring,
                           "--element", "0", "--equations", "1",
                           "--count-only")
    assert code == EXIT_OK and json.loads(out)["count"] == BIG_N
    code, out, _ = run_cli(capsys, "prescribe", "--ring", ring,
                           "--element", "13", "--constraints",
                           '{"right_principal": {"principal": "13"}}',
                           "--mode", "one")
    doc = json.loads(out)
    assert code == EXIT_OK and doc["count"] == len(doc["members"]) == 13


def test_large_modulus_outer_inverses_come_from_its_factorization(
        capsys, monkeypatch):
    # a{2} is one outer inverse per pair of the 96 divisor ideals
    def refuse(self):
        raise AssertionError("scanned the elements of %s" % self.short_name)
    monkeypatch.setattr(ModularRing, "elements", refuse)
    argv = ("enumerate", "--ring", "zn:%d" % BIG_N, "--element", "5",
            "--equations", "2")
    start = time.monotonic()
    code, out, _ = run_cli(capsys, *argv, "--count-only")
    assert time.monotonic() - start < 5.0
    assert code == EXIT_OK and json.loads(out)["count"] == 32
    code, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == EXIT_OK and doc["count"] == len(doc["members"]) == 32
    ring, a = Zn(BIG_N), Zn(BIG_N).element(5)
    assert all(satisfies(a, ring.parse(x), ("2",)) for x in doc["members"])


def test_modulus_past_the_exact_factoring_bound_exits_3(capsys):
    n = 10 ** 40 + 1    # 17 times a cofactor of 39 digits
    code, out, err = run_cli(capsys, "enumerate", "--ring", "zn:%d" % n,
                             "--element", "5", "--equations", "2")
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("error: cannot factor") and err.count("\n") == 1


def test_a_19_digit_prime_field_answers_at_once(capsys):
    p = 10 ** 18 + 3
    start = time.monotonic()
    code, out, err = run_cli(capsys, "compute", "--ring", "m2f%d" % p,
                             "--element", '[["1","2"],["2","4"]]',
                             "--inverse", "moore-penrose")
    assert time.monotonic() - start < 0.5
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["ring"] == "m2f%d" % p


def test_a_huge_matrix_ring_refuses_a_bad_element_before_building_it(
        capsys):
    # the ring's zero and identity are built on first use: at k = 2000
    # they took 62 MB and 0.9 s before the element was read
    tracemalloc.start()
    try:
        ring = parse_ring("m2000q")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring.k == 2000 and peak < 10 ** 6
    start = time.monotonic()
    code, out, err = run_cli(capsys, "compute", "--ring", "m2000q",
                             "--element", "[[0]]", "--inverse", "inner")
    assert time.monotonic() - start < 0.5
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: bad element") and err.count("\n") == 1


# 561 is a Carmichael number, 3215031751 the least strong pseudoprime to
# the bases 2, 3, 5 and 7, and 3825123056546413051 to the bases 2 to 23
@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_composite_field_orders_are_usage_errors(capsys, n):
    for spec in ("m2f%d" % n, '{"kind": "matrix", "size": 2, "scalars": '
                 '{"kind": "fp", "p": %d}}' % n):
        code, out, err = run_cli(capsys, "compute", "--ring", spec,
                                 "--element", '[["1","0"],["0","0"]]',
                                 "--inverse", "inner")
        assert code == EXIT_USAGE and out == ""
        assert err.endswith("field order must be prime, got %d\n" % n)


# _MR_EXACT is itself a strong pseudoprime to all 13 bases, and the
# second order is the least prime above it
@pytest.mark.parametrize("p", [_MR_EXACT, _MR_EXACT + 142])
def test_field_order_past_the_exact_primality_bound_exits_3(capsys, p):
    code, out, err = run_cli(capsys, "compute", "--ring", "m2f%d" % p,
                             "--element", '[["1","0"],["0","0"]]',
                             "--inverse", "inner")
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("error: cannot test primality") \
        and err.count("\n") == 1


def test_field_order_past_the_bound_with_a_small_factor_is_refused(capsys):
    # trial division by the bases still settles it exactly
    code, _, err = run_cli(capsys, "compute", "--ring",
                           "m2f%d" % (7 * _MR_EXACT), "--element",
                           '[["1","0"],["0","0"]]', "--inverse", "inner")
    assert code == EXIT_USAGE and err.startswith("error: field order")


# -- enumerate writes its members one at a time --------------------------

RANK_ONE_M3F3 = '[["1","0","0"],["0","0","0"],["0","0","0"]]'


@pytest.mark.parametrize("ring, element, equations", [
    ("zn:12", "2", "2"),
    ("zn:8", "2", "1"),
    ("zn:8", "2", "1,2"),    # empty
    ("m2f2", '[["1","1"],["0","0"]]', "1,2"),
    ("m2f2", '[["1","1"],["0","0"]]', "moore-penrose"),
    ("m2f3", '[["1","2"],["0","0"]]', "2,5"),
    ("m3f2", '[["1","1","0"],["0","0","1"],["0","0","0"]]', "1,7"),
])
def test_streamed_members_are_the_whole_document(capsys, ring, element,
                                                 equations):
    code, out, _ = run_cli(capsys, "enumerate", "--ring", ring,
                           "--element", element, "--equations", equations)
    r = ring_from_name(ring)
    members = enumerate_inverse_set(parse_element(r, element),
                                    parse_equations(equations))
    assert code == EXIT_OK
    assert out == json.dumps({
        "count": len(members), "element": json.loads(element)
        if element.startswith("[") else element,
        "equations": list(parse_equations(equations)),
        "members": [r.to_json(x) for x in members],
        "ring": ring}, sort_keys=True) + "\n"


class _Digest:
    """A stdout that keeps only the sha256 of what it is given."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


def test_large_listing_holds_no_copy_of_the_set(monkeypatch):
    # the 6,561 members of a rank-1 a{1} in M3(F3) peaked at 11 MB when
    # they were held as elements, JSON lists and one string at once
    argv = ["enumerate", "--ring", "m3f3", "--element", RANK_ONE_M3F3,
            "--equations", "1"]
    ring = MatF(3, 3)
    members = enumerate_inverse_set(parse_element(ring, RANK_ONE_M3F3), ("1",))
    assert len(members) == 3 ** 8
    want = hashlib.sha256((json.dumps({
        "count": len(members), "element": json.loads(RANK_ONE_M3F3),
        "equations": ["1"], "members": [ring.to_json(x) for x in members],
        "ring": "m3f3"}, sort_keys=True) + "\n").encode()).hexdigest()
    del members
    out = _Digest()
    monkeypatch.setattr("sys.stdout", out)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.sha.hexdigest() == want
    assert peak < 2 * 10 ** 6


E11_M4F2 = [["1", "0", "0", "0"]] + [["0"] * 4] * 3


def test_prescribed_family_holds_no_copy_of_the_set(monkeypatch):
    # the 4,096 members of this family peaked at 10.5 MB when they were
    # held as elements, JSON lists and one string at once
    cons = {"right_annihilator": {"annihilator": E11_M4F2}}
    argv = ["prescribe", "--ring", "m4f2", "--element", json.dumps(E11_M4F2),
            "--constraints", json.dumps(cons), "--mode", "one"]
    ring = MatF(4, 2)
    a = parse_element(ring, json.dumps(E11_M4F2))
    fam = one_inverse_family(a, parse_constraints(ring, json.dumps(cons)))
    members = fam.members()
    assert len(members) == 2 ** 12
    want = hashlib.sha256((json.dumps({
        "base": ring.to_json(fam.base), "count": len(members),
        "element": E11_M4F2, "exists": True,
        "left_mult": ring.to_json(fam.left_mult),
        "members": [ring.to_json(x) for x in members], "mode": "one",
        "right_mult": ring.to_json(fam.right_mult), "ring": "m4f2",
        "shape": ["T"]}, sort_keys=True) + "\n").encode()).hexdigest()
    del members, fam
    out = _Digest()
    monkeypatch.setattr("sys.stdout", out)
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.sha.hexdigest() == want
    assert peak < 2 * 10 ** 6


def test_involution_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--ring", "zn:6",
                           "--element", "2", "--equations", "1,2,3,4")
    assert code == EXIT_INVOLUTION and "involution" in err


def test_not_enumerable_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--ring", "m2q",
                           "--element", '[["1","0"],["0","0"]]',
                           "--equations", "1")
    assert code == EXIT_NOT_ENUMERABLE


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "compute", "--ring", "zn:6",
                           "--element", "2", "--inverse", "nope")
    assert code == EXIT_USAGE and "unknown inverse" in err
    code, _, _ = run_cli(capsys, "compute", "--ring", "nosuch",
                         "--element", "2", "--inverse", "group")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("compute", "--ring", '{"kind": "matrix", "size": 2, '
     '"scalars": {"kind": "fp", "p": 4}}', "--element", "1",
     "--inverse", "group"),
    ("compute", "--ring", '{"kind": "zn", "n": 1}', "--element", "0",
     "--inverse", "group"),
    ("compute", "--ring", '{"kind": "zn"}', "--element", "0",
     "--inverse", "group"),
    ("compute", "--ring", '{"kind": "matrix", "scalars": {"kind": "q"}}',
     "--element", "0", "--inverse", "group"),
    ("compute", "--ring", '{"kind": "matrix", "size": 2, '
     '"scalars": {"kind": "fp"}}', "--element", "0", "--inverse", "group"),
    # a number that is not an integer is refused, not truncated
    ("compute", "--ring", '{"kind": "zn", "n": 6.9}', "--element", "0",
     "--inverse", "group"),
    ("compute", "--ring", '{"kind": "matrix", "size": 2.7, '
     '"scalars": {"kind": "fp", "p": 2.5}}',
     "--element", '[["0", "0"], ["0", "0"]]', "--inverse", "group"),
    ("compute", "--ring", '{"kind": "matrix", "size": 2, '
     '"scalars": {"kind": "fp", "p": 2.5}}',
     "--element", '[["0", "0"], ["0", "0"]]', "--inverse", "group"),
    ("compute", "--ring", '{"kind": "matrix", "size": true, '
     '"scalars": {"kind": "fp", "p": 2}}', "--element", '[["0"]]',
     "--inverse", "group"),
    ("compute", "--ring", '{"kind": "zn", "n": 1e3}', "--element", "0",
     "--inverse", "group"),
    ("--job", "/nonexistent/job.json"),
])
def test_bad_ring_spec_or_job_file_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("ring, desc", [
    ("zn:6", {"principal": "abc"}),
    ("zn:6", {"annihilator": "abc"}),
    ("m2f2", {"principal": [["1"]]}),
    ("zn:6", {"set": ["x"]}),
    ("zn:6", {"set": 5}),
    # a span that is not a list of vectors of length k, or whose entries
    # are no scalars
    ("m2f2", {"colspace": 5}),
    ("m2f2", {"rowspace": [5]}),
    ("m2f2", {"span": [["x", "0"]]}),
    ("m2f2", {"colspace": [["1"]]}),
    ("m2f2", {"colspace": [["1", "0", "1"]]}),
    ("m2q", {"colspace": [["1/0", "0"]]}),
    # a descriptor that is no one-key object, names no kind of ideal, or
    # asks for a kind the ring cannot give
    ("zn:6", "1"),
    ("zn:6", {"principal": "1", "annihilator": "1"}),
    ("zn:6", {"bogus": "1"}),
    ("m2q", {"set": [[["0", "0"], ["0", "0"]]]}),
    ("zn:6", {"colspace": [["1"]]}),
])
def test_bad_constraint_element_is_a_usage_error(capsys, ring, desc):
    code, out, err = run_cli(capsys, "prescribe", "--ring", ring,
                             "--element", "0" if ring == "zn:6"
                             else '[["0","0"],["0","0"]]',
                             "--constraints",
                             json.dumps({"right_principal": desc}),
                             "--mode", "one")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("constraints", [
    "{", "[1]", "{}", '{"bogus": {"principal": "0"}}',
])
def test_bad_constraints_are_a_usage_error(capsys, constraints):
    code, out, err = run_cli(capsys, "prescribe", "--ring", "zn:6",
                             "--element", "2", "--constraints", constraints,
                             "--mode", "one")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("ring, element", [
    ("zn:6", "1.5"), ("zn:6", "true"), ("zn:6", "1e3"),
    ("m2f2", '[[1.5, 0], [0, 0]]'), ("m2f2", '[[true, 0], [0, 0]]'),
    ("m2f2", '[["1e3", "0"], ["0", "0"]]'),
])
def test_non_integer_scalar_is_a_usage_error(capsys, ring, element):
    code, out, err = run_cli(capsys, "compute", "--ring", ring,
                             "--element", element, "--inverse", "group")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("element, specs", [
    ("2", ("zn:6", '{"kind": "zn", "n": 6}', '{"kind": "zn", "n": "6"}')),
    ('[["1", "1"], ["0", "0"]]',
     ("m2f2", '{"kind": "matrix", "size": 2, "scalars": {"kind": "fp", '
      '"p": 2}}', '{"kind": "matrix", "size": "2", "scalars": '
      '{"kind": "fp", "p": "2"}}')),
])
def test_integer_ring_spec_spellings_agree(capsys, element, specs):
    outs = {run_cli(capsys, "compute", "--ring", spec, "--element", element,
                    "--inverse", "group")
            for spec in specs}
    assert len(outs) == 1
    code, _, err = outs.pop()
    assert code == EXIT_OK and err == ""


def test_integer_residue_spellings_agree(capsys):
    outs = {run_cli(capsys, "compute", "--ring", "zn:6", "--element",
                    element, "--inverse", "group")
            for element in ("5", '"5"', "-1", "11", '"-7"')}
    assert len(outs) == 1
    code, out, err = outs.pop()
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["value"] == "5"


def test_prescribe_modes(capsys):
    cons = json.dumps(
        {"right_principal": {"colspace": [["0", "1"]]},
         "right_annihilator": {"colspace": [["0", "1"]]}})
    code, out, _ = run_cli(capsys, "prescribe", "--ring", "m2f5",
                           "--element", '[["0","1"],["0","0"]]',
                           "--constraints", cons, "--mode", "outer")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == [["0", "0"], ["1", "0"]]
    code, out, _ = run_cli(capsys, "prescribe", "--ring", "m2f5",
                           "--element", '[["0","1"],["0","0"]]',
                           "--constraints", cons, "--mode", "reflexive")
    assert json.loads(out)["value"] == [["0", "0"], ["1", "0"]]
    code, out, _ = run_cli(capsys, "prescribe", "--ring", "m2f5",
                           "--element", '[["0","1"],["0","0"]]',
                           "--constraints",
                           '{"right_principal": {"colspace": [["0","1"]]}}',
                           "--mode", "one")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 25 and "base" in doc


def test_prescribe_none(capsys):
    # rann(a) cannot be xaR for a {1}-inverse of a nonzero nilpotent
    cons = json.dumps({"right_principal": {"colspace": [["1", "0"]]},
                       "right_annihilator": {"colspace": [["1", "0"]]}})
    code, out, _ = run_cli(capsys, "prescribe", "--ring", "m2f5",
                           "--element", '[["0","1"],["0","0"]]',
                           "--constraints", cons, "--mode", "outer")
    assert code == EXIT_NONE
    assert not json.loads(out)["exists"]


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ring", "zn:6",
                           "--theorems", "T-invertible-lemma")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc[0]["passed"] and doc[0]["cases_checked"] == 6
    code, out, _ = run_cli(capsys, "verify", "--ring", "zn:6",
                           "--theorems", "T-1I-projectors",
                           "--max-cases", "5")
    assert code == EXIT_BUDGET
    assert not json.loads(out)[0]["complete"]
    code, _, _ = run_cli(capsys, "verify", "--ring", "zn:6",
                         "--theorems", "T-no-such")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "verify", "--ring", "m2q")
    assert code == EXIT_NOT_ENUMERABLE


def test_internal_error_exits_70(capsys, monkeypatch):
    def broken(a, e, f):
        raise VerificationError("constructed ef-mp inverse fails")

    monkeypatch.setattr(special, "weighted_mp", broken)
    code, out, err = run_cli(capsys, "compute", "--ring", "m2q",
                             "--element", '[["2","-2"],["0","0"]]',
                             "--inverse", "ef-mp")
    assert code == EXIT_INTERNAL == 70
    assert out == ""
    assert err.count("\n") == 1 and "ef-mp inverse fails" in err
    assert "Traceback" not in err


def test_job_spec_stdin(capsys, monkeypatch):
    code, out, _ = run_job(capsys, monkeypatch, {
        "command": "compute",
        "ring": "m2q",
        "element": [["2", "-2"], ["0", "0"]],
        "options": {"inverse": "core"},
    })
    assert code == EXIT_OK
    assert json.loads(out)["value"] == [["1/2", "0"], ["0", "0"]]
    code, _, err = run_job(capsys, monkeypatch, {"command": "nope"})
    assert code == EXIT_USAGE
    code, _, err = run_job(capsys, monkeypatch, {
        "command": "compute", "ring": "m2q",
        "element": [["1", "0"], ["0", "0"]],
        "options": {"inverse": "group", "bogus": 1}})
    assert code == EXIT_USAGE and "bogus" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--ring", "zn:6"),
    ("bogus",),
    ("verify", "--ring", "zn:6", "--max-cases", "x"),
    ("enumerate", "--ring", "zn:6", "--element", "2", "--equations", "1",
     "--count-only=no"),
    ("compute", "--ring", "zn:6", "--elem", "2", "--inverse", "group"),
    ("enumerate", "--ring", "zn:6", "--element", "2", "--equations", "1k",
     "--k", "-1"),
    ("verify", "--ring", "zn:6", "--max-cases", "-1"),
    ("verify", "--ring", "zn:6", "--max-seconds", "nan"),
    ("verify", "--ring", "zn:6", "--max-seconds", "-0.5"),
    ("compute", "--ring", "m2q", "--element", '[["1/0","0"],["0","0"]]',
     "--inverse", "group"),
    # an inverse whose defining elements are not all given
    ("compute", "--ring", "zn:6", "--element", "2", "--inverse", "bc",
     "--b", "1"),
    ("compute", "--ring", "zn:6", "--element", "2", "--inverse", "pq",
     "--p", "1"),
    ("compute", "--ring", "zn:6", "--element", "2", "--inverse",
     "bott-duffin", "--q", "1"),
])
def test_argv_error_is_one_usage_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("job", [
    {"command": "verify", "ring": "zn:6", "options": {"max_cases": 2.5}},
    {"command": "enumerate", "ring": "zn:6", "element": "2",
     "options": {"equations": "1", "count_only": "no"}},
    {"command": "compute", "ring": "zn:6", "element": "2", "options": "abc"},
    {"command": "compute", "ring": "zn:6", "element": "2", "options": [1]},
    {"command": ["compute"], "ring": "zn:6", "element": "2"},
    {"command": "compute", "ring": "zn:6", "element": "2",
     "options": {"inverse": True}},
    {"command": "compute", "ring": "zn:6", "element": "2",
     "options": {"inverse": "group", "help": True}},
    {"command": "compute", "ring": "zn:6", "element": "2",
     "options": {"inverse": "group", "max-cases": 2}},
    {"command": "compute", "element": "2", "options": {"inverse": "group"}},
])
def test_bad_job_is_one_usage_line(capsys, monkeypatch, job):
    code, out, err = run_job(capsys, monkeypatch, job)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_job_with_a_command_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(_VALID_JOB))
    code, out, err = run_cli(capsys, "--job", "-", "compute", "--ring", "m2q",
                             "--element", "1", "--inverse", "group")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("options, argv", [
    ({"theorems": "T-1I-projectors", "max_cases": "5"},
     ("--theorems", "T-1I-projectors", "--max-cases", "5")),
    ({"theorems": "T-1I-projectors", "max_cases": 5, "max_seconds": "60"},
     ("--theorems", "T-1I-projectors", "--max-cases", "5",
      "--max-seconds", "60")),
])
def test_job_options_parse_as_their_flags(capsys, monkeypatch, options,
                                          argv):
    job = run_job(capsys, monkeypatch, {"command": "verify", "ring": "zn:6",
                                        "options": options})
    assert job == run_cli(capsys, "verify", "--ring", "zn:6", *argv)
    assert job[0] == EXIT_BUDGET


def test_job_flags_and_json_values(capsys, monkeypatch):
    job = run_job(capsys, monkeypatch, {
        "command": "enumerate", "ring": {"kind": "zn", "n": 6},
        "element": 2, "options": {"equations": 1, "count_only": True,
                                  "k": None}})
    assert job == run_cli(capsys, "enumerate", "--ring", "zn:6",
                          "--element", "2", "--equations", "1",
                          "--count-only")
    assert job[0] == EXIT_OK


# -- fuzz: no input ends in a traceback -----------------------------------
#
# derandomized, so that every run of the suite draws the same inputs

_DOCUMENTED_EXITS = {EXIT_OK, EXIT_NONE, EXIT_COUNTEREXAMPLE, EXIT_BUDGET,
                     EXIT_USAGE, EXIT_INVOLUTION, EXIT_NOT_ENUMERABLE}
# only zn:6, m2q and malformed rings, so that every run is quick
_RINGS = ["zn:6", "m2q", '{"kind": "zn", "n": 6}',
          '{"kind": "matrix", "size": 2, "scalars": {"kind": "q"}}',
          "zn:1", "zn:x", "m2c", "", "{", '{"kind": "zn"}',
          '{"kind": "zn", "n": 0}', '{"kind": "matrix", "size": 2, '
          '"scalars": {"kind": "fp", "p": 4}}']
_ELEMENTS = ["2", "-1", "0", "3", "1.5", "abc", "[[1]]", '["1"]',
             '[["1","0"],["0","0"]]', '[["2","-2"],["0","0"]]',
             '[["1/0","0"],["0","0"]]']
_POOLS = {
    # the valid rings twice, so that a request gets past them more often
    "--ring": _RINGS[:4] + _RINGS,
    "--inverse": ["moore-penrose", "group", "core", "drazin", "bc", "pq",
                  "bott-duffin", "ef-mp", "e-core", "w-core",
                  "right-w-core", "nope"],
    "--equations": ["1", "1,2", "1,2,3,4", "6,7", "moore-penrose", "9x"],
    "--k": ["2", "0", "x", "-1"],
    "--constraints": ['{"right_principal": {"principal": "2"}}',
                      '{"left_annihilator": {"set": ["3"]}}',
                      '{"right_principal": {"colspace": [["0","1"]]}}',
                      '{"right_principal": {"colspace": 5}}',
                      '{"left_principal": {"rowspace": [5]}}',
                      '{"right_principal": {"span": [["x","0"]]}}',
                      '{"right_principal": {"colspace": [["1"]]}}',
                      '{"right_principal": {"colspace": [["1","0","1"]]}}',
                      '{"x": 1}', "{}", "[]"],
    "--mode": ["one", "outer", "reflexive", "bad"],
    "--theorems": ["T-invertible-lemma", "L-orthogonal-range", "all",
                   "T-no-such", ","],
    "--max-cases": ["3", "0", "-1", "x"],
    "--max-seconds": ["1", "0", "x", "nan", "-1"],
    "--flavor": ["full", "right_hybrid", "annihilator", "image_kernel",
                 "djordjevic_wei", "bott_duffin", "nope"],
    "--job": ["-", "/nonexistent"],
}
_VALUES = sorted({v for pool in _POOLS.values() for v in pool}
                 | set(_ELEMENTS))
_COMMAND_FLAGS = {
    "compute": ("--ring", "--element", "--inverse", "--e", "--f", "--w",
                "--v", "--b", "--c", "--p", "--q", "--flavor"),
    "enumerate": ("--ring", "--element", "--equations", "--k",
                  "--count-only"),
    "prescribe": ("--ring", "--element", "--constraints", "--mode"),
    "verify": ("--ring", "--theorems", "--max-cases", "--max-seconds"),
}
_FLAGS = sorted({f for flags in _COMMAND_FLAGS.values() for f in flags}
                | {"--job", "--bogus"})
# no letters, so no random token names a (large) ring or asks for help
_noise = st.text(alphabet='x0123-,:="[]{} \n', max_size=6)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 7) | st.floats(-2, 2)
    | st.sampled_from(_VALUES) | _noise,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "n", "size", "x"]), inner,
                      max_size=3),
    max_leaves=6)
_mostly = st.sampled_from((True, True, True, False))


@st.composite
def _requests(draw):
    """A command and a value for each of its flags that is present; the
    values are drawn from valid and malformed ones."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = {}
    for flag in _COMMAND_FLAGS[command]:
        if draw(_mostly):
            flags[flag] = draw(st.sampled_from(_POOLS.get(flag, _ELEMENTS))
                               if draw(_mostly) else _noise)
    return command, flags


def _run_main(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err):
    assert code in _DOCUMENTED_EXITS, (code, err)
    assert "Traceback" not in err
    if out:
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
    if code == EXIT_USAGE:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _request_argv(command, flags):
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if flag == "--count-only" else [flag, value]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_requests(), st.data())
def test_fuzz_argv(request, data):
    argv = _request_argv(*request)
    if not data.draw(_mostly):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(
            st.sampled_from(_FLAGS + _VALUES + ["bogus"]) | _noise))
    _assert_clean_exit(*_run_main(argv))


_job_keys = [f[2:] for f in _FLAGS] + ["help", "command", "max-cases",
                                       "x y"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_requests(), st.data())
def test_fuzz_job(request, data):
    command, flags = request
    options = {f[2:].replace("-", "_"): v for f, v in flags.items()}
    if not data.draw(_mostly):
        options[data.draw(st.sampled_from(_job_keys))] = data.draw(_json)
    job = {"command": command, "options": options}
    for key in ("ring", "element"):
        if key in options:
            job[key] = options.pop(key)
    if not data.draw(_mostly):
        # one key of the job holds a value of any JSON type
        job[data.draw(st.sampled_from(sorted(job)))] = data.draw(_json)
    text = json.dumps(job) if data.draw(_mostly) else data.draw(_noise)
    argv = ["--job", "-"]
    if not data.draw(_mostly):
        # a command next to --job is a usage error, even with a valid job
        argv += _request_argv(*data.draw(_requests()))
        text = _VALID_JOB
    code, out, err = _run_main(argv, text)
    _assert_clean_exit(code, out, err)
    assert code == EXIT_USAGE or len(argv) == 2


def test_byte_identical_output(capsys):
    argv = ("enumerate", "--ring", "m2f2",
            "--element", '[["1","1"],["0","0"]]', "--equations", "1,2")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    argv = ("verify", "--ring", "zn:6", "--theorems",
            "T-1I-projectors,T-mitsch-extremes")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


_ORACLE_ON_DEMAND = """
import sys
import ringinv.cli
assert "ringinv.oracle" not in sys.modules
assert ringinv.cli.main(["compute", "--ring", "m2f2", "--element",
                         '[["1","1"],["0","0"]]', "--inverse", "core"]) == 0
assert "ringinv.oracle" not in sys.modules
from ringinv import CATALOG, verify
assert "ringinv.oracle" in sys.modules
print(len(CATALOG), verify("T-invertible-lemma", ringinv.Zn(6)).passed)
"""


def test_compute_never_loads_the_oracle():
    src = str(Path(ringinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _ORACLE_ON_DEMAND],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "32 True"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        ringinv.nope
