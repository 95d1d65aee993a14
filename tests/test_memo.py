"""The per-ring memo of principal, annihilator, any_inner and the ideal
lattice (<=, +, cap and direct_sum): each memoized answer equals a fresh
construction, infinite rings keep no memo, and the memo dies with its
ring.  Only the oracle gives a finite ring an element table, which stores
sums, products, negatives, stars and the element memos by index, and its
context: one per ring object, shared by every verify call on it."""

import gc
import io
import json
import sys
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from ringinv import cli, oracle, prescribed, rings, special
from ringinv.errors import (NotEnumerableError, PreconditionError,
                            RingInvError, RingMismatchError,
                            UnsupportedInvolutionError, VerificationError)
from ringinv.geninv import (EQUATION_TOKENS, InverseReport, any_inner,
                            enumerate_inverse_set, satisfies)
from ringinv.ideals import (LEFT, RIGHT, SidedIdeal, all_ideals, annihilator,
                            direct_sum, principal)
from ringinv.linalg import mat_mul
from ringinv.rings import MatF, MatQ, Zn, ring_from_name


def _memo_answers_equal_fresh_constructions(ring):
    # the elements of a fresh listing carry no index, so on an indexed ring
    # each is found by its payload
    for a in ring.elements():
        for fn in (principal, annihilator):
            for side in (RIGHT, LEFT):
                first = fn(a, side)
                assert fn(a, side) is first
                assert first == fn.__wrapped__(a, side)
                assert first.side == side
        inner = any_inner(a)
        assert any_inner(a) is inner
        assert inner == any_inner.__wrapped__(a)


@pytest.mark.parametrize("name", ["zn:12", "m2f2", "m2f3"])
def test_memoized_equals_fresh_construction(name):
    # without a table: one ring.memo dict per function, keyed by payload
    ring = ring_from_name(name)
    _memo_answers_equal_fresh_constructions(ring)
    assert ring.table is None
    assert set(ring.memo) == {"principal", "annihilator", "any_inner"}
    assert len(ring.memo["principal"]) == 2 * ring.size
    # with one: a full row per function and side, and no memo dict
    ring = ring_from_name(name)
    table = oracle._Context.of(ring).table
    _memo_answers_equal_fresh_constructions(ring)
    assert ring.table is table and set(ring.memo) == {"context"}
    assert {name: set(rows) for name, rows in table.rows.items()} == {
        "principal": {RIGHT, LEFT}, "annihilator": {RIGHT, LEFT},
        "any_inner": {None}}
    for rows in table.rows.values():
        for row in rows.values():
            assert len(row) == ring.size
            assert all(out is not rings._UNSET for out in row)
    assert all(x is None or table.elements[x.index] is x
               for x in table.rows["any_inner"][None])


@pytest.mark.parametrize("side", [RIGHT, LEFT])
def test_memoized_direct_sum_equals_fresh_construction(side):
    ring = MatF(2, 2)
    lattice = all_ideals(ring, side)
    for s, t in product(lattice, repeat=2):
        u = direct_sum(s, t)
        fresh = direct_sum.__wrapped__(s, t)
        assert direct_sum(s, t) is u
        assert u == fresh
        if u is not None:
            # u carries the projector onto s along t
            for r in ring.elements():
                x = u * r if side == RIGHT else r * u
                assert s.contains(x) and t.contains(r - x)
    assert len(ring.memo["direct_sum"]) == len(lattice) ** 2


# -- the ideal lattice: <=, +, cap and direct_sum once per pair of keys

_LATTICE = ("is_subideal_of", "sum", "intersect", "direct_sum")


def _lattice_answers(s, t):
    return (s.is_subideal_of(t), s.sum(t), s.intersect(t), s == t,
            direct_sum(s, t))


@pytest.mark.parametrize("name", ["zn:12", "m2f2", "m2f3"])
def test_memoized_lattice_equals_a_cold_computation(name):
    ring = ring_from_name(name)
    for side in (RIGHT, LEFT):
        lattice = all_ideals(ring, side)
        warm = {(s.key, t.key): _lattice_answers(s, t)
                for s, t in product(lattice, repeat=2)}
        for s, t in product(lattice, repeat=2):
            again = _lattice_answers(s, t)
            assert all(x is y for x, y in zip(again, warm[s.key, t.key])
                       if not isinstance(x, bool))
        for s, t in product(all_ideals(ring_from_name(name), side),
                            repeat=2):
            leq, total, meet, equal, unit = warm[s.key, t.key]
            assert leq == SidedIdeal.is_subideal_of.__wrapped__(s, t)
            assert equal == (leq and t.is_subideal_of(s))
            for got, op in ((total, SidedIdeal.sum),
                            (meet, SidedIdeal.intersect)):
                cold = op.__wrapped__(s, t)
                assert got == cold and got.key == cold.key
                assert got.ring is ring and got.side == side
            assert unit == direct_sum.__wrapped__(s, t)
    for table in _LATTICE:
        for side in (RIGHT, LEFT):
            assert sum(s[0] == side for s, _ in ring.memo[table]) == \
                len(all_ideals(ring, side)) ** 2


def test_a_warm_memo_still_refuses_another_ring_or_side():
    z6, z8 = Zn(6), Zn(8)
    s, t = principal(z6.element(2), RIGHT), principal(z8.element(2), RIGHT)
    assert s.key == t.key
    _lattice_answers(s, s)
    assert all((s.key, s.key) in z6.memo[table] for table in _LATTICE)
    assert s != t
    for op in (SidedIdeal.is_subideal_of, SidedIdeal.sum,
               SidedIdeal.intersect, direct_sum):
        with pytest.raises(RingMismatchError):
            op(s, t)
        with pytest.raises(RingMismatchError):
            op(t, s)
        with pytest.raises(PreconditionError):
            op(s, principal(z6.element(2), LEFT))
    # an equal ring shares the answers, with the caller's ring in them
    other = principal(Zn(6).element(3), RIGHT)
    assert s.sum(other).ring is z6 and other.sum(s).ring is other.ring
    q = MatQ(2)
    a = q.element([[1, 0], [0, 0]])
    with pytest.raises(PreconditionError):
        principal(a, RIGHT).is_subideal_of(principal(a, LEFT))
    assert q.memo is None


def test_catalog_pass_keeps_each_lattice_table_within_its_pairs():
    # on the oracle's ring the lattice lives in the table, one store per
    # function by pair of ideal indices, and none in ring.memo
    ring = MatF(2, 2)
    assert all(rep.passed for rep in oracle.verify_all(ring))
    table = ring.table
    assert set(ring.memo) == {"context"}
    assert {"is_subideal_of", "intersect", "direct_sum"} <= \
        set(table.ideal_pairs) <= set(_LATTICE)
    interned = table.interned_ideals
    m = len(interned)
    assert m == 2 * 5
    for name, store in table.ideal_pairs.items():
        assert len(store) == m * m
        pairs = [divmod(k, m) for k, out in enumerate(store)
                 if out is not rings._UNSET]
        for side in (RIGHT, LEFT):
            stored = [(i, j) for i, j in pairs if interned[i].side == side]
            assert 0 < len(stored) <= len(all_ideals(ring, side)) ** 2 == 25
            assert all(interned[j].side == side for _, j in stored)


@pytest.fixture
def made(monkeypatch):
    """The rings that cli.main builds, in call order; stdout is dropped."""
    rings_made = []

    def recording(spec):
        rings_made.append(cli.ring_from_name(spec))
        return rings_made[-1]

    monkeypatch.setattr(cli, "parse_ring", recording)
    monkeypatch.setattr("sys.stdout", io.StringIO())
    return rings_made


def test_infinite_ring_keeps_no_memo(made):
    a = json.dumps([["1", "2", "0"], ["0", "0", "0"], ["0", "0", "3"]])
    for inverse in ("moore-penrose", "group", "drazin", "core", "dual-core",
                    "inner", "reflexive", "ef-mp", "e-core", "w-core"):
        cli.main(["compute", "--ring", "m3q", "--element", a,
                  "--inverse", inverse])
    cli.main(["compute", "--ring", "m3q", "--element", a, "--inverse", "bc",
              "--b", a, "--c", a])
    cons = json.dumps({"right_principal": {"principal": a},
                       "right_annihilator": {"annihilator": a}})
    for mode in ("one", "outer", "reflexive"):
        assert cli.main(["prescribe", "--ring", "m3q", "--element", a,
                         "--constraints", cons, "--mode", mode]) == 0
    assert len(made) == 14
    for ring in made:
        assert ring.memo is None and "memo" not in vars(ring)


def test_memo_dies_with_its_ring():
    ring = MatF(2, 2)
    ref = weakref.ref(ring)
    for tid in ("T-1I-projectors", "T-bc-inverses", "O-named-inverses",
                "L-projector-algebra"):
        assert oracle.verify(tid, ring, max_cases=30).counterexample is None
    table = ring.table
    assert {"principal", "annihilator", "any_inner"} <= set(table.rows)
    assert {"is_subideal_of", "direct_sum"} <= set(table.ideal_pairs)
    interned = [i for i in table.interned_ideals if i is not None]
    assert interned and set(ring.memo) == {"context"}
    # the table and each interned ideal hold the ring, so none of them
    # outlives it: the ring, its table and its ideals go together
    assert table.ring is ring and all(i.ring is ring for i in interned)
    del ring, table, interned
    gc.collect()
    assert ref() is None


class _SideBlind(rings._Rows):
    """The rows of a function with one list for both sides: the first side
    asked of an element answers for the other."""

    __slots__ = ()

    def __getitem__(self, side):
        return super().__getitem__(None)


@pytest.mark.parametrize("name", ["principal", "annihilator"])
def test_memo_key_without_side_is_a_counterexample(monkeypatch, name):
    # the mutant drops the side from the per-index rows of one function,
    # in every table built from here on (the CLI's ring included)
    real = rings.ElementTable.__init__

    def side_blind(self, ring, elements):
        real(self, ring, elements)
        self.rows[name] = _SideBlind(self.size)

    monkeypatch.setattr(rings.ElementTable, "__init__", side_blind)
    rep = oracle.verify("L-regular-ideal-inclusions", MatF(2, 2))
    assert rep.counterexample == "a=[0 0; 0 1],b=[0 0; 1 0]"
    # the ideals of the wrong side make other entries raise library
    # errors besides a clause's own VerificationError; each of those fails
    # the case that raised it, under its own label, and the whole catalog
    # still reports and exits 2
    calls, raised = {}, {}
    for entry in oracle.CATALOG:
        def recording(ctx, *args, theorem=entry.id, clause=entry.clause):
            calls[theorem] = calls.get(theorem, 0) + 1
            try:
                return clause(ctx, *args)
            except VerificationError:
                raise
            except RingInvError as exc:
                raised[theorem] = calls[theorem], type(exc).__name__
                raise
        monkeypatch.setattr(entry, "clause", recording)
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    assert cli.main(["verify", "--ring", "m2f2", "--max-cases", "400"]) == 2
    reports = json.loads(out.getvalue())
    assert [r["theorem"] for r in reports] == [c.id for c in oracle.CATALOG]
    assert raised
    by_id = {r["theorem"]: r for r in reports}
    for theorem, (number, error) in raised.items():
        r = by_id[theorem]
        assert " raised " not in r["counterexample"]
        assert number == r["cases_checked"] and not r["passed"]
        assert error in ("PreconditionError", "RingMismatchError")


# -- the element table of the oracle

def _stored_products(table):
    """(x, y, x y) for each product the table holds, by index."""
    n, els = table.size, table.elements
    items = table.products.items() if isinstance(table.products, dict) \
        else enumerate(table.products)
    return [(els[k // n], els[k % n], out)
            for k, out in items if out is not rings._UNSET]


@pytest.mark.parametrize("name, max_cases", [("m2f2", 40), ("m2f3", 10)])
def test_memoized_products_equal_fresh_mat_mul(name, max_cases):
    ring = ring_from_name(name)
    reports = oracle.verify_all(ring, max_cases=max_cases)
    assert all(rep.counterexample is None for rep in reports)
    stored = _stored_products(ring.table)
    assert 0 < len(stored) <= ring.size ** 2
    for x, y, product in stored:
        assert product.ring is ring
        assert ring.table.elements[product.index] is product
        assert product.payload == mat_mul(ring.field, x.payload, y.payload)


def test_product_table_stops_at_its_bound(monkeypatch):
    # M2(F2) is past a flat cap of 15 elements, so its products go to the
    # bounded store, which stops at _MAX_PRODUCTS
    monkeypatch.setattr(rings, "_MAX_FLAT", 15)
    monkeypatch.setattr(rings, "_MAX_PRODUCTS", 100)
    ring = MatF(2, 2)
    reports = oracle.verify_all(ring, max_cases=40)
    assert all(rep.counterexample is None for rep in reports)
    assert isinstance(ring.table.products, dict)
    assert len(ring.table.products) == 100


def test_second_verify_makes_no_matrix_products(monkeypatch):
    ring = MatF(2, 2)
    first = oracle.verify("T-bc-inverses", ring, max_cases=60)
    calls = []

    def counting(*args):
        calls.append(args)
        return mat_mul(*args)

    monkeypatch.setattr(rings, "mat_mul", counting)
    again = oracle.verify("T-bc-inverses", ring, max_cases=60)
    assert calls == []
    assert again.to_json() == first.to_json()
    assert again.counterexample is None and again.cases_checked == 60


@pytest.mark.parametrize("name", ["m2f2", "m3f2"])
def test_cli_rings_keep_no_product_table(made, name):
    k = int(name[1])
    a = json.dumps([["1" if i == j == 0 or j == i + 1 else "0"
                     for j in range(k)] for i in range(k)])
    codes = [cli.main(["compute", "--ring", name, "--element", a,
                       "--inverse", inverse])
             for inverse in ("moore-penrose", "group", "drazin", "core",
                             "inner", "reflexive", "e-core", "w-core")]
    codes.append(cli.main(["compute", "--ring", name, "--element", a,
                           "--inverse", "bc", "--b", a, "--c", a]))
    codes.append(cli.main(["enumerate", "--ring", name, "--element", a,
                           "--equations", "1,2"]))
    cons = json.dumps({"right_principal": {"principal": a},
                       "right_annihilator": {"annihilator": a}})
    codes += [cli.main(["prescribe", "--ring", name, "--element", a,
                        "--constraints", cons, "--mode", mode])
              for mode in ("one", "outer", "reflexive")]
    assert len(made) == 13 and set(codes) <= {cli.EXIT_OK, cli.EXIT_NONE}
    for ring in made:
        assert isinstance(ring.memo, dict) and ring.table is None
        assert "table" not in vars(ring)


def test_verify_on_q_keeps_no_memo():
    ring = MatQ(2)
    with pytest.raises(NotEnumerableError):
        oracle.verify("T-bc-inverses", ring)
    assert ring.memo is None and "memo" not in vars(ring)


def test_zn_gets_the_same_product_table():
    # every backend has the one product cache, and no code tests for one
    ring = Zn(6)
    assert oracle.verify("T-bc-inverses", ring).counterexample is None
    stored = _stored_products(ring.table)
    assert len(stored) == ring.size ** 2
    assert all(ring.table.elements[z.index] is z
               and z.payload == x.payload * y.payload % 6
               for x, y, z in stored)


@pytest.fixture
def element_callers(monkeypatch):
    """(file, function) -> the number of MatrixRing.elements calls made
    from it."""
    real = rings.MatrixRing.elements
    callers = Counter()

    def recording(self):
        code = sys._getframe(1).f_code
        callers[Path(code.co_filename).name, code.co_name] += 1
        return real(self)

    monkeypatch.setattr(rings.MatrixRing, "elements", recording)
    return callers


def _calls_from(callers, module):
    return sum(n for (name, _), n in callers.items() if name == module)


def test_oracle_lists_the_elements_once_per_verify(element_callers):
    # the library's own scans (families, one-sided core sets) still list
    # the ring; the oracle's scopes and clauses read the tuple of the
    # ring's table, and its solution sets are scans of that tuple
    ring = MatF(2, 2)
    reports = oracle.verify_all(ring)
    assert all(rep.passed for rep in reports)
    assert 0 < _calls_from(element_callers, "oracle.py") \
        <= len(oracle.CATALOG) == 32
    assert oracle._Context.of(ring).elements is ring.table.elements
    assert _calls_from(element_callers, "geninv.py") == 0
    assert element_callers["prescribed.py", "_mitsch_sets"] == 0


# -- the oracle context: one per ring object

def test_oracle_lists_the_elements_once_per_ring(element_callers):
    ring = MatF(2, 2)
    oracle.verify_all(ring)
    table = ring.table
    oracle.verify_all(ring, max_cases=7)
    # a private context shares the ring's table
    assert oracle._Context(ring).table is table is ring.table
    assert _calls_from(element_callers, "oracle.py") == 1
    oracle.verify_all(MatF(2, 2), max_cases=7)
    assert _calls_from(element_callers, "oracle.py") == 2


def _report_json(reports):
    return [rep.to_json() for rep in reports]


@pytest.mark.parametrize("name", ["zn:6", "zn:8", "zn:12", "m2f2"])
def test_a_warm_context_gives_the_reports_of_a_fresh_ring(name):
    ring = ring_from_name(name)
    cold = _report_json(oracle.verify_all(ring))
    ctx = ring.memo["context"]
    assert _report_json(oracle.verify_all(ring)) == cold
    assert ring.memo["context"] is ctx
    assert _report_json(oracle.verify_all(ring, max_cases=7)) == \
        _report_json(oracle.verify_all(ring_from_name(name), max_cases=7))


def test_a_private_context_is_not_the_rings():
    ring = Zn(6)
    ctx = oracle._Context.of(ring)
    assert oracle._Context.of(ring) is ctx
    assert oracle._Context(ring) is not ctx
    assert oracle._Context.of(Zn(6)) is not ctx


def test_a_mutant_is_caught_on_a_fresh_ring_after_an_equal_one_is_warm(
        monkeypatch):
    # the grids of T-weighted-mp-grid live in the context's memo; a warm
    # MatF(2, 2) keeps the true ones, a fresh one computes the mutant's
    theorem = "T-weighted-mp-grid"
    warm = MatF(2, 2)
    assert oracle.verify(theorem, warm, max_cases=20).counterexample is None
    real = prescribed.outer_with

    def one_bundle_off(a, cons, reflexive=False):
        if reflexive and cons.shape() == ("Sp", "Tp"):
            return InverseReport("reflexive", False, reason="mutant")
        return real(a, cons, reflexive=reflexive)

    monkeypatch.setattr(special, "outer_with", one_bundle_off)
    monkeypatch.setattr(oracle, "outer_with", one_bundle_off)
    fresh = MatF(2, 2)
    assert fresh == warm
    rep = oracle.verify(theorem, fresh, max_cases=20)
    assert rep.counterexample is not None and rep.cases_checked == 1
    assert oracle.verify(theorem, warm, max_cases=20).counterexample is None


def test_a_clause_that_raises_on_a_warm_context_fails_its_first_case(
        monkeypatch):
    ring = Zn(6)
    assert oracle.verify("T-invertible-lemma", ring).passed

    def broken(a, side):
        raise PreconditionError("mutant")

    monkeypatch.setattr(oracle, "principal", broken)
    rep = oracle.verify("T-invertible-lemma", ring)
    assert rep.counterexample == "a=0" and rep.cases_checked == 1


def test_a_warm_context_memo_keeps_no_error(monkeypatch):
    calls = []

    def flaky(a):
        calls.append(a)
        if len(calls) == 1:
            raise PreconditionError("mutant")
        return True

    entry = oracle.TheoremCase("T-flaky", "all a", oracle._scope("a"),
                               lambda ctx, a: ctx.memo(flaky, a))
    monkeypatch.setitem(oracle.CATALOG_BY_ID, entry.id, entry)
    ring = Zn(6)
    assert all(rep.passed for rep in oracle.verify_all(ring))
    rep = oracle.verify(entry.id, ring)
    assert rep.counterexample == "a=0" and rep.cases_checked == 1
    # the error was not kept: a=0 is asked again, then each answer is
    assert oracle.verify(entry.id, ring).passed
    assert oracle.verify(entry.id, ring).passed
    assert len(calls) == 1 + ring.size


# -- the element table: the backend's answers, by index

@pytest.mark.parametrize("name", ["zn:12", "m2f2", "m2f3"])
def test_table_operations_equal_the_backends(name):
    ring = ring_from_name(name)
    els = oracle._Context.of(ring).table.elements
    # the first pass fills the stores, the second reads them
    for _ in range(2):
        for x in els:
            ops = [(-x, ring.neg(x))]
            if ring.has_involution:
                ops.append((x.star, ring.involute(x)))
            for y in els:
                ops += [(x + y, ring.add(x, y)), (x * y, ring.mul(x, y)),
                        (x - y, ring.add(x, ring.neg(y)))]
            for got, want in ops:
                assert got == want and want.index is None
                assert els[got.index] is got


def test_indexed_and_unindexed_elements_are_interchangeable():
    ring = MatF(2, 2)
    els = oracle._Context.of(ring).table.elements
    fresh = MatF(2, 2)
    for x, y in zip(els, fresh.elements()):
        assert x.index is not None and y.index is None
        assert x == y and y == x and hash(x) == hash(y)
        assert y in {x} and x in {y}
        assert {x: 1}[y] == 1 and {y: 2}[x] == 2
        assert x * y is x * x and y * x == x * x
    # equal payloads of unequal rings hash alike and stay apart
    two, other = Zn(6).element(2), Zn(8).element(2)
    assert hash(two) == hash(other) and two != other
    assert len({two, other}) == 2


def test_bounded_store_gives_the_flat_tables_reports(monkeypatch):
    flat = _report_json(oracle.verify_all(MatF(2, 3), max_cases=40))
    monkeypatch.setattr(rings, "_MAX_FLAT", 80)
    monkeypatch.setattr(rings, "_MAX_PRODUCTS", 500)
    ring = MatF(2, 3)
    assert _report_json(oracle.verify_all(ring, max_cases=40)) == flat
    table, ctx = ring.table, ring.memo["context"]
    # the stores by ideal index follow the same rule
    for store in (table.products, table._sums, ctx._leq,
                  table._ideal_contains, *table.ideal_pairs.values()):
        assert isinstance(store, dict) and 0 < len(store) <= 500
    assert len(table.products) == 500 and table.ideal_pairs


def test_a_private_context_works_on_parsed_elements():
    ring = MatF(2, 2)
    ctx = oracle._Context(ring)
    assert ring.table is ctx.table and "context" not in ring.memo
    a = ring.parse([[0, 0], [0, 1]])
    assert a.index is None
    for tags in oracle._TWO_SHAPES:
        assert oracle._mitsch_extremes(ctx, a, a, tags)
    fresh = ring.elements()
    for y in fresh:
        for z in fresh:
            assert ctx.leq(y, z) == prescribed.mitsch_leq(y, z)
    # every pair's answer is now stored, and both answers occur
    assert set(ctx._leq) == {True, False}


# -- the ideals of the table: interned, and read by index

def _indexed(table, x):
    return x is None or (x.index is not None and table.elements[x.index] is x)


@pytest.mark.parametrize("name", ["zn:12", "m2f2", "m2f3"])
def test_index_path_gives_the_key_path_answers(name):
    # ideals made before the table existed, then the table
    ring = ring_from_name(name)
    early = {side: all_ideals(ring, side) for side in (RIGHT, LEFT)}
    table = oracle._Context.of(ring).table
    assert table.interned_ideals is None
    plain = ring_from_name(name)
    assert plain.table is None
    for side in (RIGHT, LEFT):
        lattice, keyed = all_ideals(ring, side), all_ideals(plain, side)
        assert [i.key for i in lattice] == [i.key for i in keyed]
        assert all(i.index is not None
                   and table.interned_ideals[i.index] is i for i in lattice)
        for s, t in product(range(len(lattice)), repeat=2):
            si, ti, sk, tk = lattice[s], lattice[t], keyed[s], keyed[t]
            assert si.is_subideal_of(ti) == sk.is_subideal_of(tk)
            assert si.sum(ti).key == sk.sum(tk).key
            assert si.intersect(ti).key == sk.intersect(tk).key
            assert si.sum(ti) is table.interned(si.sum(ti))
            unit = direct_sum(si, ti)
            assert unit == direct_sum(sk, tk) and _indexed(table, unit)
            # an ideal made before the table is equal to the interned
            # one, and gets its answers
            es, et = early[side][s], early[side][t]
            assert es == si and si == es and es.index is None
            assert es.is_subideal_of(et) == si.is_subideal_of(ti)
            assert es.sum(et) is si.sum(ti)
            assert es.intersect(et) is si.intersect(ti)
            assert direct_sum(es, et) is unit
        for i, k in zip(lattice, keyed):
            g = i.generator()
            assert _indexed(table, g) and g == k.generator()
            assert principal(g, side) is i
            assert i.is_zero() == k.is_zero() and i.is_full() == k.is_full()
            for a, b in zip(table.elements, plain.elements()):
                assert i.contains(a) == k.contains(b) == i.contains(b)
    assert set(ring.memo) == {"context"}


@pytest.mark.parametrize("name", ["zn:12", "m2f2", "m2f3"])
def test_a_warm_index_store_still_refuses_another_ring_or_side(name):
    ring = ring_from_name(name)
    oracle._Context.of(ring)
    right, left = all_ideals(ring, RIGHT), all_ideals(ring, LEFT)
    for s, t in product(right, repeat=2):
        _lattice_answers(s, t)
    alien = all_ideals(MatF(2, 5) if name == "m2f3" else Zn(5), RIGHT)[0]
    for op in (SidedIdeal.is_subideal_of, SidedIdeal.sum,
               SidedIdeal.intersect, direct_sum):
        for s in right:
            with pytest.raises(RingMismatchError):
                op(s, alien)
            with pytest.raises(RingMismatchError):
                op(alien, s)
            with pytest.raises(PreconditionError):
                op(s, left[0])
            with pytest.raises(PreconditionError):
                op(left[-1], s)
    assert set(ring.memo) == {"context"}


def test_an_indexed_ring_computes_a_pair_with_an_equal_ring_unstored():
    # a pair with t of another, equal ring object is not an index pair:
    # it is computed, checked for its side, and kept in no memo
    ring = MatF(2, 2)
    assert all(rep.counterexample is None
               for rep in oracle.verify_all(ring, max_cases=40))
    fresh, plain = MatF(2, 2), MatF(2, 2)
    for side, other in ((RIGHT, LEFT), (LEFT, RIGHT)):
        mine, theirs, keyed = (all_ideals(r, side)
                               for r in (ring, fresh, plain))
        wrong = all_ideals(fresh, other)[-1]
        for (s, sk), (t, tk) in product(zip(mine, keyed),
                                        zip(theirs, keyed)):
            assert s.is_subideal_of(t) == sk.is_subideal_of(tk)
            for op in (SidedIdeal.sum, SidedIdeal.intersect):
                got = op(s, t)
                assert got.ring is ring and got.key == op(sk, tk).key
            assert direct_sum(s, t) == direct_sum(sk, tk)
            for op in (SidedIdeal.is_subideal_of, SidedIdeal.sum,
                       SidedIdeal.intersect, direct_sum):
                with pytest.raises(PreconditionError):
                    op(s, wrong)
    assert set(ring.memo) == {"context"}


def test_each_memoized_function_is_one_layer():
    # the wrapper holds the function itself, and no other wrapper
    for fn in (principal, annihilator, any_inner, SidedIdeal.is_subideal_of,
               SidedIdeal.sum, SidedIdeal.intersect, direct_sum,
               prescribed.outer_with):
        assert not hasattr(fn.__wrapped__, "__wrapped__")
        held = [cell.cell_contents for cell in fn.__closure__]
        assert fn.__wrapped__ in held
        assert not any(hasattr(x, "__wrapped__") for x in held)


class _CountedKey(tuple):
    """An ideal key that records each time it is hashed."""

    hashed = []

    def __hash__(self):
        self.hashed.append(self)
        return tuple.__hash__(self)


def test_a_warm_lattice_call_hashes_no_ideal_key(monkeypatch):
    ring = MatF(2, 2)
    assert oracle.verify("L-projector-algebra", ring).passed
    table = ring.table
    lattice = all_ideals(ring, RIGHT)
    for s, t in product(lattice, repeat=2):
        _lattice_answers(s, t)
    for ideal in lattice:
        ideal.generator()
        for a in table.elements:
            ideal.contains(a)
    monkeypatch.setattr(_CountedKey, "hashed", [])
    for ideal in lattice:
        ideal.key = _CountedKey(ideal.key)
    for s, t in product(lattice, repeat=2):
        assert _lattice_answers(s, t)[3] == (s is t)
        assert direct_sum(s, t) is None or \
            _indexed(table, direct_sum(s, t))
    for ideal in lattice:
        assert _indexed(table, ideal.generator())
        assert [ideal.contains(a) for a in table.elements] == \
            [ring.ideal_contains(RIGHT, ideal.rep, a)
             for a in table.elements]
    assert _CountedKey.hashed == []


# -- the cosets of the table: each listed coset kept once, indexed

@pytest.mark.parametrize("name", ["zn:12", "m2f2", "m2f3"])
def test_stored_cosets_are_the_backends_listings(monkeypatch, name):
    ring = ring_from_name(name)
    table = oracle._Context.of(ring).table
    real = rings.ElementTable.coset_members
    asked = []

    def compared(self, base, rep):
        # whether the store held the coset, then its members against the
        # backend's own listing, in order
        asked.append((self.position(base), rep) in self._cosets)
        members = list(real(self, base, rep))
        assert members == list(ring.coset_members(base, rep))
        assert all(_indexed(self, x) for x in members)
        return iter(members)

    monkeypatch.setattr(rings.ElementTable, "coset_members", compared)
    first = _report_json(oracle.verify_all(ring, max_cases=40))
    fills = len(asked)
    assert fills and not all(asked)
    # the second pass asks for the same cosets, and reads each from the
    # store
    assert _report_json(oracle.verify_all(ring, max_cases=40)) == first
    assert len(asked) == 2 * fills and all(asked[fills:])
    units = table.additive_generators()
    assert units == ring.additive_generators()
    assert all(_indexed(table, e) for e in units)


@pytest.mark.parametrize("name", ["m2f2", "m2f3"])
def test_coset_store_stops_at_its_bound(monkeypatch, name):
    unbounded = _report_json(oracle.verify_all(ring_from_name(name),
                                               max_cases=40))
    monkeypatch.setattr(rings, "_MAX_PRODUCTS", 20)
    real = rings.ElementTable.coset_members
    listed = []

    def recording(self, base, rep):
        listed.append(list(real(self, base, rep)))
        return iter(listed[-1])

    monkeypatch.setattr(rings.ElementTable, "coset_members", recording)
    ring = ring_from_name(name)
    assert _report_json(oracle.verify_all(ring, max_cases=40)) == unbounded
    # a member reference per stored member, and one per other base of a
    # stored coset
    store = ring.table._cosets
    kept = {id(members): len(members) for members in store.values()}
    assert store and \
        sum(kept.values()) + len(store) - len(kept) <= 20
    # past the bound, the backend lists the coset
    assert any(x.index is None for members in listed for x in members)


def test_second_catalog_pass_makes_no_coset_member_or_generator(
        monkeypatch):
    ring = MatF(2, 2)
    first = _report_json(oracle.verify_all(ring, max_cases=40))
    callers = set()
    real = rings.RingElement.__init__

    def recording(self, ring, payload):
        frame = sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        real(self, ring, payload)

    monkeypatch.setattr(rings.RingElement, "__init__", recording)
    assert _report_json(oracle.verify_all(ring, max_cases=40)) == first
    # the warm pass reads every element from the table: it builds none,
    # the solves and linear_solutions bases included
    assert not callers
    ring.mul(ring.one, ring.one)
    assert "mul" in callers


# -- the solves, coset spans and prescribed outer inverses of the table

@pytest.mark.parametrize("name", ["zn:12", "m2f2"])
def test_stored_solves_equal_the_backends(name):
    ring, plain = ring_from_name(name), ring_from_name(name)
    table = oracle._Context.of(ring).table
    for _ in range(2):
        # the first pass fills the store, the second reads it
        for (a, u), (pa, pu) in zip(product(table.elements, repeat=2),
                                    product(plain.elements(), repeat=2)):
            for side in (RIGHT, LEFT):
                x = table.solve(a, u, side)
                assert table.solve(a, u, side) is x and _indexed(table, x)
                want = plain.solve(pa, pu, side)
                assert (x is None) == (want is None)
                if x is not None:
                    assert x.payload == want.payload
                    assert (a * x if side == RIGHT else x * a) is u
    assert len(table._solves) == 2 * ring.size ** 2
    for a in table.elements:
        assert ring.unit_inverse(a) is table.solve(a, ring.one, RIGHT)


def test_stored_outer_with_equals_a_fresh_computation():
    ring, plain = MatF(2, 2), MatF(2, 2)
    table = oracle._Context.of(ring).table
    outer_with = prescribed.outer_with
    pairs = list(zip(oracle._ideal_quadruples(ring),
                     oracle._ideal_quadruples(plain)))
    assert len(pairs) == 4 * 25
    for a, pa in zip(table.elements, plain.elements()):
        for (cons, pcons), reflexive in product(pairs, (False, True)):
            rep = outer_with(a, cons, reflexive=reflexive)
            assert outer_with(a, cons, reflexive=reflexive) is rep
            assert rep.value is None or _indexed(table, rep.value)
            fresh = outer_with.__wrapped__(pa, pcons, reflexive)
            assert rep.to_json() == fresh.to_json()
            # a bundle of another, equal ring object is computed, unstored
            assert outer_with(a, pcons, reflexive=reflexive) is not rep
    assert len(table.bundles["outer_with"]) == ring.size * 100 * 2
    assert plain.table is None and "outer_with" not in plain.memo


def test_stored_coset_spans_equal_the_backends(monkeypatch):
    ring, plain = MatF(2, 2), MatF(2, 2)
    first = oracle.verify("T-one-prescribed-families", ring)
    assert first.passed
    table = ring.table
    spans = dict(table._spans)
    assert spans
    by_payload = {x.payload: x for x in plain.elements()}
    for key, rep in spans.items():
        generators = [by_payload[table.elements[i].payload] for i in key]
        assert rep == plain.coset_span(generators)
    # a second pass reads every span from the store
    spanned = []
    real = rings.MatrixRing.coset_span
    monkeypatch.setattr(rings.MatrixRing, "coset_span",
                        lambda self, gens: spanned.append(gens) or
                        real(self, gens))
    again = oracle.verify("T-one-prescribed-families", ring)
    assert again.to_json() == first.to_json() and spanned == []
    # the patch does record a backend span
    assert plain.coset_span(plain.additive_generators()) and spanned


@pytest.mark.parametrize("name", ["zn:12", "m2f2"])
def test_stored_linear_solutions_equal_the_backends(monkeypatch, name):
    ring = ring_from_name(name)
    table = oracle._Context.of(ring).table
    real = rings.ElementTable.linear_solutions
    backend = type(ring).linear_solutions
    answers = []

    def compared(self, equations):
        got, want = real(self, equations), backend(ring, equations)
        assert (got is None) == (want is None)
        if got is not None:
            assert _indexed(table, got.base) and got.rep == want.rep
            assert got.members() == want.members()
        answers.append(got)
        return got

    monkeypatch.setattr(rings.ElementTable, "linear_solutions", compared)
    asked = []
    monkeypatch.setattr(type(ring), "linear_solutions",
                        lambda self, equations: asked.append(1) or
                        backend(self, equations))
    systems = [("1",), ("1", "3"), ("5", "6", "8"), ("1k",)]
    for _ in range(2):
        # the first pass fills the store, the second reads it
        del asked[:]
        if ring.has_involution:
            oracle.verify("T-one-sided-core", ring, max_cases=60)
        for a, equations in product(table.elements, systems):
            if ring.has_involution or "3" not in equations:
                enumerate_inverse_set(a, equations, k=2)
        fills = len(asked)
    assert fills == 0 and answers and any(x is None for x in answers)
    assert 0 < len(table._linear) < len(answers)


def test_cli_rings_take_the_direct_path(made, monkeypatch):
    def refused(self, *args):
        raise AssertionError("a table store was read")

    for method in ("solve", "coset_span", "linear_solutions"):
        monkeypatch.setattr(rings.ElementTable, method, refused)
    computed = []
    real = prescribed._unique_outer

    def counting(a, s, t):
        computed.append(a)
        return real(a, s, t)

    monkeypatch.setattr(prescribed, "_unique_outer", counting)
    a = json.dumps([["1", "1"], ["0", "0"]])
    cons = json.dumps({"right_principal": {"principal": a},
                       "right_annihilator": {"annihilator": a}})
    for mode in ("outer", "outer", "one", "reflexive"):
        assert cli.main(["prescribe", "--ring", "m2f2", "--element", a,
                         "--constraints", cons, "--mode", mode]) == \
            cli.EXIT_OK
    assert cli.main(["compute", "--ring", "m2f2", "--element", a,
                     "--inverse", "group"]) == cli.EXIT_OK
    assert len(computed) == 2
    assert all(ring.table is None and "outer_with" not in ring.memo
               for ring in made)


def test_a_stale_outer_with_answer_is_a_counterexample():
    # one stored answer replaced: the first case's outer inverse reported
    # missing, or the zero element when there is none
    ring = MatF(2, 2)
    theorem = "T-2I-prescribed"
    assert oracle.verify(theorem, ring, max_cases=40).counterexample is None
    store = ring.table.bundles["outer_with"]
    key, rep = next(iter(store.items()))
    store[key] = InverseReport(rep.name, False, reason="stale") \
        if rep.exists else InverseReport(rep.name, True, ring.zero)
    stale = oracle.verify(theorem, ring, max_cases=40)
    assert stale.counterexample is not None and stale.cases_checked == 1
    assert oracle.verify(theorem, MatF(2, 2),
                         max_cases=40).counterexample is None


# -- the oracle context's memos: bounded

def test_context_memos_keep_every_catalog_set():
    # two catalog passes at the perfbench cap evict nothing
    for name in ("zn:6", "zn:8", "m2f2"):
        ring = ring_from_name(name)
        for _ in range(2):
            oracle.verify_all(ring, max_cases=40)
        ctx = ring.memo["context"]
        for memo in (ctx.memo, ctx.solutions, ctx.filtered):
            info = memo.cache_info()
            assert info.maxsize == oracle._CONTEXT_CACHE
            assert 0 < info.currsize == info.misses < info.maxsize


def test_bounded_context_memos_give_the_same_reports(monkeypatch):
    want = _report_json(oracle.verify_all(MatF(2, 2), max_cases=40))
    monkeypatch.setattr(oracle, "_CONTEXT_CACHE", 4)
    ring = MatF(2, 2)
    assert _report_json(oracle.verify_all(ring, max_cases=40)) == want
    ctx = ring.memo["context"]
    for memo in (ctx.memo, ctx.solutions, ctx.filtered):
        assert memo.cache_info().currsize <= 4


# -- the solution sets of the context, tested as satisfies tests them

@pytest.mark.parametrize("name", ["zn:12", "m2f2"])
def test_indexed_solution_sets_equal_satisfies(name):
    ring = ring_from_name(name)
    ctx = oracle._Context(ring)
    systems = [equations for equations in [
        (eq,) for eq in EQUATION_TOKENS] + list(oracle.NAMED_SYSTEMS.values())
        if ring.has_involution or not {"3", "4"} & set(equations)]
    for a in ctx.elements:
        for equations, k in product(systems, (None, 0, 1, 3)):
            if k is None and {"1k", "k1"} & set(equations):
                continue
            got = ctx.solutions(a, equations, k)
            assert got == [x for x in ctx.elements
                           if satisfies(a, x, equations, k=k)]
            assert all(_indexed(ctx.table, x) for x in got)


def test_an_indexed_scan_raises_as_satisfies_does():
    ring = Zn(8)
    ctx = oracle._Context(ring)
    with pytest.raises(UnsupportedInvolutionError):
        ctx.solutions(ring.one, ("1", "3"))
    with pytest.raises(PreconditionError):
        ctx.solutions(ring.one, ("1k",))
    # a token is reached only past a solution of the tokens before it: 2
    # is not regular in Z_8
    assert ctx.solutions(ring.element(2), ("1", "3")) == []
