"""Brute-force ground truth and exhaustive verification on finite rings.

Every catalog entry is a scope plus a clause.  The scope lists the
entry's cases in canonical order, as (label, args): elements, idempotents,
unit weights, tags and, where a statement ranges over ideals, every
one-sided ideal of the finite backend.  The clause checks one case of the
theorem.  `verify` walks the scope, keeps the budget and reports the first
counterexample; a label's text is built only for it.

The ring's context (_Context) lists the ring once and gives it an
ElementTable (see rings), so the brute-force checks read the products,
sums, stars, element ideals and ideal lattice of the ring by index.
"""

import time
from functools import cached_property, lru_cache
from itertools import product

from .errors import (NotEnumerableError, PreconditionError, RingInvError,
                     VerificationError)
from .geninv import (NAMED_SYSTEMS, _solution_test, any_inner, core_inverse,
                     drazin_index, drazin_inverse, dual_core_inverse,
                     group_inverse, moore_penrose, satisfies)
from .ideals import (LEFT, RIGHT, all_ideals, annihilator, direct_sum,
                     ideal_annihilator, multiply_ideal, orthogonal,
                     phi_preimage, principal)
from .prescribed import (SLOTS, IdealConstraints, _check_constraints_on_x,
                         _realized, mitsch_leq, one_inverse_family,
                         one_inverse_solution_set, outer_with)
from .projectors import phi_equals_projector as phieq, projector
from .rings import ElementTable, RingElement, inverse_of_unit, is_invertible
from . import special


class TheoremCase:
    """A catalog entry: a stable id, its quantifier scope in words, the
    scope that lists its cases and the clause that checks one.

    scope(ctx) yields (label, args) in canonical order, str(label) being
    the case's label text, and clause(ctx, *args) is true when the case
    holds.
    """

    __slots__ = ("id", "quantifier_scope", "scope", "clause")

    def __init__(self, case_id, quantifier_scope, scope, clause):
        self.id = case_id
        self.quantifier_scope = quantifier_scope
        self.scope = scope
        self.clause = clause

    def __repr__(self):
        return "TheoremCase(%s)" % self.id


class VerificationReport:
    __slots__ = ("ring", "theorem", "cases_checked", "counterexample",
                 "elapsed", "complete")

    def __init__(self, ring, theorem, cases_checked, counterexample,
                 elapsed, complete=True):
        self.ring = ring
        self.theorem = theorem
        self.cases_checked = cases_checked
        self.counterexample = counterexample
        self.elapsed = elapsed
        self.complete = complete

    @property
    def passed(self):
        return self.counterexample is None and self.complete

    def to_json(self):
        # elapsed is intentionally excluded: reports must be byte-identical
        # across runs.
        return {
            "ring": self.ring,
            "theorem": self.theorem,
            "cases_checked": self.cases_checked,
            "counterexample": self.counterexample,
            "complete": self.complete,
            "passed": self.passed,
        }

    def __repr__(self):
        status = "pass" if self.passed else \
            ("incomplete" if self.counterexample is None else "FAIL")
        return "VerificationReport(%s on %s: %s, %d cases)" % (
            self.theorem, self.ring, status, self.cases_checked)


# -- the scope layer --------------------------------------------------------

# the entries each of the context's memos keeps, the least recently used
# going first: every catalog ring at the perfbench cap keeps each of its
# sets, and a larger ring keeps its memory bounded
_CONTEXT_CACHE = 1 << 12


class _OutOfTime(Exception):
    """A sweep of a case saw verify's deadline pass."""


class _Context:
    """What the oracle knows of a finite ring: the element tuple of the
    ring's ElementTable, the idempotents and symmetric unit weights drawn
    from it on first use, each element's rendering, the Mitsch order by
    pair of indices (read through the table's stored), and memos that keep
    the last _CONTEXT_CACHE answers each.  Every brute-force solution set
    of the oracle comes from one of them, solutions, the one scan: it
    tests each element with satisfies' own test, and every such set
    filtered by ideals from another, filtered.  verify sets deadline
    while a time budget runs, and each sweep over the elements (polled)
    stops the case once it has passed.

    The first context of a ring gives it its table, so products, sums,
    stars, the element ideals and the ideal lattice are stored by index
    from then on.
    verify takes the ring's own context (of), so these are computed once
    per ring object and die with it; a caller who patches a library
    function needs a fresh ring.  _Context(ring) is a private one, which
    shares the ring's table.

    A memo keeps no error, so a group computation that raises fails each
    case that asks for it; verify stops at the first.
    """

    def __init__(self, ring):
        self.ring = ring
        self.star = ring.has_involution
        self.table = ring.table or ElementTable(ring, ring.elements())
        self.elements = self.table.elements
        # mitsch_leq by pair
        self._leq = self.table.pairs()
        self.name = lru_cache(maxsize=None)(ring.render)
        self.deadline = None
        cache = lru_cache(maxsize=_CONTEXT_CACHE)
        # fn(*args), computed once per context
        self.memo = cache(lambda fn, *args: fn(*args))
        # a{equations} in canonical order
        solutions = self.solutions = cache(self._scan)
        # the x of a{equations} that meet the ideals (S, T, S', T') in
        # mode (see _meets), in canonical order
        self.filtered = cache(
            lambda a, equations, ideals, mode: [
                x for x in solutions(a, equations)
                if _meets(a, x, ideals, mode)])

    @classmethod
    def of(cls, ring):
        """The context kept in ring.memo, built on first use."""
        ctx = ring.memo.get("context")
        if ctx is None:
            ctx = ring.memo["context"] = cls(ring)
        return ctx

    def _scan(self, a, equations, k=None):
        """a{equations}, each element tested as satisfies tests it."""
        test = _solution_test(a, equations, k)
        return [x for x in self.polled(self.elements) if test(x)]

    def polled(self, items):
        """items, or with a deadline set, items that raise _OutOfTime
        once it has passed, tested every 32 items."""
        if self.deadline is None:
            return items
        return _polling(items, self.deadline)

    def leq(self, y, z):
        """y <=_M z, computed once per pair."""
        table = self.table
        return table.stored(self._leq, table.pair(y, z), mitsch_leq, y, z)

    @cached_property
    def idempotents(self):
        return [p for p in self.elements if p * p == p]

    @cached_property
    def weights(self):
        return [w for w in self.elements
                if is_invertible(w) and w.star == w]

    def text(self, value):
        """A scope value as its label shows it."""
        if isinstance(value, RingElement):
            return self.name(value)
        if isinstance(value, IdealConstraints):
            return "%s,%r" % (self.text(value.shape()), value.shape())
        if isinstance(value, tuple):
            return "+".join(value)
        return value if isinstance(value, str) else repr(value)


def _polling(items, deadline):
    for i, x in enumerate(items):
        if not i & 31 and time.monotonic() > deadline:
            raise _OutOfTime
        yield x


# the domain each one-letter dimension runs over
_DOMAINS = {**dict.fromkeys("abcguwxyz", "elements"),
            **dict.fromkeys("pq", "idempotents"),
            **dict.fromkeys("ef", "weights")}


def _scope(*dims, star=False):
    """The scope over the named dimensions, in lexicographic order, with
    labels "a=...,x=...".  A letter picks its domain from _DOMAINS; a pair
    (name, values) gives its own: a tuple of tags, or a function of the
    context and the values chosen before it.  With star, a ring without
    an involution has no cases."""
    names = tuple(dim if isinstance(dim, str) else dim[0] for dim in dims)

    def scope(ctx):
        if star and not ctx.star:
            return iter(())
        return _tuples(ctx, names, dims, ())
    return scope


def _tuples(ctx, names, dims, args):
    dim, rest = dims[0], dims[1:]
    if isinstance(dim, str):
        values = getattr(ctx, _DOMAINS[dim])
    else:
        values = dim[1]
        if callable(values):
            values = values(ctx, *args)
    for v in values:
        if rest:
            yield from _tuples(ctx, names, rest, args + (v,))
        else:
            case = args + (v,)
            yield _Label(ctx, names, case), case


class _Label:
    """The label of a case of a _scope, built only when it is read: str
    gives "a=...,x=..."."""

    __slots__ = ("ctx", "names", "args")

    def __init__(self, ctx, names, args):
        self.ctx, self.names, self.args = ctx, names, args

    def __str__(self):
        text = self.ctx.text
        return ",".join("%s=%s" % (name, text(v))
                        for name, v in zip(self.names, self.args))


def _iff(*values):
    return len(set(values)) <= 1


def _require_agree(what, clauses):
    """Equivalent clauses (label -> value) hold together or not at all."""
    if len(set(clauses.values())) > 1:
        raise VerificationError("%s disagree: %r" % (what, clauses))
    return True


def _meets(a, x, ideals, mode):
    """Whether x meets the ideals (S, T, S', T'): with mode True or False,
    those prescribed (not None) are the ideals of xa/ax or of x (see
    _check_constraints_on_x); with a tuple of _SIDE_CLAUSES labels, each
    of those clauses holds."""
    if isinstance(mode, bool):
        return _check_constraints_on_x(a, x, IdealConstraints(*ideals), mode)
    return all(_SIDE_CLAUSES[label](x, *ideals) for label in mode)


def _is_brute_force(rep, want):
    """The report's inverse is the one member of the brute-force set
    want, or it has none and want is empty."""
    return want == ([rep.value] if rep.exists else [])


# -- element and projector lemmas ------------------------------------------

def _invertible(ctx, a):
    return _iff(
        is_invertible(a),
        principal(a, RIGHT).is_full() and annihilator(a, RIGHT).is_zero(),
        principal(a, LEFT).is_full() and annihilator(a, LEFT).is_zero())


def _idempotent_cases(ctx):
    """p splits, then p against each q: a scope with two kinds of case."""
    for p in ctx.idempotents:
        yield "p=%s splits" % ctx.name(p), (p,)
        for q in ctx.idempotents:
            yield "p=%s,q=%s" % (ctx.name(p), ctx.name(q)), (p, q)


def _idempotent_ideals(ctx, p, q=None):
    if q is None:
        one = p.ring.one
        return (principal(p, RIGHT) == annihilator(one - p, RIGHT)
                and principal(p, LEFT) == annihilator(one - p, LEFT))
    return (
        (principal(p, RIGHT).is_subideal_of(principal(q, RIGHT))
         == annihilator(q, LEFT).is_subideal_of(annihilator(p, LEFT)))
        and (principal(p, LEFT).is_subideal_of(principal(q, LEFT))
             == annihilator(q, RIGHT).is_subideal_of(annihilator(p, RIGHT)))
        and ((q == p) == (
            principal(q, RIGHT).is_subideal_of(principal(p, RIGHT))
            and annihilator(q, RIGHT).is_subideal_of(
                annihilator(p, RIGHT)))))


def _regular_inclusions(ctx, a, b):
    ar_in_br = principal(a, RIGHT).is_subideal_of(principal(b, RIGHT))
    lb_in_la = annihilator(b, LEFT).is_subideal_of(annihilator(a, LEFT))
    ra_in_rb = principal(a, LEFT).is_subideal_of(principal(b, LEFT))
    rb_in_ra_ann = annihilator(b, RIGHT).is_subideal_of(
        annihilator(a, RIGHT))
    ok = (not ar_in_br or lb_in_la) and (not ra_in_rb or rb_in_ra_ann)
    if any_inner(b) is not None:
        ok = ok and (lb_in_la == ar_in_br) and (rb_in_ra_ann == ra_in_rb)
        # regularity transfer
        if rb_in_ra_ann and principal(b, LEFT).is_subideal_of(
                principal(a, LEFT)):
            ok = ok and any_inner(a) is not None
        if annihilator(a, RIGHT) == annihilator(b, RIGHT):
            ok = ok and (
                principal(b, LEFT).is_subideal_of(principal(a, LEFT))
                == (any_inner(a) is not None))
    return ok


def _star_ideal_duality(ctx, a, b):
    return (principal(a, RIGHT).is_subideal_of(principal(b, RIGHT))
            == principal(a.star, LEFT).is_subideal_of(
                principal(b.star, LEFT))) and \
           (annihilator(a, RIGHT).is_subideal_of(annihilator(b, RIGHT))
            == annihilator(a.star, LEFT).is_subideal_of(
                annihilator(b.star, LEFT)))


def _orthogonal_range(ctx, a):
    ok = orthogonal(principal(a, RIGHT), annihilator(a.star, RIGHT), RIGHT)
    ok = ok and orthogonal(principal(a, LEFT),
                           annihilator(a.star, LEFT), LEFT)
    if a.star == a:
        ok = ok and orthogonal(principal(a, RIGHT),
                               annihilator(a, RIGHT), RIGHT)
    if a * a == a:
        ok = ok and (orthogonal(principal(a, RIGHT),
                                annihilator(a, RIGHT), RIGHT)
                     == (a.star == a))
    return ok


def _complements(ctx, side, s):
    """The ideals T of the side's lattice with R = S (+) T."""
    return [t for t in ctx.memo(all_ideals, ctx.ring, side)
            if direct_sum(s, t) is not None]


def _projector_algebra(ctx, side, s, t):
    rho = projector(s, t)
    tau = projector(t, s)
    ok = rho.is_unit_idempotent()
    for r in ctx.elements:
        ok = ok and rho.apply(r) + tau.apply(r) == r
        ok = ok and (rho.apply(r) == r) == s.contains(r)
        ok = ok and t.contains(rho.apply(r) - r)
    # module compatibility and the rho(1) laws
    for a in ctx.elements:
        if side == RIGHT:
            ok = ok and rho.apply(a) == rho.unit * a
            ok = ok and ((rho.unit * a == a)
                         == principal(a, RIGHT).is_subideal_of(s))
            ok = ok and ((a * rho.unit == a)
                         == t.is_subideal_of(annihilator(a, RIGHT)))
        else:
            ok = ok and rho.apply(a) == a * rho.unit
            ok = ok and ((a * rho.unit == a)
                         == principal(a, LEFT).is_subideal_of(s))
            ok = ok and ((rho.unit * a == a)
                         == t.is_subideal_of(annihilator(a, LEFT)))
    return ok


def _inverse_product_ideals(ctx, a, x):
    ok = True
    if satisfies(a, x, ("1",)):
        ok = (principal(a * x, RIGHT) == principal(a, RIGHT)
              and annihilator(x * a, RIGHT) == annihilator(a, RIGHT)
              and annihilator(a * x, LEFT) == annihilator(a, LEFT)
              and principal(x * a, LEFT) == principal(a, LEFT))
    if satisfies(a, x, ("2",)):
        ok = ok and (
            annihilator(a * x, RIGHT) == annihilator(x, RIGHT)
            and principal(x * a, RIGHT) == principal(x, RIGHT)
            and principal(a * x, LEFT) == principal(x, LEFT)
            and annihilator(x * a, LEFT) == annihilator(x, LEFT))
    return ok


def _core_equation_systems(ctx, a):
    ok = all(satisfies(a, x, ("1", "2"))
             for x in ctx.solutions(a, ("6", "7")))
    if ctx.star:
        rep, repd = core_inverse(a), dual_core_inverse(a)
        sol367 = ctx.solutions(a, ("3", "6", "7"))
        ok = ok and _is_brute_force(rep, sol367)
        ok = ok and all(satisfies(a, x, ("1", "2"))
                        for x in ctx.solutions(a, ("8", "9")))
        sol489 = ctx.solutions(a, ("4", "8", "9"))
        ok = ok and _is_brute_force(repd, sol489)
    return ok


def _with_inner_product(ctx, a):
    """The b with ab regular."""
    return [b for b in ctx.elements if ctx.solutions(a * b, ("1",))]


def _inner_of_product(ctx, a, b):
    ab = a * b
    ok = True
    left_eq = (principal(ab, RIGHT) == principal(a, RIGHT))
    left_ann = (annihilator(ab, LEFT) == annihilator(a, LEFT))
    right_ann = (annihilator(ab, RIGHT) == annihilator(b, RIGHT))
    right_eq = (principal(ab, LEFT) == principal(b, LEFT))
    for g in ctx.solutions(ab, ("1",)):
        ok = ok and ((ab * g * a == a) == left_eq == left_ann)
        ok = ok and ((b * g * ab == b) == right_ann == right_eq)
    return ok


def _reflexive_upgrade(ctx, a, x):
    ok = True
    if satisfies(a, x, ("1",)) and (
            principal(x, RIGHT) == principal(x * a, RIGHT)
            or principal(x, LEFT) == principal(a * x, LEFT)):
        ok = satisfies(a, x, ("1", "2"))
    if satisfies(a, x, ("2",)) and (
            principal(a, RIGHT) == principal(a * x, RIGHT)
            or principal(a, LEFT) == principal(x * a, LEFT)):
        ok = ok and satisfies(a, x, ("1", "2"))
    return ok


# -- projector characterizations -------------------------------------------

class _Row:
    """One projector identity over the terms a, x, ax, xa and a*:
    phi_p = rho_{uR,rann(v)} on the right, p_phi = rho_{Ru,lann(v)} on the
    left.  In ideals it reads pR = uR and rann(p) = rann(v), or Rp = Ru
    and lann(p) = lann(v)."""

    __slots__ = ("p", "side", "u", "v", "label")

    def __init__(self, p, side, u, v):
        self.p, self.side, self.u, self.v = p, side, u, v
        self.label = ("phi_%s=rho_{%sR,rann(%s)}" if side == RIGHT
                      else "%s_phi=rho_{R%s,lann(%s)}") % (p, u, v)

    def holds(self, t):
        """The identity itself, on the terms t."""
        return phieq(t[self.p], principal(t[self.u], self.side),
                     annihilator(t[self.v], self.side))

    def reads(self, t):
        """The identity read as two ideal equalities."""
        p, side = t[self.p], self.side
        return (principal(p, side) == principal(t[self.u], side)
                and annihilator(p, side) == annihilator(t[self.v], side))


def _terms(a, x, astar=None):
    """The terms a row names; a* is left out unless a star class asks."""
    return {"a": a, "x": x, "ax": a * x, "xa": x * a, "a*": astar}


# the projector rows of the paper by group: the {1}, {2} and {1,2}
# blocks; c13 and c14 for {1,3} and {1,4}; c6 and c8, the extra rows of
# {1,3,6} and {1,4,8}
_ROWS = {group: tuple(_Row(*row) for row in rows) for group, rows in {
    "1": (("ax", RIGHT, "a", "ax"), ("xa", RIGHT, "xa", "a"),
          ("ax", LEFT, "ax", "a"), ("xa", LEFT, "a", "xa")),
    "2": (("ax", RIGHT, "ax", "x"), ("xa", RIGHT, "x", "xa"),
          ("ax", LEFT, "x", "ax"), ("xa", LEFT, "xa", "x")),
    "12": (("ax", RIGHT, "a", "x"), ("xa", RIGHT, "x", "a"),
           ("ax", LEFT, "x", "a"), ("xa", LEFT, "a", "x")),
    "c13": (("ax", RIGHT, "a", "a*"), ("ax", LEFT, "a*", "a")),
    "c14": (("xa", RIGHT, "a*", "a"), ("xa", LEFT, "a", "a*")),
    "c6": (("xa", RIGHT, "a", "a"), ("xa", LEFT, "a", "a")),
    "c8": (("ax", RIGHT, "a", "a"), ("ax", LEFT, "a", "a")),
}.items()}


def _inverse_block(equations, rows):
    """The block of x in a{equations}: the equations and the projector
    identities rows equivalent to them."""
    def block(a, x):
        t = _terms(a, x)
        clauses = {"equations": satisfies(a, x, equations)}
        for row in rows:
            clauses[row.label] = row.holds(t)
        return clauses
    return block


_one_inverse_block = _inverse_block(("1",), _ROWS["1"])
_outer_inverse_block = _inverse_block(("2",), _ROWS["2"])
_reflexive_inverse_block = _inverse_block(("1", "2"), _ROWS["12"])


def _commuting_inverse_block(a, x):
    """x in a{1,5}, and the projector identities equivalent to it."""
    ax, xa = a * x, x * a
    return {
        "equations": satisfies(a, x, ("1", "5")),
        "phi_ax=phi_xa=rho_{aR,rann(a)}": ax == xa and phieq(
            ax, principal(a, RIGHT), annihilator(a, RIGHT)),
        "ax_phi=xa_phi=rho_{Ra,lann(a)}": ax == xa and phieq(
            ax, principal(a, LEFT), annihilator(a, LEFT)),
    }


def _drazin_block(a, x):
    """x = a^D, and the projector clauses equivalent to it, with a^l for
    l = max(index, 1)."""
    ax, xa = a * x, x * a
    idx = drazin_index(a)
    al = a ** max(idx, 1)
    return {
        "equations": satisfies(a, x, ("2", "5", "1k"), k=idx),
        "phi_ax=phi_xa=rho_{a^lR,rann(a^l)}+xR<=a^lR":
            ax == xa
            and phieq(ax, principal(al, RIGHT), annihilator(al, RIGHT))
            and principal(x, RIGHT).is_subideal_of(principal(al, RIGHT)),
        "projectors+rann(a^l)<=rann(x)":
            ax == xa
            and phieq(xa, principal(al, LEFT), annihilator(al, LEFT))
            and annihilator(al, RIGHT).is_subideal_of(annihilator(x, RIGHT)),
    }


def _blocks_agree(block):
    """The clause of a T-*-projectors entry: block(a, x) agrees."""
    return lambda ctx, a, x: _require_agree(
        "the equations and projector identities", block(a, x))


# -- prescribed {1}-inverse families ---------------------------------------

_TWO_SHAPES = IdealConstraints.TWO_SHAPES
_ALL_SHAPES = IdealConstraints.SUPPORTED_SHAPES


def _product_cons(a, x, tags):
    """Constraints binding the xa/ax ideals realized by x."""
    return IdealConstraints(*[
        _realized(a, x, slot, True) if slot.tag in tags else None
        for slot in SLOTS])


def _constrained_inners(ctx, a, x, tags):
    """The constraints of _product_cons and the {1}-inverses meeting
    them, by brute force."""
    cons = _product_cons(a, x, tags)
    return cons, ctx.filtered(a, ("1",), cons.ideals, True)


def _one_family(ctx, a, x, tags):
    cons, want = _constrained_inners(ctx, a, x, tags)
    fam = one_inverse_family(a, cons)
    return fam is not None and fam.members() == want


def _one_solution_set(ctx, a, g, tags):
    cons, want = _constrained_inners(ctx, a, g, tags)
    return one_inverse_solution_set(a, cons, g) == want


# -- Mitsch order -----------------------------------------------------------

def _mitsch_cases(ctx):
    """The order axioms: a scope with three kinds of case.  leq is
    memoized and filled on demand, so the first case comes at once and a
    time budget can stop the check."""
    leq = ctx.leq
    for y in ctx.elements:
        yield "reflexive y=%s" % ctx.name(y), ("leq", y, y)
        for z in ctx.elements:
            label = "y=%s,z=%s" % (ctx.name(y), ctx.name(z))
            if leq(y, z) and leq(z, y):
                yield "antisym " + label, ("equal", y, z)
            for u in ctx.elements:
                if leq(y, z) and leq(z, u):
                    yield ("trans %s,u=%s" % (label, ctx.name(u)),
                           ("leq", y, u))


def _mitsch_order(ctx, kind, y, z):
    return y == z if kind == "equal" else ctx.leq(y, z)


# the side clauses that pick Y and Z out of a{2}, by two-ideal shape
_MITSCH_SETS = {
    ("S", "T"): (("x_in_S", "T<=rann(x)"), ("S<=xR", "rann(x)<=T")),
    ("Sp", "Tp"): (("x_in_S'", "T'<=lann(x)"), ("S'<=Rx", "lann(x)<=T'")),
    ("S", "Sp"): (("x_in_S", "x_in_S'"), ("S<=xR", "S'<=Rx")),
    ("T", "Tp"): (("T<=rann(x)", "T'<=lann(x)"),
                  ("rann(x)<=T", "lann(x)<=T'")),
}


def _mitsch_extremes(ctx, a, x, tags):
    """Y and Z are the outer inverses inside and around the ideals that x
    in a{2} prescribes in the shape tags.  x is the prescribed outer
    inverse, the one common member of Y and Z, the maximum of Y and the
    minimum of Z, and every y in Y lies below every z in Z."""
    ideals = (principal(x, RIGHT), annihilator(x, RIGHT),
              principal(x, LEFT), annihilator(x, LEFT))
    y_set, z_set = (ctx.filtered(a, ("2",), ideals, labels)
                    for labels in _MITSCH_SETS[tags])
    leq = ctx.leq
    rep = outer_with(a, IdealConstraints.of(tags, *ideals), reflexive=False)
    return (rep.exists and rep.value == x
            and [y for y in y_set if y in z_set] == [x]
            and all(leq(y, x) for y in y_set)
            and all(leq(x, z) for z in z_set)
            and all(leq(y, z) for y in y_set for z in z_set))


# -- prescribed outer and reflexive inverses --------------------------------

def _ideal_quadruples(ring):
    """The constraints of each two-ideal shape over the full ideal
    lattices, in canonical order."""
    lattice = {RIGHT: all_ideals(ring, RIGHT), LEFT: all_ideals(ring, LEFT)}
    side = {slot.tag: slot.side for slot in SLOTS}
    quadruples = []
    for tags in _TWO_SHAPES:
        for i in lattice[side[tags[0]]]:
            for j in lattice[side[tags[1]]]:
                by_tag = {tags[0]: i, tags[1]: j}
                quadruples.append(IdealConstraints(*[
                    by_tag.get(slot.tag) for slot in SLOTS]))
    return quadruples


def _prescribed(ctx, a, cons, reflexive):
    eqs = ("1", "2") if reflexive else ("2",)
    rep = outer_with(a, cons, reflexive=reflexive)
    ok = _is_brute_force(rep, ctx.filtered(a, eqs, cons.ideals, False))
    if rep.exists:
        # idempotent-generated ideal corollary: p = xa, q = ax
        x = rep.value
        p, q = x * a, a * x
        ok = ok and p * p == p and q * q == q
        if cons.right_principal is not None:
            ok = ok and principal(x, RIGHT) == principal(p, RIGHT)
        if cons.right_annihilator is not None:
            ok = ok and annihilator(x, RIGHT) == annihilator(q, RIGHT)
    return ok


def _projector_identities(a, x, tags, s, t, sp, tp):
    """The projector pair of the two-ideal shape tags over the bundle
    (S, T, S', T'): phi_ax = rho_{aR,T} when T is prescribed, else
    ax_phi = rho_{S',lann(a)}; phi_xa = rho_{S,rann(a)} when S is
    prescribed, else xa_phi = rho_{Ra,T'}."""
    if "T" in tags:
        ok = phieq(a * x, principal(a, RIGHT), t)
    else:
        ok = phieq(a * x, sp, annihilator(a, LEFT))
    if "S" in tags:
        return ok and phieq(x * a, s, annihilator(a, RIGHT))
    return ok and phieq(x * a, principal(a, LEFT), tp)


# clauses on x over the bundle (S, T, S', T'), by label
_SIDE_CLAUSES = {
    "xR<=S": lambda x, s, t, sp, tp:
        principal(x, RIGHT).is_subideal_of(s),
    "T'<=lann(x)": lambda x, s, t, sp, tp:
        tp.is_subideal_of(annihilator(x, LEFT)),
    "Rx<=S'": lambda x, s, t, sp, tp:
        principal(x, LEFT).is_subideal_of(sp),
    "T<=rann(x)": lambda x, s, t, sp, tp:
        t.is_subideal_of(annihilator(x, RIGHT)),
    "x_in_S": lambda x, s, t, sp, tp: s.contains(x),
    "x_in_S'": lambda x, s, t, sp, tp: sp.contains(x),
    "x_in_S_or_S'": lambda x, s, t, sp, tp:
        s.contains(x) or sp.contains(x),
    "S<=xR": lambda x, s, t, sp, tp:
        s.is_subideal_of(principal(x, RIGHT)),
    "rann(x)<=T": lambda x, s, t, sp, tp:
        annihilator(x, RIGHT).is_subideal_of(t),
    "S'<=Rx": lambda x, s, t, sp, tp:
        sp.is_subideal_of(principal(x, LEFT)),
    "lann(x)<=T'": lambda x, s, t, sp, tp:
        annihilator(x, LEFT).is_subideal_of(tp),
    "lann(S)<=lann(x)": lambda x, s, t, sp, tp:
        ideal_annihilator(s, LEFT).is_subideal_of(annihilator(x, LEFT)),
    "rann(S')<=rann(x)": lambda x, s, t, sp, tp:
        ideal_annihilator(sp, RIGHT).is_subideal_of(annihilator(x, RIGHT)),
}
# the side list of the prescribed-bundle grids
_GRID_SIDES = ("xR<=S", "T'<=lann(x)", "Rx<=S'", "T<=rann(x)")
# the side clauses of each shape in the T-12I clause grid
_REFLEXIVE_SIDES = {
    ("S", "T"): ("x_in_S", "lann(S)<=lann(x)", "T<=rann(x)"),
    ("Sp", "Tp"): ("x_in_S'", "rann(S')<=rann(x)", "T'<=lann(x)"),
    ("S", "Sp"): ("x_in_S_or_S'", "lann(S)<=lann(x)", "rann(S')<=rann(x)"),
    ("T", "Tp"): ("T<=rann(x)", "T'<=lann(x)"),
}


def _reflexive_clauses(a, x, tags, ideals, ctx):
    """The equivalent clauses characterizing x = a^(1,2) with the ideals
    tags of ideals = (S, T, S', T') prescribed, by label."""
    cons = IdealConstraints.of(tags, *ideals)
    pair = _projector_identities(a, x, tags, *ideals)
    a1_ideals = satisfies(a, x, ("1",)) and _check_constraints_on_x(
        a, x, cons, True)
    clauses = {}
    for label in _REFLEXIVE_SIDES[tags]:
        side = _SIDE_CLAUSES[label](x, *ideals)
        clauses["projectors+" + label] = pair and side
        clauses["a1+ideals+" + label] = a1_ideals and side
    rep = outer_with(a, cons, reflexive=True)
    clauses["closed_form"] = rep.exists and rep.value == x
    if tags == ("S", "T"):
        clauses["isomorphism_phi_b"] = _psi_equals_phi(
            a, x, *ideals[:2], ctx)
    return clauses


def _psi_equals_phi(a, x, s, t, ctx):
    """Tabulate psi(r) = ((phi_a)|_S)^{-1}(rho_{aR,T}(r)) and compare phi_x."""
    u = direct_sum(principal(a, RIGHT), t)
    if u is None or direct_sum(s, annihilator(a, RIGHT)) is None:
        return False
    smembers = s.members()
    for r in ctx.elements:
        target = u * r
        images = [c for c in smembers if a * c == target]
        if len(images) != 1:
            return False
        if x * r != images[0]:
            return False
    return True


def _reflexive_clause_grid(ctx, a, x, tags):
    ideals = (principal(x, RIGHT), annihilator(x, RIGHT),
              principal(x, LEFT), annihilator(x, LEFT))
    return _require_agree("equivalent clauses",
                          _reflexive_clauses(a, x, tags, ideals, ctx))


# -- weighted, one-sided, and constrained inverses --------------------------

# classes whose projector conditions are only sufficient for membership
_SUFFICIENT_ONLY = ("136", "148")


class _Fact:
    """An ideal fact on x that a star class pairs with a row; it is the
    same in both readings."""

    __slots__ = ("label", "holds", "reads")

    def __init__(self, label, test):
        self.label, self.holds, self.reads = label, test, test


# each class's conditions by label: a condition is a tuple of rows and
# facts that hold together
_STAR_CLASSES = {tag: {"+".join(item.label for item in cond): cond
                       for cond in conds} for tag, conds in {
    "13": [(row,) for row in _ROWS["c13"]],
    "14": [(row,) for row in _ROWS["c14"]],
    "134": product(_ROWS["c13"], _ROWS["c14"]),
    "136": product(_ROWS["c13"], _ROWS["c6"]),
    "148": product(_ROWS["c8"], _ROWS["c14"]),
    "137": zip(_ROWS["c13"], (
        _Fact("x_in_aR", lambda t: principal(t["a"], RIGHT).contains(t["x"])),
        _Fact("lann(a)<=lann(x)", lambda t: annihilator(t["a"], LEFT)
              .is_subideal_of(annihilator(t["x"], LEFT))))),
    "149": zip(_ROWS["c14"], (
        _Fact("rann(a)<=rann(x)", lambda t: annihilator(t["a"], RIGHT)
              .is_subideal_of(annihilator(t["x"], RIGHT))),
        _Fact("x_in_Ra", lambda t: principal(t["a"], LEFT).contains(t["x"])))),
}.items()}


def _star_conditions(tag, t, ideals):
    """Each condition of the class on the terms t, by label: its
    projector identities, or with ideals their ideal readings.  A row or
    fact of several conditions is evaluated once."""
    values = {}

    def value(item):
        if item not in values:
            values[item] = item.reads(t) if ideals else item.holds(t)
        return values[item]
    return {label: all(map(value, cond))
            for label, cond in _STAR_CLASSES[tag].items()}


def _star_class_clauses(a, x, tag):
    """The projector conditions attached to the class, by label."""
    if tag not in _STAR_CLASSES:
        raise PreconditionError("unknown star class %r" % tag)
    return _star_conditions(tag, _terms(a, x, a.star), False)


def star_class_membership(a, x, tag):
    """(member?, clauses): equations and projector conditions, reconciled.

    For the {1,3,6} and {1,4,8} classes the projector conditions are only
    sufficient, so clauses may be False for a member; any True clause
    still forces membership.
    """
    member = satisfies(a, x, special.STAR_CLASS_EQS[tag])
    clauses = _star_class_clauses(a, x, tag)
    if tag in _SUFFICIENT_ONLY:
        if any(clauses.values()) and not member:
            raise VerificationError(
                "a sufficient projector condition held for a non-member")
    else:
        _require_agree("the equations and projector conditions",
                       dict(clauses, equations=member))
    return member, clauses


def star_class_identity_report(a, tag, ctx):
    """Compare the class with its {1}-inverse ideal descriptions: the
    conditions of _star_class_clauses read in ideals.

    Returns the class members, the described set(s), and whether they are
    equal; for {1,3,6}/{1,4,8} only containment of the described set is
    asserted and equality is recorded.  ctx is the context of a's ring.
    """
    astar = a.star
    members = ctx.solutions(a, special.STAR_CLASS_EQS[tag])
    inners = [(x, _star_conditions(tag, _terms(a, x, astar), True))
              for x in ctx.polled(ctx.solutions(a, ("1",)))]
    # every condition must describe the same set
    described = {label: tuple(x for x, read in inners if read[label])
                 for label in _STAR_CLASSES[tag]}
    _require_agree("the ideal descriptions of class %s" % tag, described)
    described = list(next(iter(described.values())))
    if tag in _SUFFICIENT_ONLY and not set(described) <= set(members):
        raise VerificationError(
            "described set escapes the class %s" % tag)
    return {
        "members": members,
        "described": described,
        "equal": members == described,
        "sufficient_only": tag in _SUFFICIENT_ONLY,
    }


def _star_class(ctx, a, tag):
    for x in ctx.polled(ctx.elements):
        star_class_membership(a, x, tag)
    star_class_identity_report(a, tag, ctx)
    return True


def _require_bundles_agree(a, ideals):
    """The four equivalent prescribed bundles over (S, T, S', T') must
    give the same reflexive inverse."""
    reports = [outer_with(a, IdealConstraints.of(tags, *ideals),
                          reflexive=True)
               for tags in _TWO_SHAPES]
    if len({(rep.exists, rep.value) for rep in reports}) > 1:
        raise VerificationError(
            "equivalent prescribed-ideal bundles disagree")


def _bundle_grid(a, x, ideals, target, *extra):
    """The grid of the {1,2}-inverse of a prescribed by the bundle
    ideals = (S, T, S', T'): x is that inverse (target) iff the projector
    pair of some two-ideal shape holds, some side clause holds, and
    every extra list (label -> bool) has a true entry."""
    grid = (any(_projector_identities(a, x, tags, *ideals)
                for tags in _TWO_SHAPES)
            and any(_SIDE_CLAUSES[label](x, *ideals)
                    for label in _GRID_SIDES)
            and all(any(clauses.values()) for clauses in extra))
    _require_agree("the condition grid and its target",
                   {"target": target, "grid": grid})


def _require_grids(grids, x):
    """x passes _bundle_grid for each grid, given as (subject, bundle,
    inverse report, extra lists)."""
    for b, ideals, rep, extra in grids:
        _bundle_grid(b, x, ideals, rep.exists and rep.value == x, *extra)
    return True


def _weighted_mp_grids(a, e, f):
    ideals = special.weighted_mp_ideals(a, e, f)
    _require_bundles_agree(a, ideals)
    return [(a, ideals, special.weighted_mp(a, e, f), ())]


def _e_core_grids(a, e):
    """The e-core and the f-dual core grids, with f = e."""
    core = special.e_core_ideals(a, e)
    dual = special.f_dual_core_ideals(a, e)
    _require_bundles_agree(a, core)
    _require_bundles_agree(a, dual)
    return [(a, core, special.e_core(a, e), ()),
            (a, dual, special.f_dual_core(a, e), ())]


def _w_core_grids(a, w):
    """The w-core grid is the e-core grid of b = aw with e = 1 and the
    extra list (aR <= bR, lann(b) <= lann(a)); the v-dual core grid
    mirrors it with c = wa and v = w."""
    one = a.ring.one
    b, c = a * w, w * a
    b_extra = {
        "aR<=bR": principal(a, RIGHT).is_subideal_of(principal(b, RIGHT)),
        "lann(b)<=lann(a)":
            annihilator(b, LEFT).is_subideal_of(annihilator(a, LEFT))}
    c_extra = {
        "Ra<=Rc": principal(a, LEFT).is_subideal_of(principal(c, LEFT)),
        "rann(c)<=rann(a)":
            annihilator(c, RIGHT).is_subideal_of(annihilator(a, RIGHT))}
    return [(b, special.e_core_ideals(b, one), special.w_core(a, w),
             (b_extra,)),
            (c, special.f_dual_core_ideals(c, one),
             special.v_dual_core(a, w), (c_extra,))]


def _grid(grids_of):
    """The clause of a grid entry: x passes the grids of its group, which
    grids_of lists once per context."""
    return lambda ctx, *args: _require_grids(
        ctx.memo(grids_of, *args[:-1]), args[-1])


def _one_sided_core(ctx, a, w):
    # the right set is (aw){1,3,7} when aR <= awR, else empty; the left
    # set mirrors it with (wa){1,4,9} and Ra <= Rwa
    b, c = a * w, w * a
    right = ctx.solutions(b, special.STAR_CLASS_EQS["137"]) \
        if principal(a, RIGHT).is_subideal_of(principal(b, RIGHT)) else []
    left = ctx.solutions(c, special.STAR_CLASS_EQS["149"]) \
        if principal(a, LEFT).is_subideal_of(principal(c, LEFT)) else []
    rep = special.right_w_core(a, w)
    if rep.exists != bool(right) or \
            (rep.exists and rep.extra["members"] != right):
        raise VerificationError("right w-core set mismatch")
    repl = special.left_v_dual_core(a, w)
    if repl.exists != bool(left) or \
            (repl.exists and repl.extra["members"] != left):
        raise VerificationError("left v-dual core set mismatch")
    wc = special.w_core(a, w)
    if wc.exists and wc.value not in right:
        raise VerificationError(
            "w-core inverse escapes the right w-core set")
    vd = special.v_dual_core(a, w)
    if vd.exists and vd.value not in left:
        raise VerificationError("v-dual core inverse escapes the left set")
    return True


def _bc_ideal_formulations(a, b, c):
    """The two g-independent ideal formulations of each construction
    item, by label."""
    cab, ab = c * a * b, a * b
    return {
        "x_in_a1": (
            principal(ab, RIGHT) == principal(a, RIGHT)
            and annihilator(cab, RIGHT) == annihilator(ab, RIGHT),
            principal(ab, RIGHT) == principal(a, RIGHT)
            and principal(cab, LEFT) == principal(ab, LEFT)),
        "outer_with_xR=bR": (
            annihilator(cab, RIGHT) == annihilator(b, RIGHT),
            principal(cab, LEFT) == principal(b, LEFT)),
        "outer_with_rann(x)=rann(c)": (
            principal(cab, RIGHT) == principal(c, RIGHT),
            annihilator(cab, LEFT) == annihilator(c, LEFT)),
        "outer_with_Rx=Rc": (
            annihilator(cab, LEFT) == annihilator(c, LEFT),
            principal(cab, RIGHT) == principal(c, RIGHT)),
        "outer_with_lann(x)=lann(b)": (
            principal(cab, LEFT) == principal(b, LEFT),
            annihilator(cab, RIGHT) == annihilator(b, RIGHT)),
    }


def bc_construction_clauses(a, b, c, inners):
    """Theorem items for each x = b g c with g in inners = (cab){1}.

    Returns {x: clause report}; each item's formulation in x must agree
    with its two ideal formulations or VerificationError is raised.
    """
    ideal_forms = _bc_ideal_formulations(a, b, c)
    reports = {}
    for g in inners:
        x = b * g * c
        if x in reports:
            continue
        in_a2 = satisfies(a, x, ("2",))
        report = {
            "x_in_a1": satisfies(a, x, ("1",)),
            "outer_with_xR=bR":
                in_a2 and principal(x, RIGHT) == principal(b, RIGHT),
            "outer_with_rann(x)=rann(c)":
                in_a2 and annihilator(x, RIGHT) == annihilator(c, RIGHT),
            "outer_with_Rx=Rc":
                in_a2 and principal(x, LEFT) == principal(c, LEFT),
            "outer_with_lann(x)=lann(b)":
                in_a2 and annihilator(x, LEFT) == annihilator(b, LEFT),
        }
        for label, value in report.items():
            first, second = ideal_forms[label]
            _require_agree("the formulations of %s" % label,
                           {"in x": value, "first ideal form": first,
                            "second ideal form": second})
        reports[x] = report
    return reports


# the construction-clause items that place b (cab)^(1) c in each flavor
_BC_FLAVOR_CLAUSES = {
    "full": ("outer_with_xR=bR", "outer_with_Rx=Rc"),
    "right_hybrid": ("outer_with_xR=bR", "outer_with_rann(x)=rann(c)"),
    "left_hybrid": ("outer_with_Rx=Rc", "outer_with_lann(x)=lann(b)"),
    "annihilator": ("outer_with_rann(x)=rann(c)",
                    "outer_with_lann(x)=lann(b)"),
}

# each (b,c) flavor's prescribed ideals (S, T, S', T'), for xR = S,
# rann(x) = T, Rx = S' and lann(x) = T', as the paper states them: the
# brute-force reference reads these, not the library's flavor mapping
_BC_FLAVOR_IDEALS = {
    "full": lambda b, c: (
        principal(b, RIGHT), None, principal(c, LEFT), None),
    "right_hybrid": lambda b, c: (
        principal(b, RIGHT), annihilator(c, RIGHT), None, None),
    "left_hybrid": lambda b, c: (
        None, None, principal(c, LEFT), annihilator(b, LEFT)),
    "annihilator": lambda b, c: (
        None, annihilator(c, RIGHT), None, annihilator(b, LEFT)),
}


def _bc(ctx, a, b, c):
    cab = c * a * b
    # b g c -> its clause report, g in (cab){1}
    closed = bc_construction_clauses(a, b, c,
                                     ctx.polled(ctx.solutions(cab, ("1",))))
    hyps = dict(zip(("right_hybrid", "left_hybrid"),
                    special.bc_invertibility_hypotheses(a, b, c)))
    if any(hyps.values()) and not is_invertible(cab):
        raise VerificationError(
            "cab must be invertible under the (b,c) invertibility "
            "hypotheses")
    # the extras are flavor-independent, so only the full flavor asks
    # bc_inverse for them
    reps = {"full": special.bc_inverse(a, b, c, "full")}
    for flavor in special.BC_FLAVORS[1:]:
        reps[flavor] = special.bc_flavor_inverse(a, b, c, flavor)
    form = reps["full"].extra.get("closed_form")
    if bool(closed) != (form in closed):
        raise VerificationError("the closed form is not b (cab)^(1) c")
    for flavor, rep in reps.items():
        want = ctx.filtered(a, ("2",), _BC_FLAVOR_IDEALS[flavor](b, c),
                            False)
        if not _is_brute_force(rep, want):
            raise VerificationError(
                "(b,c) %s inverse disagrees with brute force" % flavor)
        if form in closed and rep.value != form and all(
                closed[form][item] for item in _BC_FLAVOR_CLAUSES[flavor]):
            raise VerificationError(
                "the closed form satisfies the %s flavor but is not its "
                "inverse" % flavor)
        if hyps.get(flavor) and rep.value != b * inverse_of_unit(cab) * c:
            raise VerificationError(
                "b (cab)^{-1} c is not the %s inverse" % flavor)
    return _require_bc_equality_clauses(a, b, c, reps, closed, ctx)


def _require_bc_equality_clauses(a, b, c, reps, closed, ctx):
    """The mutually equivalent clauses relating the four (b,c) flavors
    hold at every x together or not at all; reps holds the flavors'
    inverses and closed the clause reports keyed by each b (cab)^(1) c."""
    cab = c * a * b
    cab_regular = bool(closed)
    b_regular = any_inner(b) is not None
    c_regular = any_inner(c) is not None
    rc, br = principal(c, LEFT), principal(b, RIGHT)
    closed_forms = None
    if cab_regular and (
            principal(cab, LEFT) == principal(b, LEFT)
            or annihilator(cab, RIGHT) == annihilator(b, RIGHT)) and (
            principal(cab, RIGHT) == principal(c, RIGHT)
            or annihilator(cab, LEFT) == annihilator(c, LEFT)):
        closed_forms = set(closed)
    for x in ctx.polled(ctx.elements):
        is_flavor = {f: rep.exists and rep.value == x
                     for f, rep in reps.items()}
        clauses = {
            "right_hybrid+x_in_Rc_or_c_regular":
                is_flavor["right_hybrid"] and (c_regular or rc.contains(x)),
            "right_hybrid+cab_regular":
                is_flavor["right_hybrid"] and cab_regular,
            "left_hybrid+x_in_bR_or_b_regular":
                is_flavor["left_hybrid"] and (b_regular or br.contains(x)),
            "left_hybrid+cab_regular":
                is_flavor["left_hybrid"] and cab_regular,
            "full": is_flavor["full"],
            "annihilator+both_memberships":
                is_flavor["annihilator"] and (b_regular or br.contains(x))
                and (c_regular or rc.contains(x)),
            "annihilator+cab_regular":
                is_flavor["annihilator"] and cab_regular,
            "closed_form_for_every_inner": closed_forms == {x},
        }
        _require_agree("(b,c) equality clauses", clauses)
    return True


def _pq(ctx, a, p, q):
    one, zero = a.ring.one, a.ring.zero
    outer = ctx.solutions(a, ("2",))
    pr, qr = principal(p, RIGHT), principal(q, RIGHT)
    ik = special.image_kernel_inverse(a, p, q)
    want = ctx.filtered(a, ("2",), (pr, qr, None, None), False)
    if not _is_brute_force(ik, want):
        raise VerificationError(
            "image-kernel inverse disagrees with brute force")
    dw = special.djordjevic_wei_inverse(a, p, q)
    direct = [x for x in outer if x * a == p and a * x == one - q]
    if not _is_brute_force(dw, direct):
        raise VerificationError(
            "Djordjevic-Wei inverse disagrees with brute force")
    rann_p = annihilator(p, RIGHT)
    if dw.exists and (
            rann_p != phi_preimage(a, qr)
            or principal(q, LEFT) != phi_preimage(a, annihilator(p, LEFT))):
        raise VerificationError(
            "rann(p) != phi_a^{-1}(qR) or Rq != a_phi^{-1}(lann(p))")
    # the Djordjevic-Wei items, which must agree at every x
    in_a2 = set(outer)
    rann_q = annihilator(q, RIGHT)
    weak_right = multiply_ideal(
        a, principal(one - p, RIGHT)).is_subideal_of(qr)
    weak_left = multiply_ideal(a, principal(q, LEFT)).is_subideal_of(
        principal(one - p, LEFT))
    for x in ctx.polled(ctx.elements):
        ax, xa = a * x, x * a
        items = {
            "definition": x in in_a2 and xa == p and ax == one - q,
            "weakened_right": weak_right and x * a * p == p
                and one - q == ax and x * q == zero,
            "weakened_left": weak_left and p == xa and p * x == x
                and (one - q) * a * x == one - q,
            "ideal_inclusions": x in in_a2 and _pq_ideal_inclusions(
                xa, ax, pr, qr, rann_p, rann_q),
        }
        _require_agree("(p,q) characterizations", items)
    return True


def _pq_ideal_inclusions(xa, ax, pr, qr, rann_p, rann_q):
    """The ideal-inclusion item of the (p,q) characterization: xaR and
    rann(xa) nest with pR and rann(p), and axR and rann(ax) with rann(q)
    and qR, each pair in one direction."""
    xar, rann_xa = principal(xa, RIGHT), annihilator(xa, RIGHT)
    axr, rann_ax = principal(ax, RIGHT), annihilator(ax, RIGHT)
    return (
        (xar.is_subideal_of(pr) and rann_xa.is_subideal_of(rann_p))
        or (pr.is_subideal_of(xar) and rann_p.is_subideal_of(rann_xa))
    ) and (
        (axr.is_subideal_of(rann_q) and rann_ax.is_subideal_of(qr))
        or (rann_q.is_subideal_of(axr) and qr.is_subideal_of(rann_ax)))


def _bott_duffin(ctx, a, p):
    rep = special.bott_duffin_inverse(a, p)
    if rep.exists != is_invertible(a.ring.one - p + a * p):
        raise VerificationError("Bott-Duffin existence mismatch")
    rep2 = special.bott_duffin_inverse(a, p, p)
    if rep.exists and (not rep2.exists or rep2.value != rep.value):
        raise VerificationError("Bott-Duffin (p, 1-p) inverse mismatch")
    return True


def regular_reflexive_iff_idempotent_ideals(a, ctx):
    """a{1,2} nonempty iff idempotents p, q realize rann(a) = rann(p)
    and aR = qR; returns the four clause values, which the catalog
    requires to agree.  ctx is the context of a's ring."""
    idems = ctx.idempotents
    rann_a, lann_a = annihilator(a, RIGHT), annihilator(a, LEFT)
    ar, ra = principal(a, RIGHT), principal(a, LEFT)
    clauses = {
        "a12_nonempty": bool(ctx.solutions(a, ("1", "2"))),
        "rann+right_range": any(
            annihilator(p, RIGHT) == rann_a and principal(q, RIGHT) == ar
            for p in idems for q in idems),
        "left_range+lann": any(
            principal(p, LEFT) == ra and annihilator(q, LEFT) == lann_a
            for p in idems for q in idems),
        "both_ranges": any(
            principal(p, LEFT) == ra and principal(q, RIGHT) == ar
            for p in idems for q in idems),
    }
    return clauses


def _power_preperiod(a):
    """Least k with a^k in the cycle of a^0, a^1, ...: the Drazin index
    of an element of a finite ring, from its definition."""
    seen = {}
    power = a.ring.one
    while power not in seen:
        seen[power] = len(seen)
        power = power * a
    return seen[power]


def _named_inverses(ctx, a):
    grp = group_inverse(a)
    want = ctx.solutions(a, NAMED_SYSTEMS["group"])
    if not _is_brute_force(grp, want):
        raise VerificationError("group inverse mismatch")
    drz = drazin_inverse(a)
    if not drz.exists:
        raise VerificationError("Drazin inverse missing")
    k = drazin_index(a)
    if k != _power_preperiod(a):
        raise VerificationError("Drazin index mismatch")
    wantd = ctx.solutions(a, NAMED_SYSTEMS["drazin"], k=max(k, 1))
    if wantd != [drz.value]:
        raise VerificationError("Drazin inverse mismatch")
    if ctx.star:
        for rep in (moore_penrose(a), core_inverse(a),
                    dual_core_inverse(a)):
            if not _is_brute_force(
                    rep, ctx.solutions(a, NAMED_SYSTEMS[rep.name])):
                raise VerificationError(
                    "%s disagrees with brute force" % rep.name)
    return True


_PAIRS = _scope("a", "x")
_PRESCRIBED = _scope("a", ("shape", lambda ctx, a: ctx.memo(
    _ideal_quadruples, ctx.ring)))

CATALOG = (
    TheoremCase("T-invertible-lemma",
                "all elements a",
                _scope("a"), _invertible),
    TheoremCase("L-idempotent-ideals",
                "all idempotent pairs (p, q)",
                _idempotent_cases, _idempotent_ideals),
    TheoremCase("L-regular-ideal-inclusions",
                "all element pairs (a, b)",
                _scope("a", "b"), _regular_inclusions),
    TheoremCase("L-star-ideal-duality",
                "all element pairs (a, b); *-rings only",
                _scope("a", "b", star=True), _star_ideal_duality),
    TheoremCase("L-orthogonal-range",
                "all elements a; *-rings only",
                _scope("a", star=True), _orthogonal_range),
    TheoremCase("L-projector-algebra",
                "all direct-sum ideal pairs x all elements",
                _scope(("side", (RIGHT, LEFT)),
                       ("S", lambda ctx, side: ctx.memo(
                           all_ideals, ctx.ring, side)),
                       ("T", _complements)),
                _projector_algebra),
    TheoremCase("L-inverse-product-ideals",
                "all pairs (a, x)",
                _PAIRS, _inverse_product_ideals),
    TheoremCase("L-core-equation-systems",
                "all elements a (equation subsets {6,7},{3,6,7},...)",
                _scope("a"), _core_equation_systems),
    TheoremCase("L-inner-of-product",
                "all pairs (a, b) x all inner inverses of ab",
                _scope("a", ("b", _with_inner_product)), _inner_of_product),
    TheoremCase("R-reflexive-upgrade",
                "all pairs (a, x)",
                _PAIRS, _reflexive_upgrade),
    TheoremCase("T-1I-projectors", "all pairs (a, x)",
                _PAIRS, _blocks_agree(_one_inverse_block)),
    TheoremCase("T-2I-projectors", "all pairs (a, x)",
                _PAIRS, _blocks_agree(_outer_inverse_block)),
    TheoremCase("T-12I-projectors", "all pairs (a, x)",
                _PAIRS, _blocks_agree(_reflexive_inverse_block)),
    TheoremCase("T-15-projectors", "all pairs (a, x)",
                _PAIRS, _blocks_agree(_commuting_inverse_block)),
    TheoremCase("T-drazin-projectors", "all pairs (a, x)",
                _PAIRS, _blocks_agree(_drazin_block)),
    TheoremCase("T-one-prescribed-families",
                "all a x inner inverses x 8 constraint shapes",
                _scope("a", ("x", lambda ctx, a: ctx.solutions(a, ("1",))),
                       ("shape", _ALL_SHAPES)),
                _one_family),
    TheoremCase("P-one-solution-sets",
                "all a x inner inverses x 8 constraint shapes",
                _scope("a", ("g", lambda ctx, a: ctx.solutions(a, ("1",))),
                       ("shape", _ALL_SHAPES)),
                _one_solution_set),
    TheoremCase("T-mitsch-order",
                "order axioms over all element triples",
                _mitsch_cases, _mitsch_order),
    TheoremCase("T-mitsch-extremes",
                "all a x outer inverses x 4 two-ideal shapes",
                _scope("a", ("x", lambda ctx, a: ctx.solutions(a, ("2",))),
                       ("shape", _TWO_SHAPES)),
                _mitsch_extremes),
    TheoremCase("T-2I-prescribed",
                "all a x ideal pairs from the full ideal lattice",
                _PRESCRIBED,
                lambda ctx, a, cons: _prescribed(ctx, a, cons, False)),
    TheoremCase("T-12I-prescribed",
                "all a x ideal pairs from the full ideal lattice",
                _PRESCRIBED,
                lambda ctx, a, cons: _prescribed(ctx, a, cons, True)),
    TheoremCase("T-12I-clause-grid",
                "all pairs (a, x) x 4 two-ideal shapes",
                _scope("a", "x", ("shape", _TWO_SHAPES)),
                _reflexive_clause_grid),
    TheoremCase("T-star-classes",
                "all a x 7 equation classes; *-rings only",
                _scope("a", ("class", tuple(sorted(special.STAR_CLASS_EQS))),
                       star=True),
                _star_class),
    TheoremCase("T-weighted-mp-grid",
                "all a x weight pairs x all x; *-rings only",
                _scope("a", "e", "f", "x", star=True),
                _grid(_weighted_mp_grids)),
    TheoremCase("T-e-core-grid",
                "all a x weights x all x; *-rings only",
                _scope("a", "e", "x", star=True), _grid(_e_core_grids)),
    TheoremCase("T-w-core-grid",
                "all a x w x all x; *-rings only",
                _scope("a", "w", "x", star=True), _grid(_w_core_grids)),
    TheoremCase("T-one-sided-core",
                "all pairs (a, w); *-rings only",
                _scope("a", "w", star=True), _one_sided_core),
    TheoremCase("T-bc-inverses",
                "all triples (a, b, c), all inner inverses of cab, all x",
                _scope("a", "b", "c"), _bc),
    TheoremCase("T-pq-inverses",
                "all a x idempotent pairs x all x",
                _scope("a", "p", "q"), _pq),
    TheoremCase("T-bott-duffin",
                "all a x idempotents p",
                _scope("a", "p"), _bott_duffin),
    TheoremCase("T-regular-idempotent-ideals",
                "all elements a",
                _scope("a"), lambda ctx, a: _require_agree(
                    "reflexive-existence characterizations",
                    regular_reflexive_iff_idempotent_ideals(a, ctx))),
    TheoremCase("O-named-inverses",
                "all elements a, named inverses vs brute force",
                _scope("a"), _named_inverses),
)

CATALOG_BY_ID = {case.id: case for case in CATALOG}


def verify(theorem_id, ring, max_cases=None, max_seconds=None):
    """Run one catalog entry exhaustively; first counterexample wins.

    This is the one loop over an entry's cases.  It takes the scope's
    next (label, args), checks the budget and only then runs the clause.
    A library error raised by the clause fails that case under its
    label; one raised by the scope fails the next case, numbered.  With
    max_seconds, the context's sweeps poll the deadline too, and a case
    they stop is not counted.
    """
    if theorem_id not in CATALOG_BY_ID:
        raise PreconditionError(
            "unknown theorem id %r; catalog: %s" % (
                theorem_id, ", ".join(sorted(CATALOG_BY_ID))))
    if not ring.finite:
        raise NotEnumerableError("verification needs a finite ring")
    case = CATALOG_BY_ID[theorem_id]
    start = time.monotonic()
    ctx = _Context.of(ring)
    checked = 0
    counterexample = None
    complete = True
    cases = case.scope(ctx)
    if max_seconds is not None:
        ctx.deadline = start + max_seconds
    try:
        while True:
            try:
                label, args = next(cases)
            except StopIteration:
                break
            except RingInvError as exc:
                label, args = "case %d raised %s: %s" % (
                    checked + 1, type(exc).__name__, exc), None
            # the budget is checked before the clause runs, so no case
            # starts past it, and a theorem with exactly max_cases cases
            # completes
            if (max_cases is not None and checked >= max_cases) or (
                    max_seconds is not None
                    and time.monotonic() - start > max_seconds):
                complete = False
                break
            try:
                ok = args is not None and case.clause(ctx, *args)
            except RingInvError:
                ok = False
            checked += 1
            if not ok:
                counterexample = str(label)
                break
    except _OutOfTime:
        complete = False
    finally:
        ctx.deadline = None
    return VerificationReport(ring.short_name, theorem_id, checked,
                              counterexample, time.monotonic() - start,
                              complete)


def verify_all(ring, theorem_ids=None, max_cases=None, max_seconds=None):
    """Run a list of catalog entries (default: the whole catalog)."""
    if theorem_ids is None:
        theorem_ids = [case.id for case in CATALOG]
    return [verify(tid, ring, max_cases=max_cases,
                   max_seconds=max_seconds) for tid in theorem_ids]
