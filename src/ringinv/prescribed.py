"""Inverses with prescribed principal and annihilator ideals.

Constraint bundles name up to four ideals:
  S  (right_principal)   T  (right_annihilator)
  S' (left_principal)    T' (left_annihilator)

For {1}-inverse families the constraints bind the ideals of xa/ax
(xaR = S, rann(ax) = T, Rax = S', lann(xa) = T'); for outer and reflexive
inverses they bind x's own ideals (xR = S, rann(x) = T, Rx = S',
lann(x) = T').

Written in ring and ideal operations only, once for every backend.
"""

from .errors import NotEnumerableError, PreconditionError, VerificationError
from .geninv import InverseReport, any_inner, satisfies
from .ideals import (LEFT, RIGHT, annihilator, direct_sum, ideal_annihilator,
                     multiply_ideal, principal)
from .rings import Coset, MatrixRing


class IdealConstraints:
    """Prescribed ideal bundle; at least one field must be set."""

    __slots__ = ("right_principal", "right_annihilator",
                 "left_principal", "left_annihilator")

    def __init__(self, right_principal=None, right_annihilator=None,
                 left_principal=None, left_annihilator=None):
        for ideal, side, name in (
                (right_principal, RIGHT, "right_principal"),
                (right_annihilator, RIGHT, "right_annihilator"),
                (left_principal, LEFT, "left_principal"),
                (left_annihilator, LEFT, "left_annihilator")):
            if ideal is not None and ideal.side != side:
                raise PreconditionError("%s must be a %s ideal" % (name, side))
        if (right_principal is None and right_annihilator is None
                and left_principal is None and left_annihilator is None):
            raise PreconditionError("at least one constraint is required")
        self.right_principal = right_principal
        self.right_annihilator = right_annihilator
        self.left_principal = left_principal
        self.left_annihilator = left_annihilator

    def shape(self):
        """Tuple of constraint tags, e.g. ('S', 'T') or ('Sp',)."""
        tags = []
        if self.right_principal is not None:
            tags.append("S")
        if self.right_annihilator is not None:
            tags.append("T")
        if self.left_principal is not None:
            tags.append("Sp")
        if self.left_annihilator is not None:
            tags.append("Tp")
        return tuple(tags)

    SUPPORTED_SHAPES = (("S", "T"), ("Sp", "Tp"), ("S", "Sp"), ("T", "Tp"),
                        ("S",), ("T",), ("Sp",), ("Tp",))

    def require_supported(self):
        if self.shape() not in self.SUPPORTED_SHAPES:
            raise PreconditionError(
                "unsupported constraint shape %r" % (self.shape(),))


class ParamFamily:
    """The coset base + left_mult * y * right_mult (y free over the ring).

    With base chosen so that it satisfies the solution-set proposition's
    hypotheses, this coset is exactly the prescribed {1}-inverse set.
    """

    __slots__ = ("subject", "base", "left_mult", "right_mult")

    def __init__(self, subject, base, left_mult, right_mult):
        self.subject = subject
        self.base = base
        self.left_mult = left_mult
        self.right_mult = right_mult

    def element(self, y):
        return self.base + self.left_mult * y * self.right_mult

    def coset(self):
        """The family as a Coset, whose members iterate in canonical
        order: base plus the additive group spanned by
        left_mult * e * right_mult over the additive generators e (the
        span of L E_ij R, or gcd(lr, n)Z_n)."""
        ring = self.subject.ring
        if not ring.finite:
            raise NotEnumerableError("family over an infinite ring")
        return Coset.spanned(self.base, [
            self.left_mult * e * self.right_mult
            for e in ring.additive_generators()])

    def members(self):
        """The coset's members as a list, in canonical order."""
        return self.coset().members()

    def __repr__(self):
        return "ParamFamily(base=%r)" % (self.base,)


def _check_constraints_on_x(a, x, cons, bind_products):
    """Do the prescribed ideal equalities hold for x?

    bind_products=True checks xaR/rann(ax)/Rax/lann(xa) ({1}-inverse mode);
    otherwise xR/rann(x)/Rx/lann(x).
    """
    c = cons
    if bind_products:
        checks = (
            (c.right_principal, lambda: principal(x * a, RIGHT)),
            (c.right_annihilator, lambda: annihilator(a * x, RIGHT)),
            (c.left_principal, lambda: principal(a * x, LEFT)),
            (c.left_annihilator, lambda: annihilator(x * a, LEFT)),
        )
    else:
        checks = (
            (c.right_principal, lambda: principal(x, RIGHT)),
            (c.right_annihilator, lambda: annihilator(x, RIGHT)),
            (c.left_principal, lambda: principal(x, LEFT)),
            (c.left_annihilator, lambda: annihilator(x, LEFT)),
        )
    return all(ideal is None or ideal == actual()
               for ideal, actual in checks)


def one_inverse_family(a, cons):
    """{1}-inverses with prescribed xa/ax ideals, as a ParamFamily or None.

    The base element is the projector-built candidate
    rho(1) * a^(1) * rho'(1) (absent factors replaced by 1); the coset
    multipliers come from _family_multipliers, leaving the unpinned side
    of the perturbation free when only one ideal is prescribed.
    """
    cons.require_supported()
    ring = a.ring
    one = ring.one
    g = any_inner(a)
    if g is None:
        return None
    s, t = cons.right_principal, cons.right_annihilator
    sp, tp = cons.left_principal, cons.left_annihilator
    left = right = one
    if s is not None:
        left = direct_sum(s, annihilator(a, RIGHT))
    if tp is not None:
        left = direct_sum(principal(a, LEFT), tp)
    if t is not None:
        right = direct_sum(principal(a, RIGHT), t)
    if sp is not None:
        right = direct_sum(sp, annihilator(a, LEFT))
    if left is None or right is None:
        return None
    base = left * g * right
    if not satisfies(a, base, ("1",)):
        raise VerificationError("constructed family base is not in a{1}")
    if not _check_constraints_on_x(a, base, cons, bind_products=True):
        raise VerificationError(
            "constructed family base violates the prescribed ideals")
    return ParamFamily(a, base, *_family_multipliers(a, base, cons))


def _family_multipliers(a, base, cons):
    """(left, right) coset multipliers for the constraint shape.

    A single constraint pins only one of the products xa, ax to a
    projector unit, so the other side of the perturbation is free:
    {x : xa = base*a} is base + y(1 - a*base), and {x : ax = a*base}
    is base + (1 - base*a)y.  Two constraints pin both products.
    """
    one = a.ring.one
    shape = cons.shape()
    if shape in (("S",), ("Tp",)):
        return one, one - a * base
    if shape in (("T",), ("Sp",)):
        return one - base * a, one
    return one - base * a, one - a * base


def one_inverse_solution_set(a, cons, fixed_inner):
    """The coset of inner inverses through g meeting the constraints.

    Requires the matching solution-set hypotheses: g must be an inner
    inverse whose xa/ax ideals realize every prescribed constraint, and
    the prescribed ideals must split the ring as the proposition demands.
    With two constraints the coset is g + (1-ga)y(1-ag); with a single
    constraint only one product is pinned and the matching side of the
    perturbation is free.
    """
    cons.require_supported()
    ring = a.ring
    if not ring.finite:
        raise NotEnumerableError("solution sets need a finite ring")
    g = fixed_inner
    if not satisfies(a, g, ("1",)):
        raise PreconditionError("fixed_inner is not an inner inverse")
    s, t = cons.right_principal, cons.right_annihilator
    sp, tp = cons.left_principal, cons.left_annihilator
    ok = True
    if s is not None:
        ok = ok and direct_sum(s, annihilator(a, RIGHT)) is not None
        ok = ok and principal(g * a, RIGHT) == s
    if t is not None:
        ok = ok and direct_sum(principal(a, RIGHT), t) is not None
        ok = ok and annihilator(a * g, RIGHT) == t
    if sp is not None:
        ok = ok and direct_sum(sp, annihilator(a, LEFT)) is not None
        ok = ok and principal(a * g, LEFT) == sp
    if tp is not None:
        ok = ok and direct_sum(principal(a, LEFT), tp) is not None
        ok = ok and annihilator(g * a, LEFT) == tp
    if not ok:
        raise PreconditionError(
            "fixed_inner does not satisfy the solution-set hypotheses")
    fam = ParamFamily(a, g, *_family_multipliers(a, g, cons))
    return fam.members()


def _unique_outer(a, s, t):
    """The unique x in S with ax = rho_{aS,T}(1), or None.

    For left ideals S', T' the mirror: the unique x in S' with
    xa = rho_{S'a,T'}(1).  Existence: R = aS (+) T and rann(a) cap S = {0}
    (R = S'a (+) T' and lann(a) cap S' = {0}).
    """
    u = direct_sum(multiply_ideal(a, s), t)
    if u is None:
        return None, "R = aS + T is not a direct sum"
    if not annihilator(a, s.side).intersect(s).is_zero():
        return None, "rann(a) meets S nontrivially"
    x = _solve_in_ideal(a, s, u)
    if x is None:  # pragma: no cover - excluded by the existence theorem
        raise VerificationError("no element of S maps to the projector unit")
    return x, ""


def _solve_in_ideal(a, s, u):
    """Some x in the ideal s with a*x == u (right) or x*a == u (left).

    x = e y for s = eR and any y with (ae) y = u, which exists as u lies
    in aS = aeR, and the mirror x = y e with y (ea) = u for s = Re.  x is
    the same for every such y when rann(a) meets S only in 0.
    """
    e = s.generator()
    if s.side == RIGHT:
        y = a.ring.solve(a * e, u, RIGHT)
        return None if y is None else e * y
    y = a.ring.solve(e * a, u, LEFT)
    return None if y is None else y * e


def outer_with(a, cons, reflexive=False):
    """a^(2) (or a^(1,2)) with prescribed ideals of x itself."""
    cons.require_supported()
    if reflexive:
        return _reflexive_dispatch(a, cons)
    shape = cons.shape()
    s, t = cons.right_principal, cons.right_annihilator
    sp, tp = cons.left_principal, cons.left_annihilator
    name = "outer-prescribed"
    if shape in (("S", "T"), ("Sp", "Tp")):
        x, why = _unique_outer(a, s or sp, t or tp)
    elif shape == ("S", "Sp"):
        x, why = _unique_outer(a, s, ideal_annihilator(sp, RIGHT))
        if x is not None and principal(x, LEFT) != sp:
            x, why = None, "Rx != S' for the right-constructed candidate"
    elif shape == ("T", "Tp"):
        x, why = _outer_from_annihilators(a, t, tp)
    else:
        raise PreconditionError(
            "outer inverses need two prescribed ideals, got %r" % (shape,))
    if x is None:
        return InverseReport(name, False, reason=why)
    if not satisfies(a, x, ("2",)):
        raise VerificationError("prescribed outer inverse fails xax = x")
    if not _check_constraints_on_x(a, x, cons, bind_products=False):
        raise VerificationError("prescribed outer inverse ideal mismatch")
    return InverseReport(name, True, x, satisfied=("2",))


def _outer_from_annihilators(a, t, tp):
    """a^(2) with rann(x) = T and lann(x) = T'.

    When it exists, xR is forced (its members are killed exactly by T'),
    so we recover S from T' and reuse the (S, T) path.
    """
    s = ideal_annihilator(tp, RIGHT)  # right ideal with lann(S) ⊇ T'
    x, why = _unique_outer(a, s, t)
    if x is not None and annihilator(x, LEFT) != tp:
        x, why = None, "lann(x) != T' for the forced candidate"
    if x is None and not isinstance(a.ring, MatrixRing):
        # the reason the Z_n JSON output gives for this shape
        why = "no element satisfies the annihilator conditions"
    return x, why


def _reflexive_dispatch(a, cons):
    shape = cons.shape()
    s, t = cons.right_principal, cons.right_annihilator
    sp, tp = cons.left_principal, cons.left_annihilator
    if shape == ("S", "T"):
        conds = [(principal(a, RIGHT), t, "R = aR + T"),
                 (s, annihilator(a, RIGHT), "R = S + rann(a)")]
        build = lambda u, g: u[1] * g * u[0]
    elif shape == ("Sp", "Tp"):
        conds = [(principal(a, LEFT), tp, "R = Ra + T'"),
                 (sp, annihilator(a, LEFT), "R = S' + lann(a)")]
        build = lambda u, g: u[0] * g * u[1]
    elif shape == ("S", "Sp"):
        conds = [(principal(a, RIGHT), ideal_annihilator(sp, RIGHT),
                  "R = aR + rann(S')"),
                 (s, annihilator(a, RIGHT), "R = S + rann(a)"),
                 (principal(a, LEFT), ideal_annihilator(s, LEFT),
                  "R = Ra + lann(S)"),
                 (sp, annihilator(a, LEFT), "R = S' + lann(a)")]
        build = lambda u, g: u[1] * g * u[3]
    elif shape == ("T", "Tp"):
        conds = [(principal(a, RIGHT), t, "R = aR + T"),
                 (principal(a, LEFT), tp, "R = Ra + T'")]
        build = lambda u, g: u[1] * g * u[0]
    else:
        raise PreconditionError(
            "reflexive inverses need two prescribed ideals, got %r"
            % (shape,))
    units = []
    for first, second, label in conds:
        u = direct_sum(first, second)
        if u is None:
            return InverseReport("reflexive-prescribed", False,
                                 reason="%s is not a direct sum" % label)
        units.append(u)
    g = any_inner(a)
    if g is None:
        return InverseReport("reflexive-prescribed", False,
                             reason="a is not regular: a{1} is empty")
    x = build(units, g)
    if not satisfies(a, x, ("1", "2")):
        raise VerificationError("prescribed reflexive inverse fails {1,2}")
    if not _check_constraints_on_x(a, x, cons, bind_products=False):
        raise VerificationError("prescribed reflexive inverse ideal mismatch")
    return InverseReport("reflexive-prescribed", True, x,
                         satisfied=("1", "2"))


# -- Mitsch order ---------------------------------------------------------

def mitsch_leq(y, z):
    """y <=_M z: exists v, w with vz = vy = y = yw = zw.

    With d = z - y, vz = vy reads v in lann(d) and zw = yw reads w in
    rann(d), so y <=_M z iff y lies in lann(d) y and in y rann(d).  These
    lie in Ry and yR, so y lies in them iff they equal Ry and yR.
    """
    if y == z or y == y.ring.zero:
        return True
    d = z - y
    return all(multiply_ideal(y, annihilator(d, side)) == principal(y, side)
               for side in (LEFT, RIGHT))
