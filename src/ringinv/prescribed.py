"""Inverses with prescribed principal and annihilator ideals.

Constraint bundles name up to four ideals:
  S  (right_principal)   T  (right_annihilator)
  S' (left_principal)    T' (left_annihilator)

For {1}-inverse families the constraints bind the ideals of xa/ax
(xaR = S, rann(ax) = T, Rax = S', lann(xa) = T'); for outer and reflexive
inverses they bind x's own ideals (xR = S, rann(x) = T, Rx = S',
lann(x) = T').  SLOTS holds what each slot needs, and the {1}-family
base and the reflexive inverse are the one projector-built element
rho_{S,rann(a)}(1) a^(1) rho_{aR,T}(1), or a mirror of it, read from it.

Written in ring and ideal operations only, once for every backend.
"""

from collections import namedtuple

from .errors import NotEnumerableError, PreconditionError, VerificationError
from .geninv import InverseReport, any_inner, satisfies
from .ideals import (LEFT, RIGHT, annihilator, direct_sum, ideal_annihilator,
                     multiply_ideal, principal)
from .rings import Coset, MatrixRing, memoized_bundle

# One row per slot, in the order of IdealConstraints' fields: its keyword,
# shape tag and side, whether it prescribes a principal ideal (else an
# annihilator), whether a {1}-inverse binds it through xa (else ax), and
# the direct sum that a {1}-inverse realizing it needs.  Its unit
# rho(1) is the left factor of the family base when the slot binds xa,
# the right factor when it binds ax.
_Slot = namedtuple("Slot", "name tag side is_principal binds_xa split")
SLOTS = (
    _Slot("right_principal", "S", RIGHT, True, True, "R = S + rann(a)"),
    _Slot("right_annihilator", "T", RIGHT, False, False, "R = aR + T"),
    _Slot("left_principal", "Sp", LEFT, True, False, "R = S' + lann(a)"),
    _Slot("left_annihilator", "Tp", LEFT, False, True, "R = Ra + T'"),
)
# the order in which the splits are tested, which picks the reason a
# reflexive inverse reports: T, S, T', S'
_SPLIT_ORDER = (1, 0, 3, 2)


class IdealConstraints:
    """Prescribed ideal bundle; at least one field must be set."""

    __slots__ = ("right_principal", "right_annihilator",
                 "left_principal", "left_annihilator", "ideals", "_shape")

    def __init__(self, right_principal=None, right_annihilator=None,
                 left_principal=None, left_annihilator=None):
        ideals = (right_principal, right_annihilator, left_principal,
                  left_annihilator)
        tags = []
        for slot, ideal in zip(SLOTS, ideals):
            if ideal is not None:
                if ideal.side != slot.side:
                    raise PreconditionError(
                        "%s must be a %s ideal" % (slot.name, slot.side))
                tags.append(slot.tag)
        if not tags:
            raise PreconditionError("at least one constraint is required")
        self.right_principal = right_principal
        self.right_annihilator = right_annihilator
        self.left_principal = left_principal
        self.left_annihilator = left_annihilator
        self.ideals = ideals    # (S, T, S', T'), None where not prescribed
        self._shape = tuple(tags)

    @classmethod
    def of(cls, shape, s, t, sp, tp):
        """The bundle prescribing the ideals of (S, T, S', T') whose tags
        are in shape."""
        return cls(*[ideal if slot.tag in shape else None
                     for slot, ideal in zip(SLOTS, (s, t, sp, tp))])

    def shape(self):
        """Tuple of constraint tags, e.g. ('S', 'T') or ('Sp',)."""
        return self._shape

    TWO_SHAPES = (("S", "T"), ("Sp", "Tp"), ("S", "Sp"), ("T", "Tp"))
    SUPPORTED_SHAPES = TWO_SHAPES + tuple((slot.tag,) for slot in SLOTS)

    def require_supported(self):
        if self._shape not in self.SUPPORTED_SHAPES:
            raise PreconditionError(
                "unsupported constraint shape %r" % (self._shape,))


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
            for e in (ring.table or ring).additive_generators()])

    def members(self):
        """The coset's members as a list, in canonical order."""
        return self.coset().members()

    def __repr__(self):
        return "ParamFamily(base=%r)" % (self.base,)


def _ideal_of(y, slot):
    """The ideal of y that slot prescribes, on the slot's side."""
    if slot.is_principal:
        return principal(y, slot.side)
    return annihilator(y, slot.side)


def _realized(slot, xa, ax):
    """The ideal that slot prescribes in {1}-inverse mode, as x realizes
    it through its products xa and ax."""
    return _ideal_of(xa if slot.binds_xa else ax, slot)


def _check_constraints_on_x(a, x, cons, bind_products):
    """Do the prescribed ideal equalities hold for x?

    bind_products=True checks xaR/rann(ax)/Rax/lann(xa) ({1}-inverse mode);
    otherwise xR/rann(x)/Rx/lann(x).
    """
    if bind_products:
        return _products_realize(cons, x * a, a * x)
    return all(ideal is None or ideal == _ideal_of(x, slot)
               for slot, ideal in zip(SLOTS, cons.ideals))


def _products_realize(cons, xa, ax):
    """_check_constraints_on_x in {1}-inverse mode, read from the
    products xa and ax of x."""
    return all(ideal is None or ideal == _realized(slot, xa, ax)
               for slot, ideal in zip(SLOTS, cons.ideals))


def _units(a, ideals):
    """The split step: (left, right, None) with left = rho(1) of the
    slot binding xa (S or T') and right = rho(1) of the slot binding ax
    (T or S'), each 1 where no slot is given; or (None, None, i) for the
    first slot i, in _SPLIT_ORDER, whose direct sum of R fails.  ideals
    is (S, T, S', T') with None where not prescribed."""
    units = [a.ring.one, a.ring.one]
    for i in _SPLIT_ORDER:
        ideal = ideals[i]
        if ideal is None:
            continue
        slot = SLOTS[i]
        if slot.is_principal:
            u = direct_sum(ideal, annihilator(a, slot.side))
        else:
            u = direct_sum(principal(a, slot.side), ideal)
        if u is None:
            return None, None, i
        units[not slot.binds_xa] = u
    return units[0], units[1], None


def one_inverse_family(a, cons):
    """{1}-inverses with prescribed xa/ax ideals, as a ParamFamily or None.

    The base element is the projector-built candidate left * a^(1) * right
    from the split step (absent factors replaced by 1); the coset
    multipliers come from _family_multipliers, leaving the unpinned side
    of the perturbation free when only one ideal is prescribed.  The
    products a*base and base*a are formed once, for the checks and the
    multipliers.
    """
    cons.require_supported()
    left, right, failed = _units(a, cons.ideals)
    g = None if failed is not None else any_inner(a)
    if g is None:
        return None
    base = left * g * right
    ax = a * base
    if ax * a != a:
        raise VerificationError("constructed family base is not in a{1}")
    xa = base * a
    if not _products_realize(cons, xa, ax):
        raise VerificationError(
            "constructed family base violates the prescribed ideals")
    return ParamFamily(a, base, *_family_multipliers(cons, xa, ax))


def _family_multipliers(cons, xa, ax):
    """(left, right) coset multipliers for the constraint shape, from the
    products xa = base*a and ax = a*base of the family base.

    A slot binding xa pins xa to a projector unit, and {x : xa = base*a}
    is base + y(1 - a*base); a slot binding ax pins ax, and
    {x : ax = a*base} is base + (1 - base*a)y.  A side no slot pins stays
    free; two constraints pin both products.
    """
    one = ax.ring.one
    binds = {slot.binds_xa for slot, ideal in zip(SLOTS, cons.ideals)
             if ideal is not None}
    return (one - xa if False in binds else one,
            one - ax if True in binds else one)


def one_inverse_solution_set(a, cons, fixed_inner):
    """The coset of inner inverses through g meeting the constraints.

    Requires the matching solution-set hypotheses: g must be an inner
    inverse whose xa/ax ideals realize every prescribed constraint, and
    the prescribed ideals must split the ring as the proposition demands
    (the split step succeeds).  With two constraints the coset is
    g + (1-ga)y(1-ag); with a single constraint only one product is
    pinned and the matching side of the perturbation is free.
    """
    cons.require_supported()
    ring = a.ring
    if not ring.finite:
        raise NotEnumerableError("solution sets need a finite ring")
    g = fixed_inner
    ag = a * g
    if ag * a != a:
        raise PreconditionError("fixed_inner is not an inner inverse")
    ga = g * a
    if _units(a, cons.ideals)[2] is not None or \
            not _products_realize(cons, ga, ag):
        raise PreconditionError(
            "fixed_inner does not satisfy the solution-set hypotheses")
    fam = ParamFamily(a, g, *_family_multipliers(cons, ga, ag))
    return fam.members()


def _unique_outer(a, s, t):
    """The unique x in S with ax = rho_{aS,T}(1), or None.

    For left ideals S', T' the mirror: the unique x in S' with
    xa = rho_{S'a,T'}(1).  Existence: R = aS (+) T and rann(a) cap S = {0}
    (R = S'a (+) T' and lann(a) cap S' = {0}).

    x = e y for S = eR and any y with (ae) y = rho(1), which exists as
    rho(1) lies in aS = aeR, and the mirror x = y e with y (ea) = rho(1)
    for S' = Re; x is the same for every such y, as rann(a) meets S only
    in 0.  ae is formed once, for aS and for the solve.
    """
    side = s.side
    e = s.generator()
    ae = a * e if side == RIGHT else e * a
    u = direct_sum(principal(ae, side), t)
    if u is None:
        return None, "R = aS + T is not a direct sum"
    if not annihilator(a, side).intersect(s).is_zero():
        return None, "rann(a) meets S nontrivially"
    y = (a.ring.table or a.ring).solve(ae, u, side)
    if y is None:  # pragma: no cover - excluded by the existence theorem
        raise VerificationError("no element of S maps to the projector unit")
    return (e * y if side == RIGHT else y * e), ""


@memoized_bundle
def outer_with(a, cons, reflexive=False):
    """a^(2) (or a^(1,2)) with prescribed ideals of x itself; on the
    oracle's rings the report is stored by index (see rings)."""
    cons.require_supported()
    if reflexive:
        return _reflexive_dispatch(a, cons)
    shape = cons.shape()
    s, t, sp, tp = cons.ideals
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


# the direct sum a reflexive inverse reports as failed, by slot; with xR = S
# and Rx = S' prescribed, x also has rann(x) = rann(S') and
# lann(x) = lann(S), which take the T and T' slots
_SPLITS = tuple(slot.split for slot in SLOTS)
_S_SP_SPLITS = ("R = S + rann(a)", "R = aR + rann(S')", "R = S' + lann(a)",
                "R = Ra + lann(S)")


def _reflexive_dispatch(a, cons):
    """a^(1,2) with xR = S, rann(x) = T, Rx = S', lann(x) = T' for the
    prescribed two: the {1}-family base of the same bundle, as a
    reflexive inverse has the ideals of its products (xR = xaR,
    rann(x) = rann(ax), Rx = Rax, lann(x) = lann(xa))."""
    shape = cons.shape()
    if shape not in IdealConstraints.TWO_SHAPES:
        raise PreconditionError(
            "reflexive inverses need two prescribed ideals, got %r"
            % (shape,))
    ideals, splits = cons.ideals, _SPLITS
    if shape == ("S", "Sp"):
        # both slots of a side now give a unit, and the two agree: e with
        # eR = S, 1 - e in rann(a) and f in Ra, 1 - f in lann(S) have
        # e = fe = f
        s, _, sp, _ = ideals
        ideals = (s, ideal_annihilator(sp, RIGHT), sp,
                  ideal_annihilator(s, LEFT))
        splits = _S_SP_SPLITS
    left, right, failed = _units(a, ideals)
    if failed is not None:
        return InverseReport("reflexive-prescribed", False,
                             reason="%s is not a direct sum" % splits[failed])
    # every two-ideal split makes aR or Ra a direct summand, so a is regular
    x = left * any_inner(a) * right
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
