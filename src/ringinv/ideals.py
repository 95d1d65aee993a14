"""One-sided ideals: principal ideals, annihilators, and lattice operations.

Written once, in ring operations and the ideal primitives of the ring's
backend (see rings.Ring).  A SidedIdeal holds the backend's own
representation, its rep, and only the backend reads it: dZ_n as the
divisor d on Z_n, and on M_k(F) the subspace V with the right ideal
{x : colspace(x) <= V}, or W with the left ideal {x : rowspace(x) <= W}.
Every ideal here is principal, so the rest is generators: I + J is
spanned by the two generators, I <= J iff J holds I's generator, and
a(gR) = (ag)R.

principal, annihilator and the lattice operations remember their
answers on a finite ring through the two memo decorators of rings: by
element index or pair of ideal indices on a ring with an ElementTable,
in ring.memo by payload or pair of keys on any other.  On a ring with a
table, the ideals they return are interned, and each is read by its
index: equality, membership, the generator and the lattice operations.
"""

from .errors import (NotEnumerableError, PreconditionError,
                     RingMismatchError, UnsupportedInvolutionError)
from .rings import LEFT, RIGHT, Coset, memoized, memoized_pair


class SidedIdeal:
    """A left or right ideal of a ring.

    key is (side, the backend's canonical key of rep): two ideals of one
    ring are equal iff their keys are.  On a finite ring, <=, + and cap
    are memoized_pair functions: per pair of indices on a ring with a
    table, per pair of keys on any other.  index is the ideal's position
    in its ring's table when it is the interned one of its key, else
    None.
    """

    __slots__ = ("ring", "side", "rep", "key", "index")

    def __init__(self, ring, side, rep):
        if side not in (LEFT, RIGHT):
            raise ValueError("side must be 'left' or 'right'")
        self.ring = ring
        self.side = side
        self.rep = rep
        self.key = (side, ring.ideal_key(rep))
        self.index = None

    @classmethod
    def from_elements(cls, ring, side, elements):
        """The smallest one-sided ideal containing the given elements."""
        return cls(ring, side, ring.ideal_span(side, elements))

    # -- basic predicates ----------------------------------------------

    def contains(self, a):
        ring = self.ring
        if a.ring is not ring and a.ring != ring:
            raise RingMismatchError("element of a different ring")
        if ring.table is None:
            return ring.ideal_contains(self.side, self.rep, a)
        return ring.table.contains(self, a)

    def is_zero(self):
        return self.generator() == self.ring.zero

    def is_full(self):
        return self.contains(self.ring.one)

    @memoized_pair
    def is_subideal_of(self, other):
        return other.contains(self.generator())

    def _compatible(self, other):
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingMismatchError("ideals of different rings")
        if other.side != self.side:
            raise PreconditionError("ideals of different sides")

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, SidedIdeal):
            return NotImplemented
        if other.ring is self.ring:
            # two interned ideals of one ring are equal only if identical
            return (self.index is None or other.index is None) and \
                other.key == self.key
        return other.key == self.key and other.ring == self.ring

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        tag = "R" if self.side == RIGHT else "L"
        return "Ideal[%s](%s)" % (tag, self.ring.ideal_text(self.rep))

    # -- lattice operations ----------------------------------------------

    @memoized_pair
    def sum(self, other):
        return SidedIdeal(self.ring, self.side, self.ring.ideal_span(
            self.side, (self.generator(), other.generator())))

    @memoized_pair
    def intersect(self, other):
        return SidedIdeal(self.ring, self.side,
                          self.ring.ideal_meet(self.rep, other.rep))

    def generator(self):
        """Some g with gR (right) or Rg (left) equal to this ideal."""
        ring = self.ring
        if ring.table is None:
            return ring.ideal_generator(self.side, self.rep)
        return ring.table.generator(self)

    def members(self):
        """All elements in canonical order (finite rings only): the span
        of the e g (left) or g e (right) over the additive generators e."""
        ring = self.ring
        if not ring.finite:
            raise NotEnumerableError("ideal of an infinite ring")
        g = self.generator()
        return Coset.spanned(ring.zero, [
            e * g if self.side == LEFT else g * e
            for e in (ring.table or ring).additive_generators()]).members()

    def size(self):
        return self.ring.ideal_size(self.side, self.rep)


# -- principal ideals and annihilators ---------------------------------

@memoized
def principal(a, side):
    """aR (side='right') or Ra (side='left')."""
    return SidedIdeal(a.ring, side, a.ring.ideal_span(side, (a,)))


@memoized
def annihilator(a, side):
    """rann(a) = {r : ar = 0} (right) or lann(a) = {r : ra = 0} (left)."""
    return SidedIdeal(a.ring, side, a.ring.ideal_annihilator(a, side))


def ideal_annihilator(ideal, side):
    """Annihilator of a whole ideal, on the given side.

    rann(S) = {r : sr = 0 for all s in S}; lann(S) = {r : rs = 0}.
    The result is a right ideal when side='right', left when side='left'.
    Across sides, lann(gR) = lann(g) and rann(Rg) = rann(g).  On S's own
    side, gR is spanned by the g e over the additive generators e, so
    rann(gR) is the meet of the rann(g e), and lann(Rg) that of the
    lann(e g), taken until it is zero.
    """
    g = ideal.generator()
    if side != ideal.side:
        return annihilator(g, side)
    ring = ideal.ring
    meet = None
    for e in (ring.table or ring).additive_generators():
        ann = annihilator(g * e if side == RIGHT else e * g, side)
        meet = ann if meet is None else meet.intersect(ann)
        if meet.is_zero():
            break
    return meet


# -- maps on ideals ----------------------------------------------------

def multiply_ideal(a, ideal):
    """a*S = (ag)R for a right ideal S = gR, or S*a = R(ga) for a left
    ideal S = Rg."""
    g = ideal.generator()
    return principal(a * g if ideal.side == RIGHT else g * a, ideal.side)


def phi_preimage(a, ideal):
    """Preimage of an ideal under left multiplication by a (right ideals),
    or under right multiplication by a (left ideals)."""
    return SidedIdeal(a.ring, ideal.side,
                      a.ring.ideal_preimage(a, ideal.side, ideal.rep))


# -- direct sums and projector units -----------------------------------

@memoized_pair
def direct_sum(s, t):
    """rho_{S,T}(1) if R = s (+) t, else None.

    rho_{S,T}(1) is the image of 1 under the projector onto S along T;
    it carries the whole projector: rho(r) = rho(1) r for right ideals and
    rho(r) = r rho(1) for left ideals, so r = rho(r) + (r - rho(r)) is the
    split of r.
    """
    return s.ring.ideal_split(s.side, s.rep, t.rep)


def complement(ideal):
    """Some ideal T with R = ideal (+) T, or None if no complement exists."""
    rep = ideal.ring.ideal_complement(ideal.side, ideal.rep)
    return None if rep is None else SidedIdeal(ideal.ring, ideal.side, rep)


def orthogonal(i, j, flavor=RIGHT):
    """Star-orthogonality: x* y = 0 for all pairs (flavor=right),
    or x y* = 0 (flavor=left).

    For right ideals gR and hR this is g* h = 0, and for left ideals Rg
    and Rh it is g h* = 0; when the flavor does not match the ideal
    sides only degenerate (zero) ideals are orthogonal.
    """
    if flavor not in (RIGHT, LEFT):
        raise ValueError("flavor must be 'right' or 'left'")
    ring = i.ring
    if j.ring is not ring and j.ring != ring:
        raise RingMismatchError("ideals live in different rings")
    if not ring.has_involution:
        raise UnsupportedInvolutionError(
            "orthogonality needs an involution; %s has none" % ring.short_name)
    if i.side != j.side or i.side != flavor:
        return i.is_zero() or j.is_zero()
    g, h = i.generator(), j.generator()
    return (g.star * h if flavor == RIGHT else g * h.star) == ring.zero


# -- enumeration of the ideal lattice -----------------------------------

def all_ideals(ring, side):
    """Every one-sided ideal of a finite backend, smallest first: on a
    ring with a table, the interned ones."""
    ideals = [SidedIdeal(ring, side, rep) for rep in ring.ideal_reps(side)]
    if ring.table is None:
        return ideals
    return [ring.table.interned(ideal) for ideal in ideals]
