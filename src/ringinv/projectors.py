"""Projectors onto ideal direct summands.

A projector rho_{S,T} (S, T one-sided ideals of the same side with
R = S (+) T) is the idempotent additive endomorphism fixing S and killing T.
For right ideals rho(r) = rho(1) * r, so the whole map is carried by the
single element rho(1); for left ideals rho(r) = r * rho(1).
"""

from .errors import PreconditionError, UnsupportedInvolutionError
from .ideals import RIGHT, annihilator, direct_sum, principal


class Projector:
    """rho_{S,T}: projector onto `onto` along `along`."""

    __slots__ = ("onto", "along", "unit")

    def __init__(self, onto, along, unit):
        self.onto = onto
        self.along = along
        self.unit = unit  # rho(1)

    @property
    def side(self):
        return self.onto.side

    def apply(self, r):
        if self.side == RIGHT:
            return self.unit * r
        return r * self.unit

    def complementary(self):
        return projector(self.along, self.onto)

    def is_unit_idempotent(self):
        return self.unit * self.unit == self.unit

    def is_orthogonal(self):
        """Whether rho(1) is symmetric (needs an involution)."""
        ring = self.onto.ring
        if not ring.has_involution:
            raise UnsupportedInvolutionError(
                "%s has no involution" % ring.short_name)
        return self.unit.star == self.unit

    def __repr__(self):
        return "Projector(onto=%r, along=%r)" % (self.onto, self.along)


def projector(s, t):
    """rho_{S,T}, or None when R != S (+) T."""
    u = direct_sum(s, t)
    return None if u is None else Projector(s, t, u)


def projector_from_idempotent(p, side):
    """phi_p (right) / p-phi (left) as a projector; p must be idempotent."""
    if p * p != p:
        raise PreconditionError("element is not idempotent")
    pr = projector(principal(p, side), annihilator(p, side))
    if pr is None:  # cannot happen: pR (+) rann(p) = R for idempotent p
        raise PreconditionError("idempotent did not split the ring")
    return pr


def phi_equals_projector(b, s, t):
    """Decide phi_b = rho_{S,T} (right ideals) or b-phi = rho (left ideals).

    Left multiplication by b agrees with the projector iff the direct sum
    exists and b equals rho(1); this turns map equality into one element
    comparison.
    """
    return b == direct_sum(s, t)
