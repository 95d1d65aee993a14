"""One-sided ideals: principal ideals, annihilators, and lattice operations.

One representation per backend:
  * divisor  -- Z_n.  Every ideal is dZ_n for exactly one d | n (both sides
    coincide): aR = gcd(a, n)Z_n, rann(a) = (n/gcd(a, n))Z_n, sum is gcd,
    intersection is lcm and membership is divisibility, so no operation
    enumerates the ring;
  * subspace -- matrix rings.  A right ideal of M_k(F) is
    {x : colspace(x) <= V} for a subspace V of F^k; a left ideal is
    {x : rowspace(x) <= W}.  All lattice operations reduce to exact
    subspace computations.
"""

from itertools import count
from math import gcd, lcm

from .errors import (BudgetError, NotEnumerableError, PreconditionError,
                     RingMismatchError, UnsupportedInvolutionError)
from .linalg import (Subspace, full_subspace, is_direct_sum, mat_mul,
                     projection_matrix, transpose, zero_subspace)
from .rings import Coset, MatrixRing, ModularRing, RingElement, memoized

RIGHT = "right"
LEFT = "left"


def _pair(s, t):
    """The memo key of a pair of ideals of one ring and side: the
    compatibility check runs first, so that a warm memo still refuses a
    pair from different rings or sides."""
    s._compatible(t)
    return s.key, t.key


class SidedIdeal:
    """A left or right ideal of a ring.

    key is (side, divisor) on Z_n and (side, subspace basis) on a matrix
    ring, the basis being in canonical RREF: two ideals of one ring are
    equal iff their keys are.  On a finite ring, <=, + and cap are
    memoized per pair of keys.
    """

    __slots__ = ("ring", "side", "divisor", "subspace", "key")

    def __init__(self, ring, side, divisor=None, subspace=None):
        if side not in (LEFT, RIGHT):
            raise ValueError("side must be 'left' or 'right'")
        self.ring = ring
        self.side = side
        self.divisor = divisor      # d | n for the ideal dZ_n, or None
        self.subspace = subspace    # Subspace, or None
        if (divisor is None) == (subspace is None):
            raise ValueError("exactly one representation required")
        self.key = (side, divisor if subspace is None else subspace.basis)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_subspace(cls, ring, side, subspace):
        if not isinstance(ring, MatrixRing):
            raise PreconditionError("subspace ideals need a matrix ring")
        return cls(ring, side, subspace=subspace)

    @classmethod
    def from_elements(cls, ring, side, elements):
        """The smallest one-sided ideal containing the given elements."""
        if isinstance(ring, MatrixRing):
            field, k = ring.field, ring.k
            vecs = []
            for a in elements:
                rows = a.payload if side == RIGHT else transpose(a.payload)
                vecs.extend(transpose(rows))  # columns span col/rowspace
            return cls(ring, side, subspace=Subspace(field, k, tuple(vecs)))
        return cls(ring, side,
                   divisor=gcd(ring.n, *(a.payload for a in elements)))

    # -- basic predicates ----------------------------------------------

    def contains(self, a):
        if a.ring != self.ring:
            raise RingMismatchError("element of a different ring")
        if self.divisor is not None:
            return a.payload % self.divisor == 0
        v = self.subspace
        rows = a.payload if self.side == RIGHT else transpose(a.payload)
        return all(v.contains(col) for col in transpose(rows))

    def is_zero(self):
        if self.divisor is not None:
            return self.divisor == self.ring.n
        return self.subspace.dim == 0

    def is_full(self):
        if self.divisor is not None:
            return self.divisor == 1
        return self.subspace.dim == self.subspace.ambient

    @memoized(_pair)
    def is_subideal_of(self, other):
        if self.divisor is not None:
            return self.divisor % other.divisor == 0
        return self.subspace.is_subspace_of(other.subspace)

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
        return other.key == self.key and (other.ring is self.ring
                                          or other.ring == self.ring)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        tag = "R" if self.side == RIGHT else "L"
        if self.divisor is not None:
            return "Ideal[%s](%dZ_%d)" % (tag, self.divisor, self.ring.n)
        return "Ideal[%s](dim %d)" % (tag, self.subspace.dim)

    # -- lattice operations ----------------------------------------------

    @memoized(_pair)
    def sum(self, other):
        if self.divisor is not None:
            return SidedIdeal(self.ring, self.side,
                              divisor=gcd(self.divisor, other.divisor))
        return SidedIdeal(self.ring, self.side,
                          subspace=self.subspace.sum(other.subspace))

    @memoized(_pair)
    def intersect(self, other):
        if self.divisor is not None:
            return SidedIdeal(self.ring, self.side,
                              divisor=lcm(self.divisor, other.divisor))
        return SidedIdeal(self.ring, self.side,
                          subspace=self.subspace.intersect(other.subspace))

    def generator(self):
        """Some g with gR (right) or Rg (left) equal to this ideal: d on
        Z_n; on a matrix ring q, the basis over zero rows, whose row space
        is the subspace (Rq), or its transpose (q^T R)."""
        ring = self.ring
        if self.divisor is not None:
            return ring.element(self.divisor)
        basis = self.subspace.basis
        rows = basis + ring.zero.payload[len(basis):]
        return RingElement(ring, rows if self.side == LEFT
                           else transpose(rows))

    def members(self):
        """All elements in canonical order (finite rings only): the span
        of the e g (left) or g e (right) over the additive generators e."""
        ring = self.ring
        if not ring.finite:
            raise NotEnumerableError("ideal of an infinite ring")
        g = self.generator()
        return Coset.spanned(ring.zero, [
            e * g if self.side == LEFT else g * e
            for e in ring.additive_generators()]).members()

    def size(self):
        ring = self.ring
        if self.divisor is not None:
            return ring.n // self.divisor
        if not ring.finite:
            raise NotEnumerableError("ideal of an infinite ring")
        return ring.field.p ** (self.subspace.dim * ring.k)


# -- principal ideals and annihilators ---------------------------------

@memoized(lambda a, side: (a.payload, side))
def principal(a, side):
    """aR (side='right') or Ra (side='left')."""
    ring = a.ring
    if isinstance(ring, MatrixRing):
        field, k = ring.field, ring.k
        rows = a.payload if side == RIGHT else transpose(a.payload)
        v = Subspace(field, k, transpose(rows))
        return SidedIdeal(ring, side, subspace=v)
    return SidedIdeal(ring, side, divisor=gcd(a.payload, ring.n))


@memoized(lambda a, side: (a.payload, side))
def annihilator(a, side):
    """rann(a) = {r : ar = 0} (right) or lann(a) = {r : ra = 0} (left)."""
    ring = a.ring
    if isinstance(ring, MatrixRing):
        from .linalg import nullspace_basis
        field, k = ring.field, ring.k
        m = a.payload if side == RIGHT else transpose(a.payload)
        v = Subspace(field, k, nullspace_basis(field, m))
        return SidedIdeal(ring, side, subspace=v)
    return SidedIdeal(ring, side, divisor=ring.n // gcd(a.payload, ring.n))


def ideal_annihilator(ideal, side):
    """Annihilator of a whole ideal, on the given side.

    rann(S) = {r : sr = 0 for all s in S}; lann(S) = {r : rs = 0}.
    The result is a right ideal when side='right', left when side='left'.
    """
    ring = ideal.ring
    if isinstance(ring, MatrixRing):
        v = ideal.subspace.perp()
        # rann of a left ideal {rowspace<=W} is {colspace<=W^perp}; lann of a
        # right ideal {colspace<=V} is {rowspace<=V^perp}.  Same-side
        # annihilators reduce to these through the full/zero cases.
        if side == RIGHT and ideal.side == LEFT:
            return SidedIdeal(ring, RIGHT, subspace=v)
        if side == LEFT and ideal.side == RIGHT:
            return SidedIdeal(ring, LEFT, subspace=v)
        # annihilating a right ideal on the right (or left on left): a right
        # ideal kills colspaces, so sr=0 for all s iff V=0 or r=0.
        k, field = ring.k, ring.field
        if ideal.subspace.dim == 0:
            return SidedIdeal(ring, side, subspace=full_subspace(field, k))
        return SidedIdeal(ring, side, subspace=zero_subspace(field, k))
    return SidedIdeal(ring, side, divisor=ring.n // ideal.divisor)


# -- maps on ideals ----------------------------------------------------

def multiply_ideal(a, ideal):
    """a*S for a right ideal S, or S*a for a left ideal S."""
    ring = a.ring
    if isinstance(ring, MatrixRing):
        m = a.payload if ideal.side == RIGHT else transpose(a.payload)
        return SidedIdeal(ring, ideal.side, subspace=ideal.subspace.image(m))
    return SidedIdeal(ring, ideal.side,
                      divisor=gcd(a.payload * ideal.divisor, ring.n))


def phi_preimage(a, ideal):
    """Preimage of an ideal under left multiplication by a (right ideals),
    or under right multiplication by a (left ideals)."""
    ring = a.ring
    if isinstance(ring, MatrixRing):
        m = a.payload if ideal.side == RIGHT else transpose(a.payload)
        return SidedIdeal(ring, ideal.side,
                          subspace=ideal.subspace.preimage(m))
    # d | ar iff d/gcd(a, d) divides r
    d = ideal.divisor
    return SidedIdeal(ring, ideal.side, divisor=d // gcd(a.payload, d))


# -- direct sums and projector units -----------------------------------

@memoized(_pair)
def direct_sum(s, t):
    """rho_{S,T}(1) if R = s (+) t, else None.

    rho_{S,T}(1) is the image of 1 under the projector onto S along T;
    it carries the whole projector: rho(r) = rho(1) r for right ideals and
    rho(r) = r rho(1) for left ideals, so r = rho(r) + (r - rho(r)) is the
    split of r.
    """
    ring = s.ring
    if s.divisor is not None:
        # dZ_n (+) eZ_n = Z_n iff de = n with d, e coprime; rho(1) is the
        # CRT idempotent that is 0 mod d and 1 mod e.
        d, e = s.divisor, t.divisor
        if d * e != ring.n or gcd(d, e) != 1:
            return None
        return RingElement(ring, d * pow(d, -1, e))
    u, v = s.subspace, t.subspace
    if not is_direct_sum(u, v):
        return None
    p = projection_matrix(u, v)
    return RingElement(ring, p if s.side == RIGHT else transpose(p))


def complement(ideal):
    """Some ideal T with R = ideal (+) T, or None if no complement exists."""
    ring = ideal.ring
    if ideal.divisor is None:
        comp = ideal.subspace.complement()
        return SidedIdeal(ring, ideal.side, subspace=comp)
    e = ring.n // ideal.divisor
    if gcd(ideal.divisor, e) != 1:
        return None
    return SidedIdeal(ring, ideal.side, divisor=e)


def orthogonal(i, j, flavor=RIGHT):
    """Star-orthogonality: x* y = 0 for all pairs (flavor=right),
    or x y* = 0 (flavor=left).

    For matching-side ideals of a matrix ring this reduces to a bilinear
    test on the subspace bases; when the flavor does not match the ideal
    sides only degenerate (zero) ideals are orthogonal.
    """
    if flavor not in (RIGHT, LEFT):
        raise ValueError("flavor must be 'right' or 'left'")
    ring = i.ring
    if i.ring is not j.ring:
        raise RingMismatchError("ideals live in different rings")
    if not ring.has_involution:
        raise UnsupportedInvolutionError(
            "orthogonality needs an involution; %s has none" % ring.short_name)
    if i.side != j.side or i.side != flavor:
        return i.is_zero() or j.is_zero()
    u, v = i.subspace, j.subspace
    if u.dim == 0 or v.dim == 0:
        return True
    prods = mat_mul(ring.field, u.basis, transpose(v.basis))
    return all(x == ring.field.zero for row in prods for x in row)


# -- enumeration of the ideal lattice -----------------------------------

def all_subspaces(field, n):
    """All subspaces of F^n (finite F), smallest dimension first."""
    if not field.finite:
        raise NotEnumerableError("infinite field")
    vectors = [v for v in full_subspace(field, n).vectors()
               if any(x != field.zero for x in v)]
    seen = {zero_subspace(field, n)}
    frontier = [zero_subspace(field, n)]
    while frontier:
        sp = frontier.pop()
        for v in vectors:
            if not sp.contains(v):
                bigger = Subspace(field, n, sp.basis + (v,))
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return sorted(seen, key=lambda s: (s.dim, s.basis))


def all_ideals(ring, side):
    """Every one-sided ideal of a finite backend, smallest first."""
    if isinstance(ring, ModularRing):
        return [SidedIdeal(ring, side, divisor=d)
                for d in sorted(divisors(ring.n), reverse=True)]
    if isinstance(ring, MatrixRing) and ring.finite:
        return [SidedIdeal(ring, side, subspace=sp)
                for sp in all_subspaces(ring.field, ring.k)]
    raise NotEnumerableError("ideal lattice of %s" % ring.short_name)


# -- divisors of a modulus ------------------------------------------------

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981


def divisors(n):
    """Every positive divisor of n, from its factorization: the primes of
    _MR_BASES by trial division, then Pollard rho and Miller-Rabin on the
    cofactors.  A cofactor at or above _MR_EXACT raises BudgetError, so
    no divisor list rests on a probable prime."""
    primes, rest = {}, n
    for p in _MR_BASES:
        while rest % p == 0:
            primes[p] = primes.get(p, 0) + 1
            rest //= p
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if m >= _MR_EXACT:
            raise BudgetError("cannot factor the modulus exactly: a "
                              "%d-bit cofactor is past the Miller-Rabin "
                              "bound" % m.bit_length())
        if _is_prime(m):
            primes[m] = primes.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += (d, m // d)
    out = [1]
    for p, e in primes.items():
        out = [d * p ** i for d in out for i in range(e + 1)]
    return out


def _is_prime(m):
    """Miller-Rabin for m > 41 with no factor in _MR_BASES, m < _MR_EXACT."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho(m):
    """A proper divisor of a composite m with no factor in _MR_BASES:
    Pollard rho with Brent's cycle search, the products of 128 steps
    taken into one gcd."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g
