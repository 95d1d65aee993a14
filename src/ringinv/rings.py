"""Ring backends: Z_n and matrix rings over Q / GF(p).

Elements are immutable and hashable.  All enumeration orders are canonical:
residues ascending; matrices in row-major lexicographic scalar order.
Only a backend knows how its elements and ideals are stored: the other
modules are written in its arithmetic and the protocol of Ring.

A finite ring that the oracle lists gets an ElementTable: each element's
position in that order becomes its index, and sums, products, negatives,
stars and the answers of the memoized functions are then stored by
index, each store holding the answers themselves.  So are its ideals:
each one-sided ideal is interned, one object per (side, key), and
membership, generators and the lattice operations are stored by ideal
index.  The members of each coset it lists are kept once, as indexed
elements, and so are the additive generators, each solve(a, u, side),
each linear_solutions Coset and each coset span by the indices of the
elements that determine it, and each prescribed outer inverse
(memoized_bundle) by the indices of a and of its interned ideals, each
in a bounded store.  One helper, stored(), reads and fills every store
but the sums, the products and the memoized rows, which are read
inline.  The oracle's context keeps its brute-force sets beside the
table, in memos bounded in turn, each scanned with satisfies' own test.
A ring without a table (every ring the CLI builds) computes each of
them directly, and keeps the answers of the memoized and memoized_pair
functions in ring.memo.
"""

from collections import defaultdict
from functools import partial, wraps
from itertools import chain, count, product
from math import gcd, lcm

from .errors import (BudgetError, NotEnumerableError, RingMismatchError,
                     UnsupportedInvolutionError, VerificationError)
from .linalg import (_MR_BASES, _MR_EXACT, QQ, PrimeField, Subspace,
                     _is_prime, full_subspace, identity, is_direct_sum,
                     mat_add, mat_mul, mat_neg, nullspace_basis,
                     projection_matrix, rank, rref, solve_matrix, transpose,
                     zero_matrix, zero_subspace)

RIGHT = "right"
LEFT = "left"


class RingElement:
    """An element of a Ring; payload is an int (Z_n) or tuple-of-tuples.
    index is its position in the ring's ElementTable, or None."""

    __slots__ = ("ring", "payload", "index")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload
        self.index = None

    def _check(self, other):
        # identity first: the elements of one ring share its object
        if not isinstance(other, RingElement) or (
                other.ring is not self.ring and other.ring != self.ring):
            raise RingMismatchError("elements of different rings")

    # each operation reads the ring's table when it has one, which has
    # the backend's operations under the same names

    def __add__(self, other):
        self._check(other)
        return (self.ring.table or self.ring).add(self, other)

    def __sub__(self, other):
        self._check(other)
        ops = self.ring.table or self.ring
        return ops.add(self, ops.neg(other))

    def __neg__(self):
        return (self.ring.table or self.ring).neg(self)

    def __mul__(self, other):
        ring = self.ring
        if other.__class__ is not RingElement or other.ring is not ring:
            self._check(other)
        table = ring.table
        if table is None:
            return ring.mul(self, other)
        # a stored product, read here: the product is the oracle's
        # innermost operation
        i, j = self.index, other.index
        if i is not None and j is not None:
            out = table.products[i * table.size + j]
            if out is not _UNSET:
                return out
        return table.mul(self, other)

    def __pow__(self, k):
        # square and multiply, from self rather than 1: about 2 log2(k)
        # products
        if k < 0:
            raise ValueError("negative powers are not defined")
        out, square = None, self
        while k:
            if k & 1:
                out = square if out is None else out * square
            k >>= 1
            if k:
                square = square * square
        return self.ring.one if out is None else out

    @property
    def star(self):
        return (self.ring.table or self.ring).involute(self)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, RingElement)
            and (other.ring is self.ring or other.ring == self.ring)
            and other.payload == self.payload)

    def __hash__(self):
        # equal elements have equal payloads, in equal rings
        return hash(self.payload)

    def __repr__(self):
        return "%s(%s)" % (self.ring.short_name, self.ring.render(self))

    def sort_key(self):
        return self.ring.sort_key(self)


class Ring:
    """Common interface; see ModularRing and MatrixRing.

    A backend stores a one-sided ideal S in its own form, the rep, and
    its ideal primitives take and return reps: ideal_key (canonical and
    hashable), ideal_text, ideal_span(side, elements),
    ideal_annihilator(a, side), ideal_contains, ideal_meet,
    ideal_generator (some g with S = gR, or Rg), ideal_preimage (of S
    under r -> ar, or ra), ideal_split (rho_{S,T}(1), or None),
    ideal_complement, ideal_size and ideal_reps (every S, smallest
    first).  A finite backend stores an additive subgroup D in its own
    form too, for the Coset x + D: coset_span(generators), coset_size and
    coset_members(base, rep), a lazy iterator in canonical order; and
    linear_solutions(equations) gives the Coset of the x with f(x) = c
    for every (f, c), f additive, or None.  On elements it gives inner(a)
    (some x with axa = a), solve(a, u, side) (some x with ax = u, or
    xa = u), each None when there is none, and element_flags(a), the
    backend's own entries of classify.  unit_inverse is written once,
    here, with solve.
    """

    has_involution = False
    finite = False
    memo = None     # a dict on finite rings, filled by the memo decorators
    table = None    # the ElementTable of a finite ring the oracle lists

    def involute(self, a):
        raise UnsupportedInvolutionError(
            "%s has no involution" % self.short_name)

    def element_flags(self, a):
        return {}

    def unit_inverse(self, a):
        """a^-1, or None: the x with ax = 1.  A right inverse is two-sided
        here, as every backend is finite or finite-dimensional over a
        field: ax = 1 makes r -> ar onto, so one-to-one, and a(xa - 1) = 0
        gives xa = 1."""
        return (self.table or self).solve(a, self.one, RIGHT)

    def elements(self):
        raise NotEnumerableError("%s is not enumerable" % self.short_name)

    @property
    def size(self):
        raise NotEnumerableError("%s is not enumerable" % self.short_name)


class ModularRing(Ring):
    """Z_n under addition and multiplication mod n.  No involution."""

    finite = True

    def __init__(self, n):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        self.short_name = "zn:%d" % n
        self.memo = {}
        self.zero = RingElement(self, 0)
        self.one = RingElement(self, 1 % n)

    def element(self, value):
        return RingElement(self, int(value) % self.n)

    def add(self, a, b):
        return RingElement(self, (a.payload + b.payload) % self.n)

    def neg(self, a):
        return RingElement(self, (-a.payload) % self.n)

    def mul(self, a, b):
        return RingElement(self, (a.payload * b.payload) % self.n)

    def elements(self):
        return [RingElement(self, v) for v in range(self.n)]

    def additive_generators(self):
        return (self.one,)

    @property
    def size(self):
        return self.n

    def sort_key(self, a):
        return a.payload

    def parse(self, obj):
        # through str, as PrimeField.parse, so that 1.5, true and 1e3
        # are refused rather than truncated
        return self.element(int(str(obj)))

    def render(self, a):
        return str(a.payload)

    def to_json(self, a):
        return str(a.payload)

    # -- ideals: dZ_n for exactly one d | n, the rep, on either side.  aR
    # is gcd(a, n)Z_n, rann(a) is (n/gcd(a, n))Z_n, membership is
    # divisibility and the meet is lcm, so no operation lists the ring.

    def ideal_key(self, d):
        return d

    def ideal_text(self, d):
        return "%dZ_%d" % (d, self.n)

    def ideal_span(self, side, elements):
        return gcd(self.n, *(a.payload for a in elements))

    def ideal_annihilator(self, a, side):
        return self.n // gcd(a.payload, self.n)

    def ideal_contains(self, side, d, a):
        return a.payload % d == 0

    def ideal_meet(self, d, e):
        return lcm(d, e)

    def ideal_generator(self, side, d):
        return self.element(d)

    def ideal_preimage(self, a, side, d):
        # d | ar iff d/gcd(a, d) divides r
        return d // gcd(a.payload, d)

    def ideal_split(self, side, d, e):
        # dZ_n (+) eZ_n = Z_n iff de = n with d, e coprime; rho(1) is the
        # CRT idempotent that is 0 mod d and 1 mod e.
        if d * e != self.n or gcd(d, e) != 1:
            return None
        return RingElement(self, d * pow(d, -1, e))

    def ideal_complement(self, side, d):
        e = self.n // d
        return e if gcd(d, e) == 1 else None

    def ideal_size(self, side, d):
        return self.n // d

    def ideal_reps(self, side):
        return sorted(divisors(self.n), reverse=True)

    # -- cosets: every additive subgroup of Z_n is an ideal, so a coset is
    # x + mZ_n, the rep being the step m | n

    def coset_span(self, generators):
        return self.ideal_span(RIGHT, generators)

    def coset_size(self, m):
        return self.n // m

    def coset_members(self, base, m):
        return (RingElement(self, v)
                for v in range(base.payload % m, self.n, m))

    def linear_solutions(self, equations):
        # each equation is f(1) x = c, and the congruences fold one by one
        # into the coset x0 + mZ_n
        n, x0, m = self.n, 0, 1
        for f, c in equations:
            u = f(self.one).payload
            # x = x0 + m y with u m y = c - u x0 (mod n)
            y = least_solution_mod(u * m, c.payload - u * x0, n)
            if y is None:
                return None
            x0 += m * y
            m = n // gcd(u, n // m)
        return Coset(RingElement(self, x0), m)

    def inner(self, a):
        # axa = a reads a^2 x = a (mod n); the least solution is the first
        # inner inverse in canonical order
        return self.solve(a * a, a, RIGHT)

    def solve(self, a, u, side):
        x = least_solution_mod(a.payload, u.payload, self.n)
        return None if x is None else self.element(x)

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.n == self.n

    def __hash__(self):
        return hash(("ModularRing", self.n))

    def __repr__(self):
        return "Z_%d" % self.n


class _BuiltOnFirstUse:
    """An attribute built by a method on its first read and then set on
    the instance, which holds it from then on.  It is set with setattr,
    not through the instance __dict__ as functools.cached_property sets
    it: on CPython 3.11 a __dict__ that is read makes every later
    attribute read of the instance slower (a warm catalog pass on m2f2
    ran about 4% slower)."""

    def __init__(self, build):
        self.build = build

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.build(instance)
        setattr(instance, self.build.__name__, value)
        return value


class MatrixRing(Ring):
    """M_k(F) for F = Q or GF(p), with transpose as the involution."""

    has_involution = True

    def __init__(self, k, field):
        if k < 1:
            raise ValueError("matrix size must be >= 1")
        self.k = k
        self.field = field
        self.finite = field.finite
        if self.finite:
            self.memo = {}
        self.short_name = "m%d%s" % (k, field.name)

    # built on first use, so that a ring too large to hold them refuses a
    # malformed element at once; an ElementTable sets its indexed ones
    @_BuiltOnFirstUse
    def zero(self):
        return RingElement(self, zero_matrix(self.field, self.k, self.k))

    @_BuiltOnFirstUse
    def one(self):
        return RingElement(self, identity(self.field, self.k))

    def element(self, rows):
        k, f = self.k, self.field
        rows = tuple(tuple(f.convert(x) for x in r) for r in rows)
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ValueError("expected a %dx%d matrix" % (k, k))
        return RingElement(self, rows)

    def add(self, a, b):
        return RingElement(self, mat_add(self.field, a.payload, b.payload))

    def neg(self, a):
        return RingElement(self, mat_neg(self.field, a.payload))

    def mul(self, a, b):
        return RingElement(self, mat_mul(self.field, a.payload, b.payload))

    def involute(self, a):
        return RingElement(self, transpose(a.payload))

    def elements(self):
        if not self.finite:
            raise NotEnumerableError("%s is not enumerable" % self.short_name)
        k, f = self.k, self.field
        out = []
        for flat in product(f.elements(), repeat=k * k):
            rows = tuple(flat[i * k:(i + 1) * k] for i in range(k))
            out.append(RingElement(self, rows))
        return out

    @property
    def size(self):
        if not self.finite:
            raise NotEnumerableError("%s is not enumerable" % self.short_name)
        return self.field.p ** (self.k * self.k)

    def additive_generators(self):
        """The k^2 matrix units E_ij, in row-major order of (i, j)."""
        k = self.k
        zero_row, units = self.zero.payload[0], self.one.payload
        return tuple(RingElement(self, tuple(units[j] if r == i else zero_row
                                             for r in range(k)))
                     for i in range(k) for j in range(k))

    def sort_key(self, a):
        # row tuples compare in row-major order
        return a.payload

    def parse(self, obj):
        f = self.field
        return self.element(tuple(tuple(f.parse(x) for x in r) for r in obj))

    def render(self, a):
        return "[" + "; ".join(
            " ".join(map(str, row))
            for row in a.payload) + "]"

    def to_json(self, a):
        return [list(map(str, row)) for row in a.payload]

    # -- ideals: a right ideal is {x : colspace(x) <= V} and a left ideal
    # {x : rowspace(x) <= W}, the rep being the Subspace V or W of F^k.  x
    # lies in Rx' iff x^T lies in x'^T R, so a left ideal is handled as
    # the right ideal of the transposes.

    @staticmethod
    def _oriented(side, m):
        return m if side == RIGHT else transpose(m)

    def ideal_key(self, v):
        return v.basis

    def ideal_text(self, v):
        return "dim %d" % v.dim

    def ideal_span(self, side, elements):
        vecs = []
        for a in elements:
            vecs.extend(transpose(self._oriented(side, a.payload)))
        return Subspace(self.field, self.k, tuple(vecs))

    def ideal_annihilator(self, a, side):
        m = self._oriented(side, a.payload)
        return Subspace(self.field, self.k, nullspace_basis(self.field, m))

    def ideal_contains(self, side, v, a):
        return all(v.contains(col)
                   for col in transpose(self._oriented(side, a.payload)))

    def ideal_meet(self, v, w):
        return v.intersect(w)

    def ideal_generator(self, side, v):
        # q, the basis over zero rows, has row space v: Rq, or q^T R
        rows = v.basis + self.zero.payload[len(v.basis):]
        return RingElement(self, rows if side == LEFT else transpose(rows))

    def ideal_preimage(self, a, side, v):
        return v.preimage(self._oriented(side, a.payload))

    def ideal_split(self, side, v, w):
        if not is_direct_sum(v, w):
            return None
        return RingElement(self,
                           self._oriented(side, projection_matrix(v, w)))

    def ideal_complement(self, side, v):
        return v.complement()

    def ideal_size(self, side, v):
        if not self.finite:
            raise NotEnumerableError("ideal of an infinite ring")
        return self.field.p ** (v.dim * self.k)

    def ideal_reps(self, side):
        """Every subspace of F^k, smallest dimension first."""
        field, k = self.field, self.k
        if not self.finite:
            raise NotEnumerableError("ideal lattice of %s" % self.short_name)
        vectors = [v for v in full_subspace(field, k).vectors()
                   if any(x != field.zero for x in v)]
        seen = {zero_subspace(field, k)}
        frontier = [zero_subspace(field, k)]
        while frontier:
            sp = frontier.pop()
            for v in vectors:
                if not sp.contains(v):
                    bigger = Subspace(field, k, sp.basis + (v,))
                    if bigger not in seen:
                        seen.add(bigger)
                        frontier.append(bigger)
        return sorted(seen, key=lambda s: (s.dim, s.basis))

    # -- cosets: the rep of an additive subgroup is its basis in RREF, of
    # vectors of GF(p)^(k^2), each matrix read as its entries in row-major
    # order

    @staticmethod
    def _entries(a):
        return tuple(chain.from_iterable(a.payload))

    def coset_span(self, generators):
        return Subspace(self.field, self.k * self.k,
                        tuple(map(self._entries, generators))).basis

    def coset_size(self, basis):
        return self.field.p ** len(basis)

    def coset_members(self, base, basis):
        # The basis is in RREF.  With the base moved to 0 at the pivot
        # columns, the coefficients of a member are its entries there, and
        # the first entry in which two members differ is a pivot entry:
        # coefficient tuples in product order list the members in
        # canonical order.
        p, k = self.field.p, self.k
        base = self._entries(base)
        steps = []
        for b in basis:
            lead = base[next(i for i, v in enumerate(b) if v)]
            if lead:
                base = tuple((x - lead * y) % p for x, y in zip(base, b))
            steps.append([tuple(c * y for y in b) for c in range(p)])
        for choice in product(*steps):
            flat = iter([v % p for v in map(sum, zip(base, *choice))])
            yield RingElement(self, tuple(zip(*[flat] * k)))

    def linear_solutions(self, equations):
        # the k^2 entries of every equation give k^2 scalar equations in
        # the entries of x, all solved at once
        field, k, entries = self.field, self.k, self._entries
        units = (self.table or self).additive_generators()[::-1]
        rows = []
        for f, c in equations:
            rows.extend(zip(*[entries(f(e)) for e in units], entries(c)))
        if not rows:
            return Coset(self.zero, identity(field, k * k))
        # x solves A x = c iff (x, -1) lies in the nullspace of [A | c].
        # Its basis has one vector per free column, and only the one of the
        # last column can end in a nonzero: it does iff that column has no
        # pivot.  The columns of A are taken in reverse order, so that the
        # other vectors, read forward, are an RREF basis of the nullspace
        # of A, and x is zero at their pivots.
        basis = nullspace_basis(field, tuple(rows))
        if not basis or not basis[-1][-1]:
            return None
        x = iter([field.reduce(-v) for v in basis[-1][-2::-1]])
        return Coset(RingElement(self, tuple(zip(*[x] * k))),
                     tuple(v[-2::-1] for v in reversed(basis[:-1])))

    def inner(self, a):
        """x = P E: row-reduce [a | I] to get E with E a = R in RREF.  Row
        i of E goes to row p_i of x, p_i the pivot column of row i of R,
        and the other rows of x are zero.  Then R x = diag(I_r, 0) E, so
        E a x a = R = E a, and such an x exists for every matrix."""
        field, n = self.field, self.k
        aug = tuple(row + irow
                    for row, irow in zip(a.payload, self.one.payload))
        red, pivots = rref(field, aug)
        rows = [(field.zero,) * n] * n
        for i, pc in enumerate(pivots):
            if pc < n:
                rows[pc] = red[i][n:]
        x = RingElement(self, tuple(rows))
        if a * x * a != a:  # pragma: no cover - algebraic identity
            raise VerificationError("inner inverse construction failed")
        return x

    def solve(self, a, u, side):
        # one elimination, on the transposes for xa = u
        x = solve_matrix(self.field, self._oriented(side, a.payload),
                         self._oriented(side, u.payload))
        return None if x is None else RingElement(
            self, self._oriented(side, x))

    def element_flags(self, a):
        return {"rank": rank(self.field, a.payload)}

    def __eq__(self, other):
        return (isinstance(other, MatrixRing) and other.k == self.k
                and other.field == self.field)

    def __hash__(self):
        return hash(("MatrixRing", self.k, self.field))

    def __repr__(self):
        return "M_%d(%r)" % (self.k, self.field)


class Coset:
    """base + D for an additive subgroup D of a finite ring, D held as
    the backend's rep (see Ring).  The members iterate in canonical
    order, lazily or from the store of the ring's table, and size()
    counts them without listing."""

    __slots__ = ("base", "rep")

    def __init__(self, base, rep):
        self.base = base
        self.rep = rep

    @classmethod
    def spanned(cls, base, generators):
        """base + the additive subgroup that generators generate."""
        ring = base.ring
        return cls(base, (ring.table or ring).coset_span(generators))

    def size(self):
        return self.base.ring.coset_size(self.rep)

    def members(self):
        return list(self)

    def __iter__(self):
        ring = self.base.ring
        return (ring.table or ring).coset_members(self.base, self.rep)


# A table stores one answer per pair of indices in a flat list of N^2
# references while the ring has at most _MAX_FLAT elements, so that one
# store at the cap takes 8 MB of 8-byte cells; above it, in a dict of at
# most _MAX_PRODUCTS entries, so that a timed verify on M3(F3) stays
# bounded.  A store by pair of ideals, or by ideal and element, follows
# the same rule with M^2 or M N cells, M the number of one-sided ideals
# of both sides.  The coset store holds at most _MAX_PRODUCTS member
# references on any ring, and the sparse stores (solves, linear solutions,
# coset spans and memoized_bundle answers) are _Bounded on any ring.
_MAX_FLAT = 1 << 10
_MAX_PRODUCTS = 1 << 16

# an answer not yet computed (None is an answer of any_inner)
_UNSET = object()


class _Bounded(dict):
    """A pair store above the flat cap: reads _UNSET for a key not stored,
    and stores no new key once it holds _MAX_PRODUCTS."""

    __slots__ = ()

    def __missing__(self, key):
        return _UNSET

    def __setitem__(self, key, value):
        if len(self) < _MAX_PRODUCTS:
            dict.__setitem__(self, key, value)


class ElementTable:
    """The elements of a finite ring by index, and what is computed of
    them, stored by index.

    It is built from the list of ring.elements(): element i gets index i,
    and ring.zero, ring.one and ring.table become the indexed ones.  An
    element without an index (parsed, or built by a backend) finds it by
    its payload, read only as a dict key.  Every store holds the answers
    themselves, as kept() keeps them, reads _UNSET until an answer is set
    and fills as it is asked: for each pair, its sum and its product; for
    each element, its negative and its star; and rows[name][side], the
    answers of a memoized function.  Every element the table returns is
    an indexed one.

    The ideals are indexed on first use, both sides at once in the order
    of ring.ideal_reps, by their (side, key).  The first ideal of a key
    to arrive is the interned one, whose index attribute is set; the
    ideals the table returns are interned ones.  Then, by ideal index,
    it stores each ideal's generator, whether it holds each element, and
    ideal_pairs[name], the answers of a memoized_pair function.

    It keeps the additive generators as indexed elements, and the members
    of each coset it lists as one tuple of indexed elements in canonical
    order, which is index order, by (index of the base, rep): under its
    first member, and under each other base asked.  A stored member and
    an other base count one member reference each; a coset that would
    take them past _MAX_PRODUCTS is listed by the backend, unstored.
    In _Bounded stores it keeps each solve, as an indexed element or
    None, by (index of a, index of u, side); each linear_solutions Coset,
    with an indexed base, by the indices of each f's images of the
    additive generators and of c; each coset span by the indices of its
    generators; and bundles[name], the answers of a memoized_bundle
    function.  stored() reads and fills each store but the hot ones: the
    sums, the products and the memoized rows.
    """

    __slots__ = ("ring", "elements", "size", "products", "rows",
                 "_positions", "_sums", "_negatives", "_stars",
                 "interned_ideals", "ideal_pairs", "_ideal_positions",
                 "_ideal_contains", "_ideal_generators", "_generators",
                 "_cosets", "_stored_members", "_solves", "_spans",
                 "_linear", "bundles")

    def __init__(self, ring, elements):
        elements = self.elements = tuple(elements)
        for i, a in enumerate(elements):
            a.index = i
        self.ring = ring
        n = self.size = len(elements)
        self._positions = {a.payload: a.index for a in elements}
        self._sums, self.products = self.pairs(), self.pairs()
        self._negatives, self._stars = [_UNSET] * n, [_UNSET] * n
        self.rows = defaultdict(partial(_Rows, n))
        self.interned_ideals = None
        ring.zero, ring.one = self.indexed(ring.zero), self.indexed(ring.one)
        self._generators = tuple(map(self.indexed,
                                     ring.additive_generators()))
        self._cosets, self._stored_members = {}, 0
        self._solves, self._spans, self._linear = (
            _Bounded(), _Bounded(), _Bounded())
        self.bundles = defaultdict(_Bounded)
        ring.table = self

    def pairs(self, rows=None, columns=None):
        """A fresh store of one answer per pair (i, j), i below rows and j
        below columns (each the table's size by default), at key
        i * columns + j, that reads _UNSET until set.  It is a flat list
        up to _MAX_FLAT elements, bounded above; pair(a, b) is the key of
        two elements."""
        n = self.size
        if n > _MAX_FLAT:
            return _Bounded()
        return [_UNSET] * ((rows or n) * (columns or n))

    def position(self, a):
        i = a.index
        return self._positions[a.payload] if i is None else i

    def pair(self, a, b):
        return self.position(a) * self.size + self.position(b)

    def indexed(self, a):
        """The indexed element equal to a."""
        return self.elements[self.position(a)]

    def _pairwise(self, store, op, a, b):
        i, j = a.index, b.index
        if i is None:
            i = self._positions[a.payload]
        if j is None:
            j = self._positions[b.payload]
        k = i * self.size + j
        out = store[k]
        if out is _UNSET:
            out = store[k] = self.indexed(op(a, b))
        return out

    def stored(self, store, key, compute, *args):
        """store[key], set to kept(compute(*args)) while it reads _UNSET."""
        out = store[key]
        if out is _UNSET:
            out = store[key] = self.kept(compute(*args))
        return out

    # the backend's operations, under its names

    def add(self, a, b):
        return self._pairwise(self._sums, self.ring.add, a, b)

    def mul(self, a, b):
        return self._pairwise(self.products, self.ring.mul, a, b)

    def neg(self, a):
        return self.stored(self._negatives, self.position(a),
                           self.ring.neg, a)

    def involute(self, a):
        return self.stored(self._stars, self.position(a),
                           self.ring.involute, a)

    def additive_generators(self):
        return self._generators

    def solve(self, a, u, side):
        return self.stored(self._solves, self.pair(a, u) * 2 + (side == LEFT),
                           self.ring.solve, a, u, side)

    def coset_span(self, generators):
        return self.stored(self._spans, tuple(map(self.position, generators)),
                           self.ring.coset_span, generators)

    def linear_solutions(self, equations):
        # an additive f is known by its images of the additive generators:
        # the key is their indices and c's, one int in base N, after the
        # number of equations
        n, position, key = self.size, self.position, len(equations)
        for f, c in equations:
            for e in self._generators:
                key = key * n + position(f(e))
            key = key * n + position(c)
        return self.stored(self._linear, key, self.ring.linear_solutions,
                           equations)

    def coset_members(self, base, rep):
        key = self.position(base), rep
        members = self._cosets.get(key)
        if members is None:
            # a coset is kept once, under its first member, and another
            # base of it is one more key to the same members
            listing = self.ring.coset_members(base, rep)
            first = next(listing)
            head = self.position(first), rep
            members = self._cosets.get(head)
            if members is None:
                size = self.ring.coset_size(rep)
                if self._stored_members + size > _MAX_PRODUCTS:
                    return chain((first,), listing)
                self._stored_members += size
                members = self._cosets[head] = tuple(
                    map(self.indexed, chain((first,), listing)))
            if key != head and self._stored_members < _MAX_PRODUCTS:
                self._stored_members += 1
                self._cosets[key] = members
        return iter(members)

    # the ideals, by index

    def _index_ideals(self):
        ring = self.ring
        keys = [(side, ring.ideal_key(rep)) for side in (RIGHT, LEFT)
                for rep in ring.ideal_reps(side)]
        m = len(keys)
        self._ideal_positions = {key: i for i, key in enumerate(keys)}
        self.interned_ideals = [None] * m
        self._ideal_generators = [_UNSET] * m
        self._ideal_contains = self.pairs(m)
        self.ideal_pairs = defaultdict(partial(self.pairs, m, m))

    def interned(self, ideal):
        """The interned ideal equal to ideal, an ideal of this ring."""
        if ideal.index is not None:
            return ideal
        if self.interned_ideals is None:
            self._index_ideals()
        i = self._ideal_positions[ideal.key]
        out = self.interned_ideals[i]
        if out is None:
            ideal.index = i
            out = self.interned_ideals[i] = ideal
        return out

    def kept(self, out):
        """An answer as the table keeps it: an element by its indexed one,
        a Coset by one with its base indexed, an ideal by its interned one,
        and anything else (None, a bool, a rep, a report) as it is."""
        if isinstance(out, RingElement):
            return self.indexed(out)
        if isinstance(out, Coset):
            return Coset(self.indexed(out.base), out.rep)
        # the one other answer with an index is a SidedIdeal, whose
        # module imports this one
        return self.interned(out) if hasattr(out, "index") else out

    def contains(self, ideal, a):
        i = ideal.index
        if i is None:
            i = self.interned(ideal).index
        return self.stored(self._ideal_contains,
                           i * self.size + self.position(a),
                           self.ring.ideal_contains, ideal.side, ideal.rep, a)

    def generator(self, ideal):
        i = ideal.index
        if i is None:
            i = self.interned(ideal).index
        return self.stored(self._ideal_generators, i,
                           self.ring.ideal_generator, ideal.side, ideal.rep)


class _Rows(dict):
    """The rows of one function in a table, by side (None for a function
    of the element alone): each a list of answers by index, made on first
    use, where _UNSET marks an answer not computed."""

    __slots__ = ("size",)

    def __init__(self, size):
        super().__init__()
        self.size = size

    def __missing__(self, key):
        row = self[key] = [_UNSET] * self.size
        return row


def memoized(fn):
    """Memoize fn(a) or fn(a, side) on the finite ring of a.

    On a ring with an ElementTable the answers live in the table, one row
    per function and side, by the element's index; on any other finite
    ring in ring.memo[fn.__name__], by a.payload or (a.payload, side).
    Either way they die with the ring.  An infinite ring has no memo and
    always calls fn.
    """
    name = fn.__name__

    @wraps(fn)
    def wrapper(a, side=None):
        ring = a.ring
        table = ring.table
        if table is not None:
            row = table.rows[name][side]
            i = a.index
            if i is None:
                i = table.position(a)
            out = row[i]
            if out is _UNSET:
                out = row[i] = table.kept(
                    fn(a) if side is None else fn(a, side))
            return out
        if ring.memo is None:
            return fn(a) if side is None else fn(a, side)
        store = ring.memo.setdefault(name, {})
        key = a.payload if side is None else (a.payload, side)
        out = store.get(key, _UNSET)
        if out is _UNSET:
            out = store[key] = fn(a) if side is None else fn(a, side)
        return out
    return wrapper


def memoized_pair(fn):
    """Memoize fn(s, t), for ideals s and t of one ring and side, as
    memoized does: in the table, one store per function by the pair of
    ideal indices, when t is of s's ring object and side; in ring.memo by
    (s.key, t.key) on any other finite ring.  A pair with t of another,
    equal ring object is computed, unstored, on an indexed ring.  Outside
    an index pair the ring and side check runs first, so that a warm memo
    still refuses a pair from different rings or sides.
    """
    name = fn.__name__

    @wraps(fn)
    def wrapper(s, t):
        ring = s.ring
        table = ring.table
        if table is not None and t.ring is ring and t.side == s.side:
            i, j = s.index, t.index
            if i is None:
                i = table.interned(s).index
            if j is None:
                j = table.interned(t).index
            store = table.ideal_pairs[name]
            k = i * len(table.interned_ideals) + j
            out = store[k]
            if out is _UNSET:
                out = store[k] = table.kept(fn(s, t))
            return out
        s._compatible(t)
        if ring.memo is None or table is not None:
            return fn(s, t)
        store = ring.memo.setdefault(name, {})
        key = s.key, t.key
        out = store.get(key, _UNSET)
        if out is _UNSET:
            out = store[key] = fn(s, t)
        return out
    return wrapper


def memoized_bundle(fn):
    """Memoize fn(a, bundle, reflexive=False), where bundle.ideals is a
    tuple of ideals of a's ring or None, on a ring with an ElementTable:
    in the table, one store per function by the index of a, the indices
    of the bundle's interned ideals and reflexive.  A bundle with an
    ideal of another, equal ring object is computed unstored, and so is
    every call on a ring without a table.
    """
    name = fn.__name__

    @wraps(fn)
    def wrapper(a, bundle, reflexive=False):
        ring = a.ring
        table = ring.table
        if table is None:
            return fn(a, bundle, reflexive)
        if table.interned_ideals is None:
            table._index_ideals()
        # one int, in base M + 1 for the M interned ideals, 0 for no ideal
        m = len(table.interned_ideals) + 1
        key = table.position(a) * 2 + bool(reflexive)
        for s in bundle.ideals:
            key *= m
            if s is not None:
                if s.ring is not ring:
                    return fn(a, bundle, reflexive)
                i = s.index
                key += 1 + (table.interned(s).index if i is None else i)
        return table.stored(table.bundles[name], key, fn, a, bundle,
                            reflexive)
    return wrapper


def Zn(n):
    return ModularRing(n)


def MatQ(k):
    return MatrixRing(k, QQ)


def MatF(k, p):
    return MatrixRing(k, PrimeField(p))


def ring_from_name(name):
    """Parse ring shorthands: zn:6, m2q, m2f2, m3f5, ..."""
    name = name.strip().lower()
    if name.startswith("zn:"):
        return Zn(int(name[3:]))
    if name.startswith("m"):
        rest = name[1:]
        i = 0
        while i < len(rest) and rest[i].isdigit():
            i += 1
        if i:
            k = int(rest[:i])
            tail = rest[i:]
            if tail == "q":
                return MatQ(k)
            if tail.startswith("f") and tail[1:].isdigit():
                return MatF(k, int(tail[1:]))
    raise ValueError("unknown ring %r (try zn:6, m2q, m2f2)" % name)


def classify(a):
    """Structural flags of a single element."""
    from .geninv import drazin_index
    ring = a.ring
    flags = {
        "zero": a == ring.zero,
        "one": a == ring.one,
        "idempotent": a * a == a,
    }
    if ring.has_involution:
        flags["symmetric"] = a.star == a
        flags["projection"] = flags["idempotent"] and flags["symmetric"]
    else:
        flags["symmetric"] = None
        flags["projection"] = None
    flags["invertible"] = is_invertible(a)
    flags.update(ring.element_flags(a))
    # a^j R stops descending at j = ind(a), and at 0 iff a is nilpotent
    flags["nilpotent"] = a ** drazin_index(a) == ring.zero
    return flags


def is_invertible(a):
    return a.ring.unit_inverse(a) is not None


def inverse_of_unit(a):
    inv = a.ring.unit_inverse(a)
    if inv is None:
        raise ValueError("element is not invertible")
    return inv


def least_solution_mod(c, u, n):
    """The least y >= 0 with c*y = u (mod n), or None if there is none."""
    g = gcd(c, n)
    if u % g:
        return None
    m = n // g
    return u // g * pow(c // g, -1, m) % m


# -- divisors of a modulus ------------------------------------------------

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
