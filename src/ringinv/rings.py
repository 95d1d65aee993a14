"""Ring backends: Z_n and matrix rings over Q / GF(p).

Elements are immutable and hashable.  All enumeration orders are canonical:
residues ascending; matrices in row-major lexicographic scalar order.
"""

from functools import wraps
from itertools import chain, product
from math import gcd

from .errors import (NotEnumerableError, RingMismatchError,
                     UnsupportedInvolutionError)
from .linalg import (QQ, PrimeField, Subspace, identity, mat_add, mat_mul,
                     mat_neg, nullspace_basis, transpose,
                     zero_matrix)


class RingElement:
    """An element of a Ring; payload is an int (Z_n) or tuple-of-tuples."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def _check(self, other):
        # identity first: the elements of one ring share its object
        if not isinstance(other, RingElement) or (
                other.ring is not self.ring and other.ring != self.ring):
            raise RingMismatchError("elements of different rings")

    def __add__(self, other):
        self._check(other)
        return self.ring.add(self, other)

    def __sub__(self, other):
        self._check(other)
        return self.ring.add(self, -other)

    def __neg__(self):
        return self.ring.neg(self)

    def __mul__(self, other):
        self._check(other)
        return self.ring.mul(self, other)

    def __pow__(self, k):
        # square and multiply: about 2 log2(k) products
        if k < 0:
            raise ValueError("negative powers are not defined")
        out, square = self.ring.one, self
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    @property
    def star(self):
        return self.ring.involute(self)

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and (other.ring is self.ring or other.ring == self.ring)
                and other.payload == self.payload)

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __repr__(self):
        return "%s(%s)" % (self.ring.short_name, self.ring.render(self))

    def sort_key(self):
        return self.ring.sort_key(self)


class Ring:
    """Common interface; see ModularRing and MatrixRing."""

    has_involution = False
    finite = False
    memo = None     # a dict on finite rings, filled by @memoized functions

    def involute(self, a):
        raise UnsupportedInvolutionError(
            "%s has no involution" % self.short_name)

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

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.n == self.n

    def __hash__(self):
        return hash(("ModularRing", self.n))

    def __repr__(self):
        return "Z_%d" % self.n


# the bound of the product table: about 25 MB, room for all of M2(F2) and
# M2(F3); a timed verify on M3(F3) would otherwise grow it without end
_MAX_PRODUCTS = 1 << 16


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
        self.zero = RingElement(self, zero_matrix(field, k, k))
        self.one = RingElement(self, identity(field, k))

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
        # only the oracle gives a ring a product table (see verify)
        table = self.memo.get("mul") if self.memo is not None else None
        key = (a.payload, b.payload)
        if table is None:
            return RingElement(self, mat_mul(self.field, *key))
        out = table.get(key)
        if out is None:
            out = RingElement(self, mat_mul(self.field, *key))
            if len(table) < _MAX_PRODUCTS:
                table[key] = out
        return out

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

    def __eq__(self, other):
        return (isinstance(other, MatrixRing) and other.k == self.k
                and other.field == self.field)

    def __hash__(self):
        return hash(("MatrixRing", self.k, self.field))

    def __repr__(self):
        return "M_%d(%r)" % (self.k, self.field)


class Coset:
    """base + D for an additive subgroup D of a finite ring.

    One representation per backend, as for ideals: on Z_n, D = mZ_n for
    the step m | n; on M_k(GF(p)), D is spanned by basis, vectors of
    GF(p)^(k^2) in RREF, each matrix read as its entries in row-major
    order.  The members iterate lazily in canonical order, and size()
    counts them without listing.
    """

    __slots__ = ("base", "step", "basis")

    def __init__(self, base, step=None, basis=None):
        self.base = base
        self.step = step
        self.basis = basis

    @classmethod
    def spanned(cls, base, generators):
        """base + the additive subgroup that generators generate."""
        ring = base.ring
        if isinstance(ring, ModularRing):
            return cls(base, step=gcd(ring.n, *(g.payload
                                                for g in generators)))
        return cls(base, basis=Subspace(
            ring.field, ring.k * ring.k,
            tuple(_entries(g) for g in generators)).basis)

    def size(self):
        ring = self.base.ring
        if self.step is not None:
            return ring.n // self.step
        return ring.field.p ** len(self.basis)

    def members(self):
        return list(self)

    def __iter__(self):
        ring = self.base.ring
        if self.step is not None:
            m = self.step
            for v in range(self.base.payload % m, ring.n, m):
                yield RingElement(ring, v)
            return
        # The basis is in RREF.  With the base moved to 0 at the pivot
        # columns, the coefficients of a member are its entries there, and
        # the first entry in which two members differ is a pivot entry:
        # coefficient tuples in product order list the members in
        # canonical order.
        p, k = ring.field.p, ring.k
        base = _entries(self.base)
        steps = []
        for b in self.basis:
            lead = base[next(i for i, v in enumerate(b) if v)]
            if lead:
                base = tuple((x - lead * y) % p for x, y in zip(base, b))
            steps.append([tuple(c * y for y in b) for c in range(p)])
        for choice in product(*steps):
            flat = iter([v % p for v in map(sum, zip(base, *choice))])
            yield RingElement(ring, tuple(zip(*[flat] * k)))


def _entries(a):
    return tuple(chain.from_iterable(a.payload))


def linear_solutions(ring, equations):
    """The x of a finite ring with f(x) = c for every (f, c) in
    equations, as a Coset, or None when there is none.

    Each f must be additive, and it is read through ring operations only:
    at each additive generator.  On M_k(GF(p)) the k^2 entries of every
    equation give k^2 scalar equations, all solved at once.  On Z_n each
    equation is f(1) x = c, and the congruences fold one by one into the
    coset x0 + mZ_n.
    """
    if isinstance(ring, ModularRing):
        n, x0, m = ring.n, 0, 1
        for f, c in equations:
            u = f(ring.one).payload
            # x = x0 + m y with u m y = c - u x0 (mod n)
            y = least_solution_mod(u * m, c.payload - u * x0, n)
            if y is None:
                return None
            x0 += m * y
            m = n // gcd(u, n // m)
        return Coset(RingElement(ring, x0), step=m)
    field, k = ring.field, ring.k
    units = ring.additive_generators()[::-1]
    rows = []
    for f, c in equations:
        rows.extend(zip(*[_entries(f(e)) for e in units], _entries(c)))
    if not rows:
        return Coset(ring.zero, basis=identity(field, k * k))
    # x solves A x = c iff (x, -1) lies in the nullspace of [A | c].  Its
    # basis has one vector per free column, and only the one of the last
    # column can end in a nonzero: it does iff that column has no pivot.
    # The columns of A are taken in reverse order, so that the other
    # vectors, read forward, are an RREF basis of the nullspace of A, and
    # x is zero at their pivots.
    basis = nullspace_basis(field, tuple(rows))
    if not basis or not basis[-1][-1]:
        return None
    x = iter([field.reduce(-v) for v in basis[-1][-2::-1]])
    return Coset(RingElement(ring, tuple(zip(*[x] * k))),
                 basis=tuple(v[-2::-1] for v in reversed(basis[:-1])))


def memoized(key):
    """Memoize a function on the finite ring of its first argument.

    The results live in ring.memo, one dict per function keyed by
    key(*args), so they are freed with the ring.  An infinite ring has
    no memo and always calls the function.  key runs on every call, so a
    check it makes holds on a warm memo and on an infinite ring alike.
    """
    def decorate(fn):
        name = fn.__name__

        @wraps(fn)
        def wrapper(*args):
            k = key(*args)
            memo = args[0].ring.memo
            if memo is None:
                return fn(*args)
            table = memo.get(name)
            if table is None:
                table = memo[name] = {}
            try:
                return table[k]
            except KeyError:
                out = table[k] = fn(*args)
                return out
        return wrapper
    return decorate


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
    if isinstance(ring, MatrixRing):
        from .linalg import rank as _rank
        flags["rank"] = _rank(ring.field, a.payload)
    flags["nilpotent"] = _is_nilpotent(a)
    return flags


def is_invertible(a):
    ring = a.ring
    if isinstance(ring, ModularRing):
        return gcd(a.payload, ring.n) == 1
    if isinstance(ring, MatrixRing):
        from .linalg import mat_inverse
        return mat_inverse(ring.field, a.payload) is not None
    raise TypeError("unknown ring type")


def inverse_of_unit(a):
    ring = a.ring
    if isinstance(ring, ModularRing):
        return ring.element(pow(a.payload, -1, ring.n))
    if isinstance(ring, MatrixRing):
        from .linalg import mat_inverse
        inv = mat_inverse(ring.field, a.payload)
        if inv is None:
            raise ValueError("element is not invertible")
        return RingElement(ring, inv)
    raise TypeError("unknown ring type")


def least_solution_mod(c, u, n):
    """The least y >= 0 with c*y = u (mod n), or None if there is none."""
    g = gcd(c, n)
    if u % g:
        return None
    m = n // g
    return u // g * pow(c // g, -1, m) % m


def _is_nilpotent(a):
    ring = a.ring
    if isinstance(ring, MatrixRing):
        bound = ring.k
    else:
        bound = ring.n.bit_length()
    x = a
    for _ in range(bound):
        if x == ring.zero:
            return True
        x = x * a
    return x == ring.zero
