"""Ring backends: Z_n and matrix rings over Q / GF(p).

Elements are immutable and hashable.  All enumeration orders are canonical:
residues ascending; matrices in row-major lexicographic scalar order.
"""

from functools import wraps
from itertools import product
from math import gcd

from .errors import (NotEnumerableError, RingMismatchError,
                     UnsupportedInvolutionError)
from .linalg import (QQ, PrimeField, identity, mat_add, mat_mul, mat_neg,
                     transpose, zero_matrix)


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


def memoized(key):
    """Memoize a function on the finite ring of its first argument.

    The results live in ring.memo, one dict per function keyed by
    key(*args), so they are freed with the ring.  An infinite ring has
    no memo and always calls the function.
    """
    def decorate(fn):
        name = fn.__name__

        @wraps(fn)
        def wrapper(*args):
            memo = args[0].ring.memo
            if memo is None:
                return fn(*args)
            table = memo.get(name)
            if table is None:
                table = memo[name] = {}
            k = key(*args)
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
