"""Exact linear algebra over Q and prime fields.

Matrices are tuples of row tuples; scalars are Fraction (over Q) or ints in
range(p) (over GF(p)).  Everything here is exact -- no floats anywhere.

A field is zero, one, reduce, inv, convert and parse.  Scalars combine
with Python's own + - *, and reduce(v) brings each computed entry back
into the field once (v itself over Q, v % p over GF(p)).  A matrix
product over Q sums only its nonzero terms, those whose two factors are
both nonzero; the sum, and so the Fraction, is the same.  Every solve is
one elimination: rref of [a | b].  Over Q it runs on integer rows, and
every matrix still leaves as Fractions in lowest terms.

_is_prime is the one primality test: it decides a field order here and
the prime factors of a modulus in rings.divisors.
"""

import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from .errors import BudgetError


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime: trial division by _MR_BASES, then Miller-Rabin
    with those bases.  n at or above _MR_EXACT raises BudgetError, so no
    answer rests on a probable prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT:
        raise BudgetError("cannot test primality exactly: a %d-bit "
                          "number is past the Miller-Rabin bound"
                          % n.bit_length())
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _past_limit(n, limit):
    """Whether int n has more than limit decimal digits."""
    # 10**limit has more than 3 * limit bits
    return n.bit_length() > 3 * limit and abs(n) >= 10 ** limit


class Rationals:
    """The field Q with Fraction scalars."""

    finite = False
    name = "q"

    zero = Fraction(0)
    one = Fraction(1)

    def reduce(self, v):
        return v

    def convert(self, v):
        return Fraction(v)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def parse(self, s):
        """The Fraction a literal such as 3, -2/7, 0.5 or 1e-3 stands for.
        A literal whose numerator or denominator has more digits than
        Python writes as a string (sys.get_int_max_str_digits(), 0 for no
        limit) raises ValueError."""
        text = str(s)
        limit = sys.get_int_max_str_digits()
        if not limit:
            return Fraction(text)
        _, e, exp = text.lower().partition("e")
        # a nonzero value keeps a factor 10**(|exp| - len(text)) after any
        # cancellation, so such an exponent is refused before Fraction
        # forms 10**|exp|, on a zero mantissa too
        if not (e and abs(int(exp)) > limit + len(text)):
            v = Fraction(text)
            if not (_past_limit(v.numerator, limit)
                    or _past_limit(v.denominator, limit)):
                return v
        raise ValueError("more than %d digits in the numerator or "
                         "denominator" % limit)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with int scalars in range(p)."""

    finite = True

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("field order must be prime, got %r" % (p,))
        self.p = p
        self.name = "f%d" % p
        self.zero = 0
        self.one = 1 % p

    def reduce(self, v):
        return v % self.p

    def convert(self, v):
        return int(v) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def parse(self, s):
        return int(str(s)) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


# --- basic matrix ops (tuple-of-row-tuples) ---

def mat_shape(a):
    return len(a), len(a[0]) if a else 0

def identity(field, n):
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))

def zero_matrix(field, rows, cols):
    return tuple(tuple(field.zero for _ in range(cols)) for _ in range(rows))

def mat_add(field, a, b):
    reduce = field.reduce
    return tuple(tuple(reduce(x + y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))

def mat_neg(field, a):
    reduce = field.reduce
    return tuple(tuple(reduce(-x) for x in r) for r in a)

def mat_mul(field, a, b):
    bt = transpose(b)
    if field.finite:
        reduce = field.reduce
        return tuple(tuple(reduce(sum(map(mul, ra, cb))) for cb in bt)
                     for ra in a)
    # Over Q only the terms with two nonzero factors are formed (over
    # GF(p) the same skipping measured slower than the dense sum).  Each
    # column's nonzero (index, entry) pairs are listed once, the entries
    # as Fractions so that every sum is one, each row's nonzero entries
    # are looked up by index, and a sum starts at its first term, not 0.
    zero = QQ.zero
    cols = [[(k, y if type(y) is Fraction else Fraction(y))
             for k, y in enumerate(cb) if y] for cb in bt]
    out = []
    for ra in a:
        row = {k: x for k, x in enumerate(ra) if x}
        terms = [[row[k] * y for k, y in col if k in row] for col in cols]
        out.append(tuple(sum(t[1:], t[0]) if t else zero for t in terms))
    return tuple(out)

def transpose(a):
    return tuple(zip(*a)) if a else ()

def rref(field, rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    rref_rows keeps the original row count (zero rows at the bottom).
    Over Q the elimination runs on integer rows (_rref_q); over GF(p) on
    the scalars themselves.
    """
    if not field.finite:
        return _rref_q(rows)
    reduce = field.reduce
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = field.inv(m[r][c])
        m[r] = [reduce(pv * x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [reduce(x - f * y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def _primitive(row):
    """row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref_q(rows):
    """rref over Q, fraction-free: each row enters scaled by the lcm of
    its denominators, and every row operation is row_i <- pv row_i - f row_r
    on integers, pv the pivot of row r, with the result divided by its
    content.  Pivot row i leaves divided by its pivot, as Fractions in
    lowest terms; the RREF is unique, so it is the one the field loop
    gives."""
    m = []
    for row in rows:
        d = lcm(*[x.denominator for x in row])
        m.append(_primitive([x.numerator * (d // x.denominator)
                             for x in row]))
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        pv = top[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = _primitive([pv * x - f * y for x, y in zip(m[i], top)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = QQ.zero
    out = [tuple(Fraction(x, row[c]) if x else zero for x in row)
           for row, c in zip(m, pivots)]
    out += [(zero,) * ncols] * (nrows - r)
    return tuple(out), tuple(pivots)


def rank(field, a):
    return len(rref(field, a)[1])


def nullspace_basis(field, a):
    """Basis (tuple of vectors) of the right nullspace {v : a v = 0}."""
    nrows, ncols = mat_shape(a)
    if ncols == 0:
        return ()
    r, pivots = rref(field, a)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.reduce(-r[i][f])
        basis.append(tuple(v))
    return tuple(basis)


def solve_matrix(field, a, b):
    """One solution X of a X = b (matrix right-hand side), or None.

    One rref of [a | b]: a pivot in b's columns means no solution, and
    otherwise row i of the reduced b is row p_i of X, p_i the pivot
    column of row i, with the other rows zero.  The row operations depend
    on a's columns only, so X is the solution each column of b would get
    on its own.
    """
    ncols = mat_shape(a)[1]
    r, pivots = rref(field, tuple(ra + rb for ra, rb in zip(a, b)))
    if pivots and pivots[-1] >= ncols:
        return None
    x = [(field.zero,) * len(b[0])] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][ncols:]
    return tuple(x)


def mat_inverse(field, a):
    """Inverse of a square matrix, or None if singular."""
    n, m = mat_shape(a)
    if n != m:
        raise ValueError("matrix is not square")
    return solve_matrix(field, a, identity(field, n))


class Subspace:
    """A subspace of F^n held as a canonical RREF row basis, with the
    pivot column of each row."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, basis=()):
        self.field = field
        self.ambient = ambient
        r, self.pivots = rref(field, basis) if basis else ((), ())
        self.basis = r[:len(self.pivots)]

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        return cls(field, ambient, tuple(tuple(v) for v in vectors))

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        # Row i is 1 at its pivot and 0 at the other rows' pivots, so v is
        # in the span iff v minus v[p_i] times row i, over all i, is zero.
        r = list(v)
        for c, row in zip(self.pivots, self.basis):
            f = r[c]
            if f:
                r = [x - f * y for x, y in zip(r, row)]
        return not any(map(self.field.reduce, r))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)

    def sum(self, other):
        return Subspace(self.field, self.ambient, self.basis + other.basis)

    def perp(self):
        """Orthogonal complement w.r.t. the standard bilinear form."""
        if self.dim == 0:
            basis = identity(self.field, self.ambient)
            return Subspace(self.field, self.ambient, basis)
        return Subspace(self.field, self.ambient,
                        nullspace_basis(self.field, self.basis))

    def intersect(self, other):
        # (U + V)^perp = U^perp cap V^perp and perp is an involution, so
        # U cap V = (U^perp + V^perp)^perp; exact over any field.
        return self.perp().sum(other.perp()).perp()

    def complement(self):
        """A complement built by greedy standard-basis extension."""
        span, extra = self, ()
        for e in identity(self.field, self.ambient):
            if not span.contains(e):
                extra += (e,)
                span = Subspace(self.field, self.ambient, self.basis + extra)
        return Subspace(self.field, self.ambient, extra)

    def preimage(self, a):
        """Preimage {v : a v in self}."""
        perp_rows = self.perp().basis
        if not perp_rows:
            return Subspace(self.field, len(a[0]),
                            identity(self.field, len(a[0])))
        m = mat_mul(self.field, perp_rows, a)
        return Subspace(self.field, len(a[0]), nullspace_basis(self.field, m))

    def vectors(self):
        """All vectors of the subspace (finite fields only), canonical order."""
        field = self.field
        if not field.finite:
            raise ValueError("cannot enumerate a subspace over an infinite field")
        # a basis is independent, so each coefficient tuple is one vector
        cols = [[b[i] for b in self.basis] for i in range(self.ambient)]
        return sorted(tuple(field.reduce(sum(map(mul, coeffs, col)))
                            for col in cols)
                      for coeffs in product(field.elements(), repeat=self.dim))


def zero_subspace(field, ambient):
    return Subspace(field, ambient)


def full_subspace(field, ambient):
    return Subspace(field, ambient, identity(field, ambient))


def is_direct_sum(u, v):
    return (u.dim + v.dim == u.ambient
            and u.sum(v).dim == u.ambient)


def projection_matrix(u, v):
    """Matrix of the projection onto u along v; requires F^n = u (+) v."""
    field = u.field
    n = u.ambient
    if not is_direct_sum(u, v):
        raise ValueError("not a direct sum")
    cols = tuple(u.basis) + tuple(v.basis)
    m = transpose(cols)  # basis vectors as columns
    minv = mat_inverse(field, m)
    d = tuple(tuple(field.one if (i == j and i < u.dim) else field.zero
                    for j in range(n)) for i in range(n))
    return mat_mul(field, mat_mul(field, m, d), minv)
