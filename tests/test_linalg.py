"""Exact linear algebra: RREF, nullspaces, subspaces, projections."""

import itertools
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringinv import linalg
from ringinv.errors import BudgetError
from ringinv.linalg import (QQ, PrimeField, Subspace, identity, mat_inverse,
                            mat_mul, nullspace_basis, projection_matrix, rank,
                            rref, solve_matrix, transpose)
from ringinv.rings import RIGHT, MatF

F2 = PrimeField(2)
F5 = PrimeField(5)


def q(rows):
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def images(field, a, vectors):
    """The a v for the vectors v, as the columns of a times their matrix."""
    return transpose(mat_mul(field, a, transpose(vectors)))


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_field_arithmetic():
    assert F5.reduce(3 * 4) == 2
    assert F5.reduce(-3) == 2
    assert QQ.reduce(Fraction(1, 2)) == Fraction(1, 2)
    assert F5.inv(3) == 2
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_rref_canonical():
    m = q([[2, 4], [1, 2]])
    r, pivots = rref(QQ, m)
    assert pivots == (0,)
    assert r == q([[1, 2], [0, 0]])
    # idempotent: reducing an RREF changes nothing
    assert rref(QQ, r)[0] == r


def test_rank_and_nullspace():
    m = q([[2, -2], [0, 0]])
    assert rank(QQ, m) == 1
    basis = nullspace_basis(QQ, m)
    assert len(basis) == 1
    assert images(QQ, m, basis) == ((0, 0),)


def test_solve_and_solve_matrix():
    a = q([[1, 2], [3, 5]])
    x = solve_matrix(QQ, a, q([[1], [2]]))
    assert mat_mul(QQ, a, x) == q([[1], [2]])
    assert solve_matrix(QQ, q([[1, 1], [1, 1]]), q([[0], [1]])) is None
    b = q([[1, 0], [0, 1]])
    xm = solve_matrix(QQ, a, b)
    assert mat_mul(QQ, a, xm) == b


def test_each_solve_is_one_elimination(monkeypatch):
    calls = []
    reduce_rows = linalg.rref

    def counting(field, rows):
        calls.append(len(rows[0]))
        return reduce_rows(field, rows)

    monkeypatch.setattr(linalg, "rref", counting)
    a = q([[1, 2, 0], [3, 5, 1], [0, 1, 1]])
    b = q([[1, 0, 2], [0, 1, 0], [4, 0, 1]])
    assert mat_mul(QQ, a, solve_matrix(QQ, a, b)) == b
    assert calls == [6]
    calls.clear()
    assert mat_mul(QQ, a, mat_inverse(QQ, a)) == identity(QQ, 3)
    assert calls == [6]


def test_mat_inverse():
    a = q([[1, 2], [3, 5]])
    inv = mat_inverse(QQ, a)
    assert mat_mul(QQ, a, inv) == identity(QQ, 2)
    assert mat_inverse(QQ, q([[1, 1], [1, 1]])) is None


def test_subspace_canonical_representation():
    u = Subspace.from_vectors(F5, 2, [(1, 2)])
    v = Subspace.from_vectors(F5, 2, [(2, 4)])
    assert u == v and u.dim == 1
    assert u.contains((3, 1))
    assert not u.contains((1, 0))


def vectors(u):
    """Every vector of a subspace over GF(p), in product order."""
    return [v for v in itertools.product(range(u.field.p), repeat=u.ambient)
            if u.contains(v)]


def test_subspace_lattice_operations():
    u = Subspace.from_vectors(F2, 3, [(1, 0, 0), (0, 1, 0)])
    v = Subspace.from_vectors(F2, 3, [(0, 1, 0), (0, 0, 1)])
    whole = Subspace(F2, 3, identity(F2, 3))
    w = u.intersect(v)
    assert w.dim == 1 and w.contains((0, 1, 0))
    assert Subspace(F2, 3, u.basis + v.basis) == whole
    assert u.intersect(whole) == whole.intersect(u) == u
    assert u.preimage(identity(F2, 3)) == u


def test_subspace_complement_and_vectors():
    u = Subspace.from_vectors(F2, 2, [(1, 1)])
    c = u.complement()
    assert c == Subspace(F2, 2, ((1, 0),))
    assert projection_matrix(u, c) is not None
    assert vectors(u) == [(0, 0), (1, 1)]


def test_projection_matrix_laws():
    u = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(0))])
    v = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(1))])
    p = projection_matrix(u, v)
    assert mat_mul(QQ, p, p) == p
    assert images(QQ, p, u.basis) == u.basis
    assert images(QQ, p, v.basis) == ((0, 0),)
    assert projection_matrix(u, u) is None
    assert projection_matrix(u, Subspace(QQ, 2)) is None


def test_each_subspace_question_is_one_elimination(monkeypatch):
    """The meet, the complement and the preimage take one elimination and
    the constructor's canonical RREF; the projector one inverse."""
    calls = []
    reduce_rows = linalg.rref

    def counting(field, rows):
        calls.append(len(rows))
        return reduce_rows(field, rows)

    u = Subspace.from_vectors(F5, 3, [(1, 2, 0), (0, 1, 4)])
    v = Subspace.from_vectors(F5, 3, [(1, 1, 1), (2, 0, 3)])
    a = ((1, 2, 3), (0, 4, 1), (2, 2, 0))
    monkeypatch.setattr(linalg, "rref", counting)
    for answer in (lambda: u.intersect(v), u.complement,
                   lambda: u.preimage(a)):
        calls.clear()
        answer()
        assert len(calls) == 2
    w = Subspace(F5, 3, ((0, 0, 1),))
    calls.clear()
    assert projection_matrix(u, w) is not None
    assert calls == [3]


@st.composite
def f5_matrix(draw, rows=3, cols=3):
    return tuple(tuple(draw(st.integers(0, 4)) for _ in range(cols))
                 for _ in range(rows))


@settings(max_examples=60)
@given(f5_matrix())
def test_rank_nullity(m):
    assert rank(F5, m) + len(nullspace_basis(F5, m)) == 3


@settings(max_examples=60)
@given(f5_matrix())
def test_nullspace_vectors_are_killed(m):
    for v in images(F5, m, nullspace_basis(F5, m)):
        assert not any(v)


@settings(max_examples=40)
@given(f5_matrix(rows=2, cols=3))
def test_image_preimage_galois(rows):
    u = Subspace.from_vectors(F5, 3, rows)
    a = tuple(tuple((i + 2 * j) % 5 for j in range(3)) for i in range(3))
    image = Subspace(F5, 3, images(F5, a, u.basis))
    assert all(map(image.preimage(a).contains, u.basis))


# -- differential checks of the kernels --------------------------------------

SCALARS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def q_matrix(draw, rows=None, cols=None):
    """A rows x cols product B C of inner size r, so singular ones are
    common."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    r = draw(st.integers(0, min(rows, cols)))
    b = [[draw(SCALARS) for _ in range(r)] for _ in range(rows)]
    c = [[draw(SCALARS) for _ in range(cols)] for _ in range(r)]
    return tuple(tuple(sum((b[i][t] * c[t][j] for t in range(r)),
                           Fraction(0)) for j in range(cols))
                 for i in range(rows))


def _sympy(rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def _from_sympy(vector):
    return tuple(Fraction(int(x.p), int(x.q)) for x in vector)


@settings(max_examples=60, deadline=None)
@given(q_matrix())
def test_rank_and_nullspace_agree_with_sympy_over_q(a):
    s = _sympy(a)
    assert rank(QQ, a) == s.rank()
    # the RREF is unique, and so is the basis read off its free columns
    assert nullspace_basis(QQ, a) == tuple(_from_sympy(v)
                                           for v in s.nullspace())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: q_matrix(n, n)))
def test_mat_inverse_agrees_with_sympy_over_q(a):
    s = _sympy(a)
    inv = mat_inverse(QQ, a)
    if s.det() == 0:
        assert inv is None
    else:
        assert tuple(_from_sympy(row) for row in s.inv().tolist()) == inv


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
       .flatmap(lambda d: st.tuples(q_matrix(d[0], d[1]),
                                    q_matrix(d[0], d[2]))))
def test_solve_matrix_exactly_when_consistent_over_q(ab):
    a, b = ab
    x = solve_matrix(QQ, a, b)
    consistent = _sympy(a).row_join(_sympy(b)).rank() == _sympy(a).rank()
    assert (x is not None) == consistent
    if x is not None:
        assert mat_mul(QQ, a, x) == b


ENTRY_SCALES = (st.integers(-3, 3).map(Fraction),
                st.integers(-10 ** 12, 10 ** 12).map(Fraction),
                st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))


@st.composite
def augmented(draw):
    """[a | b] or [a | I] as named-q's solves build them: a n x n product
    of inner size r (n up to 5), b n x l, with entries small, large or
    fractional, and some of a's rows and columns zeroed."""
    n = draw(st.integers(1, 5))
    scalar = draw(st.sampled_from(ENTRY_SCALES))

    def dense(rows, cols):
        return [[draw(scalar) for _ in range(cols)] for _ in range(rows)]

    r = draw(st.integers(0, n))
    b, c = dense(n, r), dense(r, n)
    a = [[sum((b[i][t] * c[t][j] for t in range(r)), Fraction(0))
          for j in range(n)] for i in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        a[i] = [Fraction(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in a:
            row[j] = Fraction(0)
    right = (identity(QQ, n) if draw(st.booleans())
             else dense(n, draw(st.integers(1, n))))
    return tuple(tuple(ra) + tuple(rb) for ra, rb in zip(a, right))


@settings(max_examples=150, deadline=None)
@given(augmented())
@example(q([[0, -3, 6, 1, 0], [0, 0, 0, 0, 0], [0, 2, -4, 0, 1]]))
@example(q([[-7, 0, 1], [0, 0, 0], [14, 0, -2]]))
@example(tuple(tuple(Fraction(v, 10 ** 9 + 7) for v in row)
               for row in ((-10 ** 12, 3, 0, 1, 0), (5, -10 ** 12, 0, 0, 1))))
def test_rref_over_q_agrees_with_sympy(rows):
    r, pivots = rref(QQ, rows)
    want, want_pivots = _sympy(rows).rref()
    assert pivots == want_pivots
    assert r == tuple(_from_sympy(want.row(i)) for i in range(want.rows))
    assert all(type(x) is Fraction and gcd(x.numerator, x.denominator) == 1
               and x.denominator > 0 for row in r for x in row)


def test_primality_is_exact_below_the_bound():
    sympy = pytest.importorskip("sympy")
    # Carmichael numbers, strong pseudoprimes to the first 4, 9 and 12
    # primes, primes around 2^64 and a product of two large primes
    hard = (561, 41041, 3215031751, 3825123056546413051,
            318665857834031151167461, 2 ** 64 - 59, 2 ** 64 + 13,
            (2 ** 31 - 1) * 4294967311)
    for n in itertools.chain(range(-2, 3000), hard):
        assert linalg._is_prime(n) == sympy.isprime(n), n
    with pytest.raises(BudgetError):
        linalg._is_prime(linalg._MR_EXACT)


FIELDS = [PrimeField(p) for p in (2, 3, 5)]


@st.composite
def fp_matrices(draw):
    """(field, a, b, c) with a m x n, b n x l and c m x l over GF(p)."""
    field = draw(st.sampled_from(FIELDS))
    m, n, l = (draw(st.integers(1, 4)) for _ in range(3))

    def matrix(rows, cols):
        return tuple(tuple(draw(st.integers(0, field.p - 1))
                           for _ in range(cols)) for _ in range(rows))
    return field, matrix(m, n), matrix(n, l), matrix(m, l)


def _reference_solve(p, a, b):
    """Column by column: a plain Gauss-Jordan on [a | b_j] for each column,
    every product and sum reduced mod p.  Free unknowns are zero."""
    ncols = len(a[0])
    cols = []
    for j in range(len(b[0])):
        m = [list(row) + [brow[j]] for row, brow in zip(a, b)]
        pivots, r = [], 0
        for c in range(ncols + 1):
            i = next((i for i in range(r, len(m)) if m[i][c] % p), None)
            if i is None:
                continue
            m[r], m[i] = m[i], m[r]
            inv = pow(m[r][c], p - 2, p)
            m[r] = [(inv * v) % p for v in m[r]]
            for i in range(len(m)):
                if i != r:
                    f = m[i][c]
                    m[i] = [(v - (f * w) % p) % p for v, w in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        if ncols in pivots:
            return None
        x = [0] * ncols
        for i, c in enumerate(pivots):
            x[c] = m[i][ncols]
        cols.append(x)
    return tuple(zip(*cols))


@settings(max_examples=100, deadline=None)
@given(fp_matrices())
def test_mat_mul_agrees_with_a_reduced_triple_loop(fabc):
    field, a, b, _ = fabc
    p = field.p
    want = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            s = 0
            for t in range(len(b)):
                s = (s + (a[i][t] * b[t][j]) % p) % p
            row.append(s)
        want.append(tuple(row))
    assert mat_mul(field, a, b) == tuple(want)


@st.composite
def q_mixed_matrix(draw, rows, cols):
    """A rows x cols matrix over Q of ints and Fractions.  A third of the
    draws have no zero entry, a third about half zeros and a third only
    zeros; some whole rows and columns are zero besides."""
    density = draw(st.sampled_from((0, 0.5, 1)))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    nonzero = st.one_of(st.integers(-9, 9),
                        st.fractions(-5, 5, max_denominator=7)).filter(bool)
    zero = st.sampled_from((0, Fraction(0)))

    def entry(i, j):
        if i in zero_rows or j in zero_cols or density == 1 or (
                density and draw(st.booleans())):
            return draw(zero)
        return draw(nonzero)

    return tuple(tuple(entry(i, j) for j in range(cols))
                 for i in range(rows))


@st.composite
def q_products(draw):
    r, m, c = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(q_mixed_matrix(r, m)), draw(q_mixed_matrix(m, c))


@settings(max_examples=200, deadline=None)
@given(q_products())
@example((((1, Fraction(1, 2)), (2, 0)), ((0, 3), (Fraction(-1, 3), 2))))
def test_q_mat_mul_agrees_with_a_fraction_triple_loop(ab):
    a, b = ab
    want = tuple(tuple(sum((Fraction(a[i][t]) * Fraction(b[t][j])
                            for t in range(len(b))), Fraction(0))
                       for j in range(len(b[0])))
                 for i in range(len(a)))
    got = mat_mul(QQ, a, b)
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)


@settings(max_examples=100, deadline=None)
@given(fp_matrices())
def test_solve_matrix_agrees_with_column_by_column_elimination(fabc):
    field, a, _, c = fabc
    x = solve_matrix(field, a, c)
    assert x == _reference_solve(field.p, a, c)
    if x is not None:
        assert mat_mul(field, a, x) == c


# -- pivot membership against the rank definition ----------------------------

@st.composite
def membership_case(draw):
    """(field, n, generators of U, generators of W, v) over GF(2), GF(3),
    GF(5) or Q.  U is zero, the whole space or spanned by drawn vectors;
    v and the generators of W are drawn vectors or combinations of U's
    generators."""
    field = draw(st.sampled_from((F2, PrimeField(3), F5, QQ)))
    n = draw(st.integers(1, 4))
    scalar = SCALARS if field == QQ else st.integers(0, field.p - 1)
    vector = st.tuples(*[scalar] * n)
    gens = draw(st.one_of(st.just(()), st.just(identity(field, n)),
                          st.lists(vector, max_size=n + 1).map(tuple)))

    def member():
        if not gens or draw(st.booleans()):
            return draw(vector)
        coeffs = draw(st.tuples(*[scalar] * len(gens)))
        return tuple(field.reduce(sum(map(operator.mul, coeffs, col)))
                     for col in zip(*gens))

    others = tuple(member() for _ in range(draw(st.integers(0, n))))
    return field, n, gens, others, member()


@settings(max_examples=300)
@given(membership_case())
@example((QQ, 2, (), identity(QQ, 2), (Fraction(1, 2), Fraction(0))))
@example((QQ, 3, identity(QQ, 3), (), (Fraction(-2, 3),) * 3))
def test_pivot_membership_matches_the_rank_definition(case):
    field, n, gens, others, v = case
    u, w = Subspace(field, n, gens), Subspace(field, n, others)
    assert u.contains(v) == (rank(field, u.basis + (v,)) == u.dim)
    assert all(map(u.contains, w.basis)) == (
        rank(field, u.basis + w.basis) == u.dim)
    assert all(map(w.contains, u.basis)) == (
        rank(field, w.basis + u.basis) == w.dim)


@pytest.mark.parametrize("field, n", [(F2, 3), (PrimeField(3), 2), (F5, 2)])
def test_pivot_membership_matches_the_rank_definition_exhaustively(field, n):
    vectors = list(itertools.product(range(field.p), repeat=n))
    for gens in itertools.combinations_with_replacement(vectors, 2):
        u = Subspace(field, n, gens)
        for v in vectors:
            assert u.contains(v) == (rank(field, u.basis + (v,)) == u.dim)
            w = Subspace(field, n, (v,))
            assert all(map(w.contains, u.basis)) == (
                rank(field, w.basis + u.basis) == w.dim)


# -- the subspace answers against their set definitions ----------------------

@st.composite
def subspace_case(draw):
    """(field, u, v, a) over GF(2), GF(3) or GF(5) with n <= 4: u and v
    spanned by drawn vectors, or zero, or the whole space, v sometimes a
    complement of u's own drawing; a an n x n matrix."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, field.p - 1)] * n)
    gens = st.one_of(st.just(()), st.just(identity(field, n)),
                     st.lists(vector, max_size=n + 1).map(tuple))
    u, v = Subspace(field, n, draw(gens)), Subspace(field, n, draw(gens))
    a = tuple(draw(vector) for _ in range(n))
    return field, u, v, a


@settings(max_examples=150, deadline=None)
@given(subspace_case())
def test_intersect_is_the_set_intersection(case):
    _, u, v, _ = case
    assert vectors(u.intersect(v)) == sorted(set(vectors(u))
                                             & set(vectors(v)))


@settings(max_examples=150, deadline=None)
@given(subspace_case())
def test_preimage_is_the_set_preimage(case):
    field, u, _, a = case
    assert vectors(u.preimage(a)) == [
        x for x in itertools.product(range(field.p), repeat=u.ambient)
        if u.contains(images(field, a, (x,))[0])]


@settings(max_examples=150, deadline=None)
@given(subspace_case())
def test_complement_is_the_greedy_direct_summand(case):
    field, u, _, _ = case
    n = u.ambient
    picked = ()
    for e in identity(field, n):
        if rank(field, u.basis + picked + (e,)) > u.dim + len(picked):
            picked += (e,)
    c = u.complement()
    assert c == Subspace(field, n, picked)
    assert c.dim + u.dim == n
    assert vectors(u.intersect(c)) == [(0,) * n]


@settings(max_examples=200, deadline=None)
@given(subspace_case())
def test_projection_matrix_exactly_on_direct_sums(case):
    field, u, v, _ = case
    n = u.ambient
    direct = u.dim + v.dim == n and rank(field, u.basis + v.basis) == n
    for left, right in ((u, v), (u, u.complement())):
        p = projection_matrix(left, right)
        assert (p is None) == (not direct and right is v)
        if p is not None:
            assert mat_mul(field, p, p) == p
            assert images(field, p, left.basis) == left.basis
            assert all(not any(w) for w in images(field, p, right.basis))


LATTICE_SIZES = {(2, 2): 5, (2, 3): 6, (2, 5): 8, (2, 7): 10, (3, 2): 16,
                 (3, 3): 28, (4, 2): 67}


@pytest.mark.parametrize("k, p", sorted(LATTICE_SIZES))
def test_ideal_lattice_lists_each_subspace_once_in_order(k, p):
    """Sums of Gaussian binomials: the subspaces of GF(p)^k."""
    field = PrimeField(p)
    reps = MatF(k, p).ideal_reps(RIGHT)
    assert len(reps) == len(set(reps)) == LATTICE_SIZES[(k, p)]
    for s in reps:
        assert rref(field, s.basis) == (s.basis, s.pivots)
    keys = [(s.dim, s.basis) for s in reps]
    assert keys == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(q_matrix(cols=n), q_matrix(cols=n))))
def test_intersect_and_projection_agree_with_sympy_over_q(uv):
    """The meet from the nullspace of [U^T | -V^T], and the projector as
    M diag(I, 0) M^-1 with M the two bases as columns."""
    sympy = pytest.importorskip("sympy")
    n = len(uv[0][0])
    u, v = (Subspace(QQ, n, gens) for gens in uv)
    ut, vt = _sympy(u.basis).T, _sympy(v.basis).T
    meet = ()
    if u.dim and v.dim:
        meet = tuple(_from_sympy(ut * z[:u.dim, :])
                     for z in ut.row_join(-vt).nullspace())
    assert u.intersect(v) == Subspace(QQ, n, meet)
    for w in (v, u.complement()):
        want = None
        if u.dim + w.dim == n:
            want = ((Fraction(0),) * n,) * n
        if want and u.dim:
            m = ut.row_join(_sympy(w.basis).T) if w.dim else ut
            d = sympy.diag(*([1] * u.dim + [0] * w.dim))
            want = (tuple(map(_from_sympy, (m * d * m.inv()).tolist()))
                    if m.det() else None)
        assert projection_matrix(u, w) == want
