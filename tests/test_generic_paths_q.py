"""The Drazin index, the prescribed outer inverse and the Mitsch order are
written in ring and ideal operations.  No exhaustive oracle reaches Q, so
over Q each is checked here against the per-backend linear algebra it
replaced, kept in this file as the reference."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringinv.geninv import any_inner, drazin_index
from ringinv.ideals import (LEFT, RIGHT, SidedIdeal, annihilator, direct_sum,
                            multiply_ideal)
from ringinv.linalg import Subspace, mat_mul, rank, solve_matrix, transpose
from ringinv.prescribed import IdealConstraints, mitsch_leq, outer_with
from ringinv.rings import MatQ, RingElement

SCALARS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _product(b, c):
    return [[sum((b[i][t] * c[t][j] for t in range(len(c))), Fraction(0))
             for j in range(len(c[0]))] for i in range(len(b))]


@st.composite
def low_rank(draw, k):
    """A k x k product B C with B k x r and C r x k, so rank <= r."""
    r = draw(st.integers(0, k))
    if r == 0:
        return [[Fraction(0)] * k for _ in range(k)]
    b = [[draw(SCALARS) for _ in range(r)] for _ in range(k)]
    c = [[draw(SCALARS) for _ in range(k)] for _ in range(r)]
    return _product(b, c)


# -- the Mitsch order: two linear systems ------------------------------------

def reference_mitsch_leq(y, z):
    """v (z|y) = (y|y) and (z over y) w = (y over y), solved exactly."""
    ring = y.ring
    if y == z or y == ring.zero:
        return True
    field = ring.field
    zy = tuple(rz + ry for rz, ry in zip(z.payload, y.payload))
    yy = tuple(ry + ry for ry in y.payload)
    if solve_matrix(field, transpose(zy), transpose(yy)) is None:
        return False
    return solve_matrix(field, z.payload + y.payload,
                        y.payload + y.payload) is not None


@st.composite
def mitsch_pairs(draw):
    """(y, z): z random, or y + (1 - yg) r (1 - gy) with g an inner
    inverse of y, which is above y with v = yg and w = gy."""
    k = draw(st.sampled_from((2, 3)))
    ring = MatQ(k)
    y = ring.parse(draw(low_rank(k)))
    r = ring.parse(draw(low_rank(k)))
    if draw(st.booleans()):
        return y, r, False
    g = any_inner(y)
    one = ring.one
    return y, y + (one - y * g) * r * (one - g * y), True


@settings(max_examples=150, deadline=None)
@given(mitsch_pairs())
@example(([[1, 0], [0, 0]], [[1, 0], [0, 1]], True))
@example(([[1, 0], [0, 0]], [[1, 1], [0, 1]], False))
@example(([[0, 1, 0], [0, 0, 0], [0, 0, 0]],
          [[0, 1, 0], [0, 0, 1], [0, 0, 0]], False))
def test_mitsch_leq_matches_the_linear_systems(case):
    y, z, comparable = case
    if isinstance(y, list):
        ring = MatQ(len(y))
        y, z = ring.parse(y), ring.parse(z)
    got = mitsch_leq(y, z)
    assert got == reference_mitsch_leq(y, z)
    if comparable:
        assert got


# -- the Drazin index: a rank loop -------------------------------------------

def reference_drazin_index(a):
    """The least k with rank(a^k) = rank(a^(k+1))."""
    ring = a.ring
    prev = rank(ring.field, ring.one.payload)
    power = ring.one
    for k in range(ring.k + 1):
        nxt = rank(ring.field, (power * a).payload)
        if nxt == prev:
            return k
        prev = nxt
        power = power * a
    return ring.k


def _fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_low_rank(rng, k):
    """(rows, r): a k x k product B C with B k x r and C r x k."""
    r = rng.randint(0, k)
    if r == 0:
        return [[Fraction(0)] * k for _ in range(k)], r
    b = [[_fraction(rng) for _ in range(r)] for _ in range(k)]
    c = [[_fraction(rng) for _ in range(k)] for _ in range(r)]
    return _product(b, c), r


def _nilpotent_block(rng, k):
    """P diag(B, N) P^-1: B random of size k - m, N a strictly upper
    triangular m x m block with a full superdiagonal (index m), and P a
    product of unit lower and unit upper triangular matrices."""
    m = rng.randint(1, k)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k - m):
        for j in range(k - m):
            rows[i][j] = _fraction(rng)
    for i in range(k - m, k):
        for j in range(i + 1, k):
            rows[i][j] = Fraction(1) if j == i + 1 else _fraction(rng)
    lower = [[Fraction(i == j) if i <= j else _fraction(rng)
              for j in range(k)] for i in range(k)]
    upper = [[Fraction(i == j) if i >= j else _fraction(rng)
              for j in range(k)] for i in range(k)]
    ring = MatQ(k)
    p = ring.parse(_product(lower, upper))
    pinv = any_inner(p)  # the inverse, as p is invertible
    return p * ring.parse(rows) * pinv


def test_drazin_index_matches_the_rank_loop():
    rng = random.Random(15)
    indices = set()
    for k in (3, 4):
        ring = MatQ(k)
        for _ in range(60):
            random_rows, _ = _random_low_rank(rng, k)
            for a in (ring.parse(random_rows), _nilpotent_block(rng, k)):
                index = drazin_index(a)
                assert index == reference_drazin_index(a)
                indices.add(index)
    assert indices == {0, 1, 2, 3, 4}


# -- the prescribed outer inverse: a linear system in the ideal ---------------

def reference_solve_in_ideal(a, s, u):
    """x = B^T c with (a B^T) c = u for the basis B of s; a left ideal
    solves the transpose x^T a^T = u^T the same way."""
    ring, field = a.ring, a.ring.field
    basis = s.rep.basis
    if not basis:
        return ring.zero if u == ring.zero else None
    m, target = a.payload, u.payload
    if s.side == LEFT:
        m, target = transpose(m), transpose(target)
    bt = transpose(basis)
    c = solve_matrix(field, mat_mul(field, m, bt), target)
    if c is None:
        return None
    x = mat_mul(field, bt, c)
    return RingElement(ring, x if s.side == RIGHT else transpose(x))


def reference_outer(a, s, t):
    u = direct_sum(multiply_ideal(a, s), t)
    if u is None or not annihilator(a, s.side).intersect(s).is_zero():
        return None
    return reference_solve_in_ideal(a, s, u)


def _span_ideal(rng, ring, side, dim):
    k = ring.k
    vectors = [tuple(_fraction(rng) for _ in range(k)) for _ in range(dim)]
    return SidedIdeal(ring, side,
                      Subspace.from_vectors(ring.field, k, vectors))


def test_outer_with_matches_the_linear_system():
    rng = random.Random(16)
    found = {RIGHT: 0, LEFT: 0}
    for k in (2, 3):
        ring = MatQ(k)
        for _ in range(60):
            rows, r = _random_low_rank(rng, k)
            a = ring.parse(rows)
            for side in (RIGHT, LEFT):
                dim = rng.randint(0, r)
                s = _span_ideal(rng, ring, side, dim)
                t = _span_ideal(rng, ring, side, k - dim)
                if side == RIGHT:
                    cons = IdealConstraints(right_principal=s,
                                            right_annihilator=t)
                else:
                    cons = IdealConstraints(left_principal=s,
                                            left_annihilator=t)
                rep = outer_with(a, cons)
                want = reference_outer(a, s, t)
                assert (rep.value if rep.exists else None) == want
                found[side] += want is not None
    assert min(found.values()) >= 60
