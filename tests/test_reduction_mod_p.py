"""Reduction mod p as a second, independent answer for the Q path.

Reduction Z_(p) -> F_p is a ring homomorphism that commutes with the
transpose.  So when the Q answer for an integer matrix a exists and its
denominators are prime to p, its reduction satisfies the same defining
equations over GF(p).  Drazin, group, Moore-Penrose, core and dual core
inverses are unique when they exist, so the GF(p) answer for the reduced
a must exist and equal the reduction.  The GF(p) answer is computed by
the field loop of the elimination, the Q answer by the integer-row one.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringinv.geninv import (core_inverse, drazin_inverse, dual_core_inverse,
                            group_inverse, moore_penrose)
from ringinv.rings import MatF, MatQ

INVERSES = (drazin_inverse, group_inverse, moore_penrose, core_inverse,
            dual_core_inverse)
PRIMES = (2, 3, 5, 7)
ENTRIES = st.integers(-3, 3)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def integer_matrices(draw):
    """A k x k integer matrix, k in 2..4: dense, a product B C of inner
    size r < k (rank-deficient), or S N S^-1 with N strictly upper
    triangular (nilpotent) and S unit lower times unit upper triangular,
    so S^-1 is integral too."""
    k = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(("dense", "low-rank", "nilpotent")))

    def dense(rows, cols):
        return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]

    if shape == "dense":
        return dense(k, k)
    if shape == "low-rank":
        r = draw(st.integers(0, k - 1))
        return _mul(dense(k, r), dense(r, k)) if r else [[0] * k] * k
    lower = [[int(i == j) if i <= j else draw(ENTRIES) for j in range(k)]
             for i in range(k)]
    upper = [[int(i == j) if i >= j else draw(ENTRIES) for j in range(k)]
             for i in range(k)]
    n = [[draw(ENTRIES) if j > i else 0 for j in range(k)] for i in range(k)]
    return _mul(_mul(_mul(lower, upper), n), _unit_triangular_inverse(upper,
                                                                      lower))


def _unit_triangular_inverse(upper, lower):
    """(L U)^-1 = U^-1 L^-1, each factor inverted by substitution."""
    return _mul(_invert_unit_upper(upper),
                _transpose(_invert_unit_upper(_transpose(lower))))


def _invert_unit_upper(u):
    k = len(u)
    inv = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in reversed(range(k)):
        for j in range(i + 1, k):
            inv[i] = [x - u[i][j] * y for x, y in zip(inv[i], inv[j])]
    return inv


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _reduced(rows, p):
    """The entries of a Q matrix mod p, or None if p divides a
    denominator."""
    if any(x.denominator % p == 0 for row in rows for x in row):
        return None
    return tuple(tuple(x.numerator * pow(x.denominator, -1, p) % p
                       for x in row) for row in rows)


@settings(max_examples=100, deadline=None)
@given(integer_matrices())
@example([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
@example([[2, 0], [0, 0]])
@example([[1, 2], [2, 4]])
@example([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
def test_q_answers_reduce_to_the_gf_p_answers(rows):
    k = len(rows)
    a = MatQ(k).element(rows)
    for inverse in INVERSES:
        over_q = inverse(a)
        if not over_q.exists:
            continue
        for p in PRIMES:
            want = _reduced(over_q.value.payload, p)
            if want is None:
                continue
            over_p = inverse(MatF(k, p).element(rows))
            assert over_p.exists, (inverse.__name__, p)
            assert over_p.value.payload == want, (inverse.__name__, p)
