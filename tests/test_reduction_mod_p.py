"""Reduction mod p as a second, independent answer for the Q path.

Reduction Z_(p) -> F_p is a ring homomorphism that commutes with the
transpose.  So when the Q answer for an integer matrix a exists and its
denominators are prime to p, its reduction satisfies the same defining
equations over GF(p).  Drazin, group, Moore-Penrose, core and dual core
inverses are unique when they exist, so the GF(p) answer for the reduced
a must exist and equal the reduction.  The GF(p) answer is computed by
the field loop of the elimination, the Q answer by the integer-row one.

The (b,c) inverse (full flavor), the image-kernel (p,q) inverse and the
Bott-Duffin inverses are outer inverses x with prescribed ideals, fixed
by integer matrices: xR = bR and Rx = Rc; xR = pR and rann(x) = qR;
xR = pR and rann(x) = (1 - q)R, with q = p for the Bott-Duffin p
inverse.  Reduction keeps the equations that hold over Q (xax = x,
xab = b, cax = c; px = x, xap = p, xq = 0), so the reduced column and
row spaces of b, c and p lie in those of the reduced x, and the reduced
q in its kernel.  The hypothesis is that every matrix that fixes a
prescribed ideal (b, c, p, q, and the Q answer x) keeps its rank mod p.
Under it, equal ranks make the reduced spaces equal, so the reduced x
is the GF(p) outer inverse with the reduced ideals, which is unique: the
GF(p) answer must exist and equal the reduction.  A case outside the
hypothesis is skipped.

Over Q, an ordered field, x^T x = 0 only for x = 0, so every a has a
Moore-Penrose inverse, and a has a core and a dual core inverse exactly
when it has a group inverse (index at most 1).  The first test checks
both claims on each sampled a.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringinv.geninv import (core_inverse, drazin_inverse, dual_core_inverse,
                            group_inverse, moore_penrose)
from ringinv.rings import MatF, MatQ
from ringinv.special import (bc_inverse, bott_duffin_inverse,
                             image_kernel_inverse)

INVERSES = (drazin_inverse, group_inverse, moore_penrose, core_inverse,
            dual_core_inverse)
PRIMES = (2, 3, 5, 7)
ENTRIES = st.integers(-3, 3)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def integer_matrices(draw):
    """A k x k integer matrix, k in 2..5: dense, a product B C of inner
    size r < k (rank-deficient), or S N S^-1 with N strictly upper
    triangular (nilpotent) and S unit lower times unit upper triangular,
    so S^-1 is integral too."""
    k = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(("dense", "low-rank", "nilpotent")))
    if shape == "dense":
        return [[draw(ENTRIES) for _ in range(k)] for _ in range(k)]
    if shape == "low-rank":
        return draw(of_rank(k, draw(st.integers(0, k - 1))))
    n = [[draw(ENTRIES) if j > i else 0 for j in range(k)] for i in range(k)]
    return draw(conjugates(n))


@st.composite
def of_rank(draw, k, r):
    """A k x r times an r x k integer matrix, of rank at most r."""
    def dense(rows, cols):
        return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]

    return _mul(dense(k, r), dense(r, k)) if r else [[0] * k] * k


@st.composite
def conjugates(draw, block):
    """S block S^-1, S unit lower times unit upper triangular."""
    k = len(block)
    lower = [[int(i == j) if i <= j else draw(ENTRIES) for j in range(k)]
             for i in range(k)]
    upper = [[int(i == j) if i >= j else draw(ENTRIES) for j in range(k)]
             for i in range(k)]
    return _mul(_mul(_mul(lower, upper), block),
                _unit_triangular_inverse(upper, lower))


def idempotents(k, r):
    """An integer idempotent of rank r: S diag(I_r, 0) S^-1."""
    return conjugates([[int(i == j < r) for j in range(k)]
                       for i in range(k)])


@st.composite
def prescriptions(draw):
    """(a, b, c, p, q): a from integer_matrices; b of rank at most r and
    c of rank at most r three times in four; integer idempotents p of rank r and q of
    rank k - r, so that the inverses often exist."""
    a = draw(integer_matrices())
    k = len(a)
    r = draw(st.integers(1, k))
    rc = r if draw(st.integers(0, 3)) else draw(st.integers(0, k))
    return (a, draw(of_rank(k, r)), draw(of_rank(k, rc)),
            draw(idempotents(k, r)), draw(idempotents(k, k - r)))


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


def _rank(rows, p=None):
    """The rank over Q, or over GF(p) of rows whose denominators are
    prime to p."""
    rows = [list(row) for row in (rows if p is None else _reduced(rows, p))]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = (Fraction(rows[i][col], lead) if p is None
                     else rows[i][col] * pow(lead, -1, p))
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
                if p is not None:
                    rows[i] = [x % p for x in rows[i]]
        rank += 1
    return rank


def _reduced(rows, p):
    """The entries of a Q matrix mod p, or None if p divides a
    denominator."""
    rows = [[Fraction(x) for x in row] for row in rows]
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
@example([[int(j == i + 1) for j in range(5)] for i in range(5)])
@example([[1, 2, 0, 0, 0], [2, 4, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1],
          [0, 0, 0, 0, 0]])
def test_q_answers_reduce_to_the_gf_p_answers(rows):
    k = len(rows)
    a = MatQ(k).element(rows)
    found = {inverse: inverse(a) for inverse in INVERSES}
    assert found[moore_penrose].exists
    assert (found[core_inverse].exists == found[group_inverse].exists
            == found[dual_core_inverse].exists)
    for inverse, over_q in found.items():
        if not over_q.exists:
            continue
        for p in PRIMES:
            want = _reduced(over_q.value.payload, p)
            if want is None:
                continue
            over_p = inverse(MatF(k, p).element(rows))
            assert over_p.exists, (inverse.__name__, p)
            assert over_p.value.payload == want, (inverse.__name__, p)


# each prescribed inverse of (a, b, c, p, q), with the positions of the
# matrices that fix its ideals
PRESCRIBED = {
    "bc-full": (lambda a, b, c, p, q: bc_inverse(a, b, c, "full"), (1, 2)),
    "pq-image-kernel": (lambda a, b, c, p, q: image_kernel_inverse(a, p, q),
                        (3, 4)),
    "bott-duffin": (lambda a, b, c, p, q: bott_duffin_inverse(a, p), (3,)),
    "bott-duffin-pq": (lambda a, b, c, p, q: bott_duffin_inverse(a, p, q),
                       (3, 4)),
}


@settings(max_examples=60, deadline=None)
@given(prescriptions())
@example(([[1, 2], [3, 4]], [[1, 0], [0, 0]], [[1, 1], [0, 0]],
          [[1, 0], [0, 0]], [[0, 0], [0, 1]]))
def test_prescribed_q_answers_reduce_to_the_gf_p_answers(mats):
    k = len(mats[0])
    over_q = [MatQ(k).element(m) for m in mats]
    for name, (inverse, fixing) in PRESCRIBED.items():
        rep = inverse(*over_q)
        if not rep.exists:
            continue
        x = rep.value.payload
        fixed = [mats[i] for i in fixing] + [x]
        for p in PRIMES:
            want = _reduced(x, p)
            if want is None or any(_rank(m, p) != _rank(m) for m in fixed):
                continue
            over_p = inverse(*[MatF(k, p).element(m) for m in mats])
            assert over_p.exists, (name, p)
            assert over_p.value.payload == want, (name, p)
