"""Closed-form sizes of inverse sets, as a second answer for the coset code.

On M_k(F_q) with the transpose, for a of rank r (Ben-Israel and
Greville, Generalized Inverses, 2nd ed., ch. 1-2):
  |a{1}| = q^(k^2 - r^2)            |a{1,2}| = q^(2r(k - r))
  |a{1,3}| = q^(k(k - r)) when rank(a* a) = r, else 0
  |a{1,4}| = q^(k(k - r)) when rank(a a*) = r, else 0
  |a{1,3,4}| = q^((k - r)^2) when both hold, else 0.
a{1,3} is nonempty iff col(a) meets null(a*) only in 0, and then ax is
the one symmetric idempotent onto col(a) and x ranges over a coset of
rann(a); a{1,3,4} is then a coset of rann(a) meet lann(a).
On Z_n, a^2 x = a (mod n) has gcd(a^2, n) solutions when gcd(a^2, n)
divides a, and none otherwise.

count_inverse_set reads a set whose tokens are all linear from the size
of its solution Coset, without listing it, so these counts reach sizes
no scan does; {1,2} lists the coset of a{1} and filters it through the
equation test.  The ranks here come from an elimination written in this
file.
"""

import random
from itertools import product
from math import gcd

import pytest

from ringinv.geninv import count_inverse_set
from ringinv.rings import MatF, Zn


def _rank_mod(rows, q):
    """The rank of an integer matrix over GF(q), q prime."""
    rows = [[v % q for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(x - f * y) % q
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _gram(a, b):
    """a^T b for integer matrices given by rows."""
    return [[sum(x * y for x, y in zip(ca, cb)) for cb in zip(*b)]
            for ca in zip(*a)]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def expected_counts(rows, q, linear_only=False):
    """{system: |a{system}|} from the closed forms, for the integer
    matrix rows read over GF(q)."""
    k, r = len(rows), _rank_mod(rows, q)
    has13 = _rank_mod(_gram(rows, rows), q) == r
    has14 = _rank_mod(_gram(_transpose(rows), _transpose(rows)), q) == r
    out = {("1",): q ** (k * k - r * r),
           ("1", "3"): q ** (k * (k - r)) if has13 else 0,
           ("1", "4"): q ** (k * (k - r)) if has14 else 0,
           ("1", "3", "4"): q ** ((k - r) ** 2) if has13 and has14 else 0}
    if not linear_only:
        out["1", "2"] = q ** (2 * r * (k - r))
    return out


def _isotropic(k, q):
    """Some nonzero v in GF(q)^k with v . v = 0, or None."""
    return next((v for v in product(range(q), repeat=k)
                 if any(v) and sum(x * x for x in v) % q == 0), None)


def _sample(k, q, per_rank, seed):
    """per_rank random integer matrices of each rank 1..k over GF(q), as
    products of a k x r and an r x k matrix, with zero, the identity
    and, where GF(q)^k has an isotropic v, the matrix with first column
    v and its transpose, whose a{1,3} or a{1,4} is empty."""
    rng = random.Random(seed)
    out = [[[0] * k for _ in range(k)],
           [[int(i == j) for j in range(k)] for i in range(k)]]
    v = _isotropic(k, q)
    if v is not None:
        column = [[x] + [0] * (k - 1) for x in v]
        out += [column, _transpose(column)]
    for r in range(1, k + 1):
        for _ in range(per_rank):
            left = [[rng.randrange(q) for _ in range(r)] for _ in range(k)]
            right = [[rng.randrange(q) for _ in range(k)] for _ in range(r)]
            out.append([[sum(x * y for x, y in zip(row, col)) % q
                         for col in zip(*right)] for row in left])
    return out


def _check_matrix_counts(k, q, samples, linear_only=False):
    ring = MatF(k, q)
    for rows in samples:
        a = ring.element(rows)
        for eqs, want in expected_counts(rows, q, linear_only).items():
            assert count_inverse_set(a, eqs) == want, (rows, eqs)


@pytest.mark.parametrize("k, q, per_rank", [
    (2, 3, 4), (2, 5, 3), (3, 2, 3), (3, 3, 2)])
def test_matrix_counts_match_the_closed_forms(k, q, per_rank):
    samples = _sample(k, q, per_rank, seed=k * 100 + q)
    assert {_rank_mod(rows, q) for rows in samples} == set(range(k + 1))
    # a{1,3} is empty for some sample exactly when GF(q)^k has an
    # isotropic vector (every ring here but m2f3)
    empty13 = [expected_counts(rows, q)["1", "3"] == 0 for rows in samples]
    assert any(empty13) == (_isotropic(k, q) is not None)
    _check_matrix_counts(k, q, samples)


def _zn_count(n, a):
    g = gcd(a * a, n)
    return g if a % g == 0 else 0


def test_zn_inner_counts_match_the_closed_form():
    for n in range(2, 201):
        ring = Zn(n)
        for a in range(n):
            assert count_inverse_set(ring.element(a), ("1",)) == \
                _zn_count(n, a), (n, a)


@pytest.mark.slow
def test_linear_counts_at_sizes_no_scan_reaches():
    # m6f3 has 3^36 elements; the linear sets are read from their cosets
    for k, q, per_rank in ((6, 3, 4), (5, 5, 2), (4, 7, 2)):
        _check_matrix_counts(k, q, _sample(k, q, per_rank, seed=k * 100 + q),
                             linear_only=True)
    # 18-digit moduli, with units, zero divisors and square factors
    rng = random.Random(18)
    for n in (2 ** 3 * 3 ** 2 * 5 * 1000000007 * 1000003,
              999999999999999989, 10 ** 17 * 7):
        assert len(str(n)) == 18
        ring = Zn(n)
        for a in [0, 1, 2, 6, 12, 1000000007, n // 2, n - 1] + [
                rng.randrange(n) for _ in range(20)]:
            assert count_inverse_set(ring.element(a), ("1",)) == \
                _zn_count(n, a), (n, a)
