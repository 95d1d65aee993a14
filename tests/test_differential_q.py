"""Moore-Penrose, core and dual core over Q against sympy's exact pinv."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringinv.geninv import core_inverse, dual_core_inverse, moore_penrose
from ringinv.rings import MatQ

sympy = pytest.importorskip("sympy")

SCALARS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def rational_matrices(draw):
    """A k x k product B C with B k x r and C r x k, so rank(a) <= r."""
    k = draw(st.sampled_from((3, 4)))
    r = draw(st.integers(0, k))
    b = [[draw(SCALARS) for _ in range(r)] for _ in range(k)]
    c = [[draw(SCALARS) for _ in range(k)] for _ in range(r)]
    return [[sum((b[i][t] * c[t][j] for t in range(r)), Fraction(0))
             for j in range(k)] for i in range(k)]


def _to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def _from_sympy(ring, m):
    return ring.parse([[str(m[i, j]) for j in range(m.cols)]
                       for i in range(m.rows)])


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
@example([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
@example([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
@example([[2, -2, 0], [0, 0, 0], [1, 0, 3]])
def test_mp_core_dual_core_match_sympy(rows):
    ring = MatQ(len(rows))
    a = ring.parse(rows)
    m = _to_sympy(rows)
    pinv = m.pinv()
    assert moore_penrose(a).value == _from_sympy(ring, pinv)
    core, dual = core_inverse(a), dual_core_inverse(a)
    if (m * m).rank() != m.rank():
        assert not core.exists and not dual.exists
        return
    sharp = m * (m ** 3).pinv() * m
    assert core.value == _from_sympy(ring, sharp * m * pinv)
    assert dual.value == _from_sympy(ring, pinv * m * sharp)
