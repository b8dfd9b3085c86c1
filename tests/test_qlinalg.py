from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conepersist.qlinalg import (
    qidentity,
    qinverse,
    qmat,
    qmatmul,
    qmatvec,
    qnullspace,
    qrank,
    qrref,
    qsolve,
)


def test_frozen_inverse():
    # inverse computed by hand via the adjugate: det = 2
    m = qmat([[1, 1], [1, 3]])
    inv = qinverse(m)
    assert inv == qmat([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1, 2)]])
    assert qmatmul(inv, m) == qidentity(2)


def test_singular_has_no_inverse():
    assert qinverse(qmat([[1, 2], [2, 4]])) is None


def test_frozen_solve_and_rank():
    a = qmat([[2, 0], [0, 4]])
    assert qsolve(a, (1, 2)) == (Fraction(1, 2), Fraction(1, 2))
    assert qrank(qmat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])) == 2
    assert qsolve(qmat([[1, 1], [1, 1]]), (0, 1)) is None


_entries = st.integers(-4, 4).map(Fraction)


@st.composite
def _matrices(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    return qmat([[draw(_entries) for _ in range(m)] for _ in range(n)])


@given(_matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_annihilate(m):
    for v in qnullspace(m):
        assert all(x == 0 for x in qmatvec(m, v))
    red, pivots = qrref(m)
    assert len(pivots) + len(qnullspace(m)) == len(m[0])


@given(_matrices(max_n=3))
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank(m):
    red, pivots = qrref(m)
    red2, pivots2 = qrref(red)
    assert red2 == red and pivots2 == pivots
    assert qrank(m) == len(pivots)


@given(_matrices(max_n=3))
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(m):
    if len(m) != len(m[0]):
        return
    inv = qinverse(m)
    if inv is not None:
        assert qmatmul(inv, m) == qidentity(len(m))
        assert qmatmul(m, inv) == qidentity(len(m))
    else:
        assert qrank(m) < len(m)


def test_integer_rows_never_become_floats():
    # cone geometry passes primitive integer rows; dividing two ints would
    # give a float, so the results must hold only ints and Fractions
    m = [[2, 3, 1], [4, 1, 5]]
    square = [[2, 1], [1, 3]]
    red, pivots = qrref(m)
    x = qsolve(m, [1, 2])
    null = qnullspace(m)
    inv = qinverse(square)
    assert qrank(m) == len(pivots) == 2
    assert qmatvec(qmat(m), x) == (1, 2)
    assert all(qmatvec(qmat(m), v) == (0, 0) for v in null)
    assert qmatmul(qmat(square), inv) == qidentity(2)
    values = [v for row in red + null + inv for v in row] + list(x)
    assert values and all(type(v) in (int, Fraction) for v in values)
