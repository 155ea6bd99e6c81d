from fractions import Fraction

import pytest

from qwhit.ratmat import eye, mat, minv, mmul, mvec, rank, solve


def test_minv_inverts_and_rejects_singular():
    a = mat([[0, 2, 1], [1, 1, 0], [3, 0, Fraction(1, 2)]])
    assert mmul(a, minv(a)) == eye(3)
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        minv(mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))


def test_solve_consistent_inconsistent_and_free_columns():
    a = mat([[1, 1, 0], [0, 0, 1], [1, 1, 1]])
    x = solve(a, (Fraction(3), Fraction(2), Fraction(5)))
    assert mvec(a, x) == (3, 2, 5)
    assert x[1] == 0  # free column
    assert solve(a, (Fraction(3), Fraction(2), Fraction(6))) is None


@pytest.mark.parametrize("rows,expected", [
    ([[1, 2], [2, 4]], 1),
    ([[0, 0, 0], [0, 0, 0]], 0),
    ([[1, 0, 2, 1], [0, 1, 1, 1], [1, 1, 3, 2]], 2),
    ([[1, 0], [0, 1], [1, 1]], 2),
])
def test_rank(rows, expected):
    assert rank(mat(rows)) == expected
