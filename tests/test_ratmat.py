import random
from fractions import Fraction

import pytest

from qwhit.crosssec import coxeter_rep
from qwhit.ratmat import (charpoly, det, eye, from_rows, mat, minv, mmul, mvec,
                          rank, solve, sparse_mul, sparse_rows)


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


@pytest.mark.parametrize("n", range(2, 8))
def test_det_of_the_coxeter_representative_is_one(n):
    # its first column is zero above the last row: elimination must swap
    s = coxeter_rep(n)
    assert det(s) == 1
    assert mmul(s, minv(s)) == eye(n)


@pytest.mark.parametrize("rows,expected", [
    # odd permutations: one transposition, and a 4-cycle
    ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], -1),
    ([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], -1),
    # an even permutation: a 3-cycle
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1),
    # a zero (1,1) entry, with pivots that are not 1
    ([[0, 2, 1], [3, 1, 0], [1, 0, Fraction(1, 2)]], -4),
    ([[0, 2], [3, 5]], -6),
    # a swap that leaves a zero column behind
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
])
def test_det_with_row_swaps(rows, expected):
    assert det(mat(rows)) == expected


def _from_sympy(m):
    return mat([[Fraction(int(x.p), int(x.q)) for x in m.row(i)]
                for i in range(m.rows)])


def _random_sympy(sympy, rng, n, m):
    return sympy.Matrix(n, m, [sympy.Rational(rng.randint(-5, 5),
                                              rng.randint(1, 4))
                               for _ in range(n * m)])


@pytest.mark.parametrize("n", range(1, 9))
def test_dense_layer_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(100 + n)
    t = sympy.Symbol("t")
    full = _random_sympy(sympy, rng, n, n)
    # rank n - 1 (the zero matrix at n = 1): a product through n - 1 columns
    low = (_random_sympy(sympy, rng, n, n - 1)
           * _random_sympy(sympy, rng, n - 1, n))
    wide = _random_sympy(sympy, rng, n, n + 1)
    for s in (full, low):
        a = _from_sympy(s)
        assert det(a) == Fraction(str(s.det()))
        assert rank(a) == s.rank()
        assert charpoly(a) == [Fraction(str(c))
                               for c in reversed(s.charpoly(t).all_coeffs())]
        assert mmul(a, a) == _from_sympy(s * s)
        assert mmul(a, _from_sympy(wide)) == _from_sympy(s * wide)
        if s.det() == 0:
            with pytest.raises(ZeroDivisionError):
                minv(a)
        else:
            assert minv(a) == _from_sympy(s.inv())
    assert rank(_from_sympy(low)) == n - 1
    assert rank(_from_sympy(wide)) == wide.rank()



def _hessenberg_edge_cases(sympy, rng, n):
    """Inputs that take each branch of charpoly's Hessenberg reduction and
    recurrence."""
    def entry():
        return sympy.Rational(rng.randint(-5, 5), rng.randint(1, 4))

    def nonzero():
        return sympy.Rational(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))

    cases = {"zero": sympy.zeros(n, n)}
    if n > 1:
        # upper Hessenberg with one zero subdiagonal entry, which splits the
        # recurrence into two blocks and leaves the reduction no pivot
        split = sympy.Matrix(n, n, lambda i, j: entry() if j >= i else 0)
        for i in range(1, n):
            split[i, i - 1] = nonzero()
        k = rng.randint(1, n - 1)
        split[k, k - 1] = 0
        cases["split"] = split
    if n > 2:
        # dense, with a zero pivot at (1, 0) and a nonzero entry below it,
        # so the reduction must swap a row and column pair
        swap = _random_sympy(sympy, rng, n, n)
        swap[1, 0] = 0
        swap[n - 1, 0] = nonzero()
        cases["swap"] = swap
    # nilpotent: a strictly upper triangular matrix in a random basis
    basis = _random_sympy(sympy, rng, n, n)
    while basis.det() == 0:
        basis = _random_sympy(sympy, rng, n, n)
    upper = sympy.Matrix(n, n, lambda i, j: entry() if j > i else 0)
    cases["nilpotent"] = basis * upper * basis.inv()
    return cases


@pytest.mark.parametrize("n", range(1, 9))
def test_charpoly_matches_sympy_on_hessenberg_edge_cases(n):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(200 + n)
    t = sympy.Symbol("t")
    for name, s in _hessenberg_edge_cases(sympy, rng, n).items():
        expected = [Fraction(str(c))
                    for c in reversed(s.charpoly(t).all_coeffs())]
        if name in ("zero", "nilpotent"):
            assert expected == [0] * n + [1]
        assert charpoly(_from_sympy(s)) == expected, name


def test_sparse_rows_product_matches_the_dense_product():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        a, b = (mat([[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                      if rng.random() < 0.4 else 0 for _ in range(n)]
                     for _ in range(n)]) for _ in range(2))
        rows = sparse_rows(a)
        assert all(x for row in rows.values() for x in row.values())
        assert from_rows(rows, n) == a
        assert from_rows(sparse_mul(rows, sparse_rows(b)), n) == mmul(a, b)
    # an entry that cancels is dropped, and so is a row left empty
    a, b = mat([[1, 1], [0, 0]]), mat([[1, 0], [-1, 0]])
    assert sparse_mul(sparse_rows(a), sparse_rows(b)) == {}
