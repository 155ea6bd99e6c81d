import math
import random
from fractions import Fraction

import pytest

from oracles import dense, dense_kron, mvec, sparse_rows
from qwhit import ratmat
from qwhit.crosssec import coxeter_rep
from qwhit.qarith import ONE, ZERO, LaurentScalar, qpow
from qwhit.ratmat import (Matrix, charpoly, det, eye, kron, madd, mat, minv,
                          mmul, msub, rank, solve, sparse_mul, sparse_scale,
                          zeros)


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
        got = sparse_mul(sparse_rows(a), sparse_rows(b))
        assert all(x for row in got.values() for x in row.values())
        assert mat(dense(got, n, F0)) == mmul(a, b)
    # an entry that cancels is dropped, and so is a row left empty
    a, b = mat([[1, 1], [0, 0]]), mat([[1, 0], [-1, 0]])
    assert sparse_mul(sparse_rows(a), sparse_rows(b)) == {}


# ---------------------------------------------------------------------------
# differential tests of the fraction-free rational paths against sympy

F0 = Fraction(0)


def _entries(st):
    """Rational entries: zeros, bare ints, small fractions and fractions
    with numerators and denominators up to 10^6."""
    return st.one_of(
        st.just(0), st.just(F0), st.integers(-9, 9),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
        st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                  st.integers(1, 10 ** 6)))


def _draw_matrix(data, st, n, m):
    """An n x m matrix of mixed entries: dense, or of rank below min(n, m)
    as a product through fewer columns, with some rows and columns zeroed."""
    entry = _entries(st)

    def block(rows, cols):
        return [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]

    low = data.draw(st.integers(0, min(n, m) - 1)) if data.draw(
        st.booleans()) else None
    if low is None:
        a = block(n, m)
    else:
        left, right = block(n, low), block(low, m)
        a = [[sum((Fraction(left[i][k]) * right[k][j] for k in range(low)),
                  F0) for j in range(m)] for i in range(n)]
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        a[i] = [0] * m
    for j in data.draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in a:
            row[j] = F0
    return mat(a)


def _to_sympy(sympy, a):
    return sympy.Matrix(len(a), len(a[0]),
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in a for x in row])


def _all_fractions(xs):
    return all(type(x) is Fraction for x in xs)


_SETTINGS = dict(deadline=None, database=None, derandomize=True)


def test_rational_product_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, **_SETTINGS)
    @hypothesis.given(st.data())
    def check(data):
        n, k, m = (data.draw(st.integers(1, 6)) for _ in range(3))
        a, b = _draw_matrix(data, st, n, k), _draw_matrix(data, st, k, m)
        got = mmul(a, b)
        assert got == _from_sympy(_to_sympy(sympy, a) * _to_sympy(sympy, b))
        assert all(_all_fractions(row) for row in got)

    check()


def test_elimination_matches_sympy():
    # rank and solve on square, tall and wide (augmented) systems; det and
    # minv on the square ones, singular and rank-deficient ones included
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, **_SETTINGS)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 6))
        m = n if data.draw(st.booleans()) else data.draw(st.integers(1, 7))
        a = _draw_matrix(data, st, n, m)
        b = tuple(data.draw(_entries(st)) for _ in range(n))
        s = _to_sympy(sympy, a)
        assert rank(a) == s.rank()
        reduced, pivots = s.row_join(_to_sympy(sympy, (b,)).T).rref()
        x = solve(a, b)
        if m in pivots:
            assert x is None
        else:
            want = [F0] * m
            for i, col in enumerate(pivots):
                want[col] = Fraction(int(reduced[i, m].p), int(reduced[i, m].q))
            assert x == tuple(want) and _all_fractions(x)
        if n != m:
            return
        d = det(a)
        assert d == Fraction(int(s.det().p), int(s.det().q))
        assert type(d) is Fraction
        if d == 0:
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                minv(a)
        else:
            inv = minv(a)
            assert inv == _from_sympy(s.inv())
            assert all(_all_fractions(row) for row in inv)

    check()


@pytest.mark.parametrize("n", range(1, 9))
def test_chained_operations_match_sympy(n):
    # each result is fed to the next operation as it stands, so the
    # canonical form must hold across calls and not only for one product
    sympy = pytest.importorskip("sympy")
    rng = random.Random(300 + n)
    t = sympy.Symbol("t")
    sa, sb, sc = (_random_sympy(sympy, rng, n, n) for _ in range(3))
    a, b, c = map(_from_sympy, (sa, sb, sc))
    ab, sab = mmul(a, b), sa * sb
    assert mmul(ab, c) == mmul(a, mmul(b, c)) == _from_sympy(sab * sc)
    assert madd(ab, mmul(b, a)) == _from_sympy(sab + sb * sa)
    assert msub(ab, mmul(b, a)) == _from_sympy(sab - sb * sa)
    assert msub(ab, ab) == zeros(n)
    assert sab.det() == 0 or mmul(ab, minv(ab)) == eye(n)
    assert charpoly(ab) == [Fraction(str(k))
                            for k in reversed(sab.charpoly(t).all_coeffs())]
    assert det(ab) == Fraction(str(sab.det())) == det(a) * det(b)
    assert rank(ab) == sab.rank()
    if sa.det() != 0:
        assert mmul(minv(a), b) == _from_sympy(sa.inv() * sb)
        assert sb.det() == 0 or mmul(ab, minv(b)) == a
    # a product through n - 1 columns is singular; its rank and a solve
    low = (_random_sympy(sympy, rng, n, n - 1)
           * _random_sympy(sympy, rng, n - 1, n))
    slow = low * sc
    prod = mmul(_from_sympy(low), c)
    assert rank(prod) == slow.rank() and det(prod) == 0
    x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    rhs = mvec(prod, x)
    got = solve(prod, rhs)
    assert got is not None and mvec(prod, got) == rhs
    if sab.det() != 0:
        assert solve(ab, mvec(ab, x)) == tuple(x)


def test_the_value_is_canonical_and_compares_by_its_entries():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, **_SETTINGS)
    @hypothesis.given(st.data())
    def check(data):
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        a, b = _draw_matrix(data, st, n, m), _draw_matrix(data, st, n, m)
        for v in (a, b):
            assert v.den > 0 and math.gcd(v.den, *sum(v.rows, ())) == 1
            assert all(type(x) is int for row in v.rows for x in row)
            # a round trip through Fractions gives the value back
            assert mat(list(v)) == v and len(v) == n
        same = [list(row) for row in a] == [list(row) for row in b]
        assert (a == b) == same and (a != b) == (not same)
        if same:
            assert hash(a) == hash(b)
        k = data.draw(st.integers(-30, 30).filter(bool))
        assert Matrix([[k * x for x in row] for row in a.rows], k * a.den) == a

    check()


@pytest.mark.parametrize("rows,den,canon,canon_den", [
    # entries and den sharing a factor, with and without a sign
    ([[2, 4], [6, 0]], 2, [[1, 2], [3, 0]], 1),
    ([[3, 6]], -9, [[-1, -2]], 3),
    ([[0, 0], [0, 0]], 5, [[0, 0], [0, 0]], 1),
    ([[10, 15], [25, 35]], 20, [[2, 3], [5, 7]], 4),
])
def test_a_value_with_a_shared_factor_equals_its_canonical_twin(
        rows, den, canon, canon_den):
    value, twin = Matrix(rows, den), Matrix(canon, canon_den)
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert (value.rows, value.den) == (twin.rows, twin.den)
    assert value == mat([[Fraction(x, den) for x in row] for row in rows])
    with pytest.raises(ZeroDivisionError):
        Matrix(rows, 0)


def test_the_kernels_build_no_fraction(monkeypatch):
    rng = random.Random(5)
    a, b = (mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(4)] for _ in range(4)]) for _ in range(2))
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(ratmat, "Fraction", Counted)
    out = [mmul(a, b), madd(a, b), msub(a, b), minv(a), mmul(minv(b), a)]
    monkeypatch.undo()
    assert built == []
    assert mmul(out[3], a) == eye(4)


def _q_scalars(st):
    """Nonzero q-scalars: monomials with rational coefficients and
    binomials."""
    return st.one_of(
        st.builds(lambda e, c: qpow(e) * LaurentScalar.from_rational(c),
                  st.integers(-3, 3),
                  st.builds(Fraction, st.integers(-5, 5).filter(bool),
                            st.integers(1, 4))),
        st.builds(lambda e: qpow(e) + ONE, st.integers(-2, 2)))


def _draw_rows(data, st, n):
    """Sparse rows of an n x n q-scalar matrix, about half its entries
    nonzero."""
    rows = {}
    for r in range(n):
        for c in range(n):
            if data.draw(st.booleans()):
                rows.setdefault(r, {})[c] = data.draw(_q_scalars(st))
    return rows


def test_sparse_kron_matches_the_dense_kronecker_product():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, **_SETTINGS)
    @hypothesis.given(st.data())
    def check(data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        a, b = _draw_rows(data, st, n), _draw_rows(data, st, m)
        got = kron(a, b, m)
        assert all(x for row in got.values() for x in row.values())
        assert dense(got, n * m, ZERO) == dense_kron(
            dense(a, n, ZERO), dense(b, m, ZERO), ZERO)

    check()


def test_sparse_scale_matches_the_dense_scaling():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, **_SETTINGS)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        a, s = _draw_rows(data, st, n), data.draw(_q_scalars(st))
        got = sparse_scale(a, s)
        assert all(x for row in got.values() for x in row.values())
        assert dense(got, n, ZERO) == tuple(
            tuple(x * s for x in row) for row in dense(a, n, ZERO))

    check()
