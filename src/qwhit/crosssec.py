"""Group and Lie-algebra cross-sections for SL(n), exact over the rationals.

Fixed conventions for the whole module:

* ``s`` is the representative of the standard Coxeter element s_1...s_{n-1}
  built as the product of the embedded 2x2 blocks [[0,-1],[1,0]].  It sends
  e_j to e_{j+1} and e_n to (-1)^(n-1) e_1, so det s = 1 and s^n = +-1.
* N_+ / N_- are upper / lower unitriangular matrices, B_+ / B_- the
  corresponding triangular subgroups, H the diagonal torus.
* The double coset N_+ s N_+ relative to this representative consists of
  exactly the determinant-one upper Hessenberg matrices with unit
  subdiagonal; ``bruhat_cell_test`` decides membership by that shape and
  the determinant, and ``cross_section`` conjugates a cell element onto the
  companion-like slice N_+' s by a height-ordered elimination sweep.
* On the Lie algebra side ``f`` is the sum of the simple negative root
  vectors (the unit subdiagonal) and the section space is the span of the
  first-row units E_{1,k}, so f + section is the companion family.

Changing the representative rescales the cell conditions; ``cell_witness``
decides the cell of an explicit representative by a linear solve, and
everything else, the cell test included, is pinned to the standard choice.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .ratmat import (
    Mat,
    charpoly,
    det,
    diag,
    eye,
    madd,
    mat,
    minv,
    mmul,
    mscale,
    msub,
    mvec,
    solve,
    sparse,
    transpose,
    unit,
)

F0 = Fraction(0)
F1 = Fraction(1)


def _dim(m: Mat) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def is_upper_triangular(m: Mat) -> bool:
    n = _dim(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i))


def is_lower_triangular(m: Mat) -> bool:
    n = _dim(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i + 1, n))


def is_unitriangular(m: Mat) -> bool:
    return is_upper_triangular(m) and all(m[i][i] == 1 for i in range(len(m)))


def is_traceless(m: Mat) -> bool:
    return sum(m[i][i] for i in range(_dim(m))) == 0


def assert_special(m: Mat) -> None:
    if det(m) != 1:
        raise ValueError("matrix determinant is not 1")


@lru_cache(maxsize=None)
def coxeter_rep(n: int) -> Mat:
    """Representative of the standard Coxeter element in SL(n).

    Product of the simple-reflection blocks [[0,-1],[1,0]] embedded at
    positions 1..n-1, taken left to right.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    out = eye(n)
    for i in range(n - 1):
        block = {(k, k): F1 for k in range(n) if k not in (i, i + 1)}
        block.update({(i, i + 1): -F1, (i + 1, i): F1})
        out = mmul(out, sparse(n, block))
    return out


def _cycle_prev(n: int, j: int) -> int:
    """Index i with coxeter_rep(n) mapping line i to line j."""
    return (j - 1) % n


def cell_witness(m: Mat, s_rep: Optional[Mat] = None):
    """Unitriangular (a, b) with m = a * s * b, or None when m is not in
    the cell; ValueError unless s_rep is an invertible matrix of m's size.

    Writing a^-1 = 1 + g with g strictly upper, the condition
    s^-1 (1 + g) m = b in N_+ is linear in g: the strictly-lower entries
    must vanish and the diagonal must be 1.  Solvability is exactly cell
    membership.
    """
    n = _dim(m)
    s = coxeter_rep(n) if s_rep is None else s_rep
    if any(len(row) != len(s) for row in s):
        raise ValueError("s_rep is not square")
    if len(s) != n:
        raise ValueError(f"s_rep is {len(s)}x{len(s)} but the matrix is {n}x{n}")
    if det(s) == 0:
        raise ValueError("s_rep is singular")
    sinv = minv(s)
    base = mmul(sinv, m)
    positions = [(k, l) for k in range(n) for l in range(k + 1, n)]
    # one equation per constrained entry (i, j), j <= i, of s^-1 (1+g) m
    cells = [(i, j) for i in range(n) for j in range(i + 1)]
    rows = [[sinv[i][k] * m[l][j] for k, l in positions] for i, j in cells]
    rhs = tuple((F1 if i == j else F0) - base[i][j] for i, j in cells)
    sol = solve(mat(rows), rhs)
    if sol is None:
        return None
    ainv = madd(eye(n), sparse(n, dict(zip(positions, sol))))
    a = minv(ainv)
    b = mmul(mmul(sinv, ainv), m)
    return a, b


def bruhat_cell_test(m: Mat) -> bool:
    """Whether m lies in N_+ s N_+ for the standard s, read off its shape
    and determinant (B_+ s B_+ = N_+ H s N_+, and N_+ keeps a Hessenberg
    subdiagonal); ``cell_witness`` tests the cell of any other
    representative."""
    n = _dim(m)
    if n < 2:
        raise ValueError("need n >= 2")
    return (all(m[i][j] == (1 if j == i - 1 else 0)
                for i in range(1, n) for j in range(i)) and det(m) == 1)


def is_slice_point(m: Mat) -> bool:
    """Whether m is a point of N_+' s: rows 2..n those of s, and the last
    entry of row 1 that of s (the others are the free coordinates)."""
    n = _dim(m)
    s = coxeter_rep(n)
    return m[1:] == s[1:] and m[0][n - 1] == s[0][n - 1]


def slice_params(m: Mat):
    if not is_slice_point(m):
        raise ValueError("matrix is not on the slice N_+' s")
    s = coxeter_rep(len(m))
    return tuple(m[0][j] - s[0][j] for j in range(len(m) - 1))


def _sweep_to_first_row(m: Mat):
    """Shared elimination engine for cross_section and kostant_section.

    The input has a unit subdiagonal (from the Coxeter representative or
    the principal nilpotent f) and nothing below it, which makes each
    eliminated entry enter its own clearing step with coefficient exactly
    -t.  Entries (r, r+d) with r >= 1 are cleared diagonal by diagonal,
    sweeping their values onto the first row, each by an O(n) conjugation
    in place.  Returns the accumulated unitriangular conjugator and the
    final matrix.
    """
    n = len(m)
    work = [list(row) for row in m]
    conj = [list(row) for row in eye(n)]
    for d in range(n - 1):
        for r in range(n - 1 - d, 0, -1):
            t = work[r][r + d]
            if t == 0:
                continue
            if work[r][r - 1] != 1:
                raise AssertionError("unit subdiagonal lost during sweep")
            i, j = r - 1, r + d
            # rows i += t * rows j (work and conj); work col j -= t * col i
            for rows in (work, conj):
                rows[i] = [x + t * y if y else x
                           for x, y in zip(rows[i], rows[j])]
            for row in work:
                if row[i]:
                    row[j] -= t * row[i]
    return tuple(map(tuple, conj)), tuple(map(tuple, work))


class NotInCell(ValueError):
    """The matrix given to ``cross_section`` lies outside N_+ s N_+."""


def cross_section(m: Mat):
    """Conjugator u in N_+ and the slice point v s with u m u^-1 = v s.

    The input must lie in N_+ s N_+, or NotInCell is raised; every element
    of that cell is a determinant-one Hessenberg matrix with unit
    subdiagonal, and the sweep moves all interior entries onto the first
    row while the corner stays pinned by the determinant.
    """
    n = _dim(m)
    if not bruhat_cell_test(m):
        raise NotInCell("not in N_+ s N_+")
    conj, out = _sweep_to_first_row(m)
    if not is_slice_point(out):
        raise AssertionError("sweep left the slice family")
    if not is_unitriangular(conj) or mmul(conj, m) != mmul(out, conj):
        raise AssertionError("conjugation identity lost")
    return conj, out


def build_u(c) -> Mat:
    """The lower unitriangular element prod_i exp(2 d_i c_i E_{i+1,i}).

    Type A throughout, so every symmetrizer d_i is 1.  All c_i must be
    nonzero (a degenerate coordinate leaves the nilpotent subgroup it
    parametrizes).
    """
    c = [Fraction(x) for x in c]
    if not c:
        raise ValueError("need at least one coordinate")
    if any(x == 0 for x in c):
        raise ValueError("all coordinates must be nonzero")
    n = len(c) + 1
    out = eye(n)
    for i, x in enumerate(c):
        out = mmul(out, madd(eye(n), mscale(unit(n, i + 1, i), 2 * x)))
    return out


class GStarElement(namedtuple("GStarElement", (
        "l_plus", "l_minus", "h_plus", "n_plus", "h_minus", "n_minus"))):
    """A point (L_+, L_-) of the dual group with its cached factorization."""

    __slots__ = ()


def gstar_factorize(l_plus: Mat, l_minus: Mat) -> GStarElement:
    """Factor L_+- = h_+- n_+- and check the torus compatibility h_- = s(h_+)."""
    n = _dim(l_plus)
    if _dim(l_minus) != n:
        raise ValueError("size mismatch")
    if not is_upper_triangular(l_plus):
        raise ValueError("L_+ is not in B_+")
    if not is_lower_triangular(l_minus):
        raise ValueError("L_- is not in B_-")
    assert_special(l_plus)
    assert_special(l_minus)
    h_plus = diag([l_plus[i][i] for i in range(n)])
    h_minus = diag([l_minus[i][i] for i in range(n)])
    if mmul(coxeter_rep(n), h_plus) != mmul(h_minus, coxeter_rep(n)):
        raise ValueError("incompatible torus parts")
    n_plus = mmul(minv(h_plus), l_plus)
    n_minus = mmul(minv(h_minus), l_minus)
    return GStarElement(l_plus, l_minus, h_plus, n_plus, h_minus, n_minus)


def q_map(el: GStarElement) -> Mat:
    return mmul(el.l_minus, minv(el.l_plus))


def mu_inverse_point(h_diag, n_plus: Mat, c) -> GStarElement:
    """The fiber point (h_+ n_+, s(h_+) u) over u = build_u(c)."""
    entries = [Fraction(x) for x in h_diag]
    n = len(entries)
    prod = F1
    for x in entries:
        prod *= x
    if prod != 1:
        raise ValueError("torus entries must multiply to 1")
    h_plus = diag(entries)
    sh = diag([entries[_cycle_prev(n, j)] for j in range(n)])  # s h_+ s^-1
    l_plus = mmul(h_plus, n_plus)
    l_minus = mmul(sh, build_u(c))
    return gstar_factorize(l_plus, l_minus)


def shift_matrix(n: int) -> Mat:
    """The principal nilpotent f: ones on the subdiagonal."""
    return sparse(n, {(i + 1, i): F1 for i in range(n - 1)})


def kostant_section(b: Mat):
    """(a, x) with a unitriangular and a (b + f) a^-1 = f + x in companion form.

    Input is an upper-triangular traceless matrix.  The returned x is
    supported on the first row, columns 2..n; the leading entry vanishes
    because the trace does.
    """
    n = _dim(b)
    if not is_upper_triangular(b):
        raise ValueError("input is not upper triangular")
    if not is_traceless(b):
        raise ValueError("input is not traceless")
    f = shift_matrix(n)
    conj, out = _sweep_to_first_row(madd(b, f))
    if out[0][0] != 0:
        raise AssertionError("trace did not cancel on the section")
    x = msub(out, f)
    if any(x[i][j] != 0 for i in range(1, n) for j in range(n)):
        raise AssertionError("section point is not in the first-row space")
    return conj, x


def _cartan_cycle(n: int) -> Mat:
    """Action of the Coxeter representative on diagonal coordinates."""
    return sparse(n, {(j, _cycle_prev(n, j)): F1 for j in range(n)})


@lru_cache(maxsize=None)
def _cayley_operator(n: int, part: str) -> Mat:
    """The matrix taking the diagonal of a traceless x to the Cartan part
    of r(x): y solving (1 - s) y = diagonal, sum y = 0, for part "plus", s y
    for "minus" and y + s y for "full".  Column k < n - 1 of the y operator
    solves the system for e_k - e_{n-1}, and the last column is zero: a
    traceless diagonal is a combination of those differences."""
    p = _cartan_cycle(n)
    system = msub(eye(n), p) + ((F1,) * n,)
    cols = []
    for k in range(n - 1):
        rhs = [F0] * (n + 1)
        rhs[k], rhs[n - 1] = F1, -F1
        y = solve(system, tuple(rhs))
        if y is None:
            raise AssertionError("1 - s is singular on the traceless Cartan")
        cols.append(y)
    plus = transpose(cols + [(F0,) * n])
    if part == "plus":
        return plus
    return mmul(p if part == "minus" else madd(eye(n), p), plus)


def rmatrix_endo(n: int, part: str = "full") -> Callable[[Mat], Mat]:
    """The classical r-matrix P_+ - P_- + (1+s)/(1-s) P_0 on sl(n).

    ``part`` selects the full endomorphism or its halves
    r_+ = P_+ + (1-s)^-1 P_0 and r_- = -P_- + s (1-s)^-1 P_0.
    """
    if part not in ("full", "plus", "minus"):
        raise ValueError("part must be 'full', 'plus' or 'minus'")

    def r(x: Mat) -> Mat:
        if _dim(x) != n:
            raise ValueError("size mismatch")
        if not is_traceless(x):
            raise ValueError("input is not traceless")
        cartan = mvec(_cayley_operator(n, part),
                      [x[i][i] for i in range(n)])
        out = [[F0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i < j:
                    out[i][j] = x[i][j] if part in ("full", "plus") else F0
                elif i > j:
                    out[i][j] = -x[i][j] if part in ("full", "minus") else F0
                else:
                    out[i][j] = cartan[i]
        return mat(out)

    return r


def _bracket(x: Mat, y: Mat) -> Mat:
    return msub(mmul(x, y), mmul(y, x))


def mcybe_check(x: Mat, y: Mat) -> Mat:
    """Residual [rX, rY] - r([rX, Y] + [X, rY]) + [X, Y]; zero iff the
    modified classical Yang-Baxter equation holds on the pair."""
    n = _dim(x)
    if _dim(y) != n:
        raise ValueError("size mismatch")
    r = rmatrix_endo(n)
    rx, ry = r(x), r(y)
    middle = madd(_bracket(rx, y), _bracket(x, ry))
    return madd(msub(_bracket(rx, ry), r(middle)), _bracket(x, y))


def fundamental_characters(m: Mat):
    """Traces of the fundamental exterior powers, read off the
    characteristic polynomial."""
    _dim(m)
    assert_special(m)
    return _characters(charpoly(m))


def _characters(coeffs):
    """(-1)^k c_{n-k} for k = 1..n-1, from the coefficients [c_0..c_n] of a
    characteristic polynomial: the traces of the fundamental exterior
    powers of the matrix."""
    n = len(coeffs) - 1
    return tuple((-1) ** k * coeffs[n - k] for k in range(1, n))


def poly_discriminant(coeffs) -> Fraction:
    """Discriminant of a monic polynomial given as [c_0..c_n], via the
    Sylvester resultant with the derivative."""
    coeffs = [Fraction(c) for c in coeffs]
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] != 1:
        raise ValueError("need a monic polynomial of positive degree")
    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    size = 2 * n - 1
    rows = []
    for shift in range(n - 1):
        row = [F0] * size
        for k, c in enumerate(reversed(coeffs)):
            row[shift + k] = c
        rows.append(tuple(row))
    for shift in range(n):
        row = [F0] * size
        for k, c in enumerate(reversed(deriv)):
            row[shift + k] = c
        rows.append(tuple(row))
    res = det(mat(rows))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def eq_character_report(h_diag, c) -> dict:
    """Character identity data for the fiber point with trivial N_+ part.

    Compares the characteristic polynomial of the q-map value against the
    twisted torus element t = h_+^-1 s(h_+), both with and without the
    regularity guard on t.  The unguarded comparison is reported rather
    than demanded; t u is lower triangular, so it holds identically.
    """
    entries = [Fraction(x) for x in h_diag]
    el = mu_inverse_point(entries, eye(len(entries)), c)
    q = q_map(el)
    t = mmul(minv(el.h_plus), el.h_minus)  # h_- = s(h_+), checked on el
    tu = mmul(t, build_u(c))
    poly, poly_t = charpoly(q), charpoly(t)  # q is special: L_+ and L_- are
    return {
        "regular": poly_discriminant(poly_t) != 0,
        "matches_torus_times_u": poly == charpoly(tu),
        "matches_torus": poly == poly_t,
        "characters": _characters(poly),
    }
