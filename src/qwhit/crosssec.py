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
from operator import mul
from typing import Callable

from .ratmat import (Matrix, charpoly, det, diag, eye, madd, minv, mmul,
                     msub, solve, sparse)


def _dim(m: Matrix) -> int:
    n = len(m.rows)
    if any(len(row) != n for row in m.rows):
        raise ValueError("matrix is not square")
    return n


# The predicates below read the int rows of m = rows / den: an entry is 0
# when its int is, and 1 when its int equals den.
def is_upper_triangular(m: Matrix) -> bool:
    _dim(m)
    return not any(any(row[:i]) for i, row in enumerate(m.rows))


def is_lower_triangular(m: Matrix) -> bool:
    _dim(m)
    return not any(any(row[i + 1:]) for i, row in enumerate(m.rows))


def is_unitriangular(m: Matrix) -> bool:
    return is_upper_triangular(m) and all(row[i] == m.den
                                          for i, row in enumerate(m.rows))


def is_traceless(m: Matrix) -> bool:
    _dim(m)
    return not sum(row[i] for i, row in enumerate(m.rows))


def assert_special(m: Matrix) -> None:
    if det(m) != 1:
        raise ValueError("matrix determinant is not 1")


def coxeter_rep(n: int) -> Matrix:
    """Representative of the standard Coxeter element in SL(n).

    Product of the simple-reflection blocks [[0,-1],[1,0]] embedded at
    positions 1..n-1, taken left to right: row 1 is (-1)^(n-1) e_n and
    row i > 1 is e_(i-1).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return Matrix([(0,) * (n - 1) + ((-1) ** (n - 1),)]
                  + [_unit_row(n, i - 1, 1) for i in range(1, n)])


def _unit_row(n: int, j: int, x: int) -> tuple:
    """The length-n int row with x at column j and 0 elsewhere."""
    return (0,) * j + (x,) + (0,) * (n - j - 1)


def cell_witness(m: Matrix, s_rep: Matrix):
    """Unitriangular (a, b) with m = a * s * b, or None when m is not in
    the cell; ValueError unless s_rep is an invertible matrix of m's size.

    Writing a^-1 = 1 + g with g strictly upper, the condition
    s^-1 (1 + g) m = b in N_+ is linear in g: the strictly-lower entries
    must vanish and the diagonal must be 1.  Solvability is exactly cell
    membership.
    """
    n, d = _dim(m), len(s_rep)
    if any(len(row) != d for row in s_rep.rows):
        raise ValueError("s_rep is not square")
    if d != n:
        raise ValueError(f"s_rep is {d}x{d} but the matrix is {n}x{n}")
    if det(s_rep) == 0:
        raise ValueError("s_rep is singular")
    sinv = minv(s_rep)
    base = mmul(sinv, m)
    positions = [(k, l) for k in range(n) for l in range(k + 1, n)]
    # one equation per constrained entry (i, j), j <= i, of s^-1 (1+g) m
    cells = [(i, j) for i in range(n) for j in range(i + 1)]
    si, mi = sinv.rows, m.rows
    rows = [[si[i][k] * mi[l][j] for k, l in positions] for i, j in cells]
    rhs = tuple(Fraction((base.den if i == j else 0) - base.rows[i][j],
                         base.den) for i, j in cells)
    sol = solve(Matrix(rows, sinv.den * m.den), rhs)
    if sol is None:
        return None
    ainv = madd(eye(n), sparse(n, dict(zip(positions, sol))))
    a = minv(ainv)
    b = mmul(mmul(sinv, ainv), m)
    return a, b


def bruhat_cell_test(m: Matrix) -> bool:
    """Whether m lies in N_+ s N_+ for the standard s, read off its shape
    and determinant (B_+ s B_+ = N_+ H s N_+, and N_+ keeps a Hessenberg
    subdiagonal); ``cell_witness`` tests the cell of any other
    representative."""
    n = _dim(m)
    if n < 2:
        raise ValueError("need n >= 2")
    return all(row[i - 1] == m.den and not any(row[:i - 1])
               for i, row in enumerate(m.rows) if i) and det(m) == 1


def is_slice_point(m: Matrix) -> bool:
    """Whether m is a point of N_+' s: rows 2..n those of s, and the last
    entry of row 1 that of s, (-1)^(n-1) (the others are the free
    coordinates)."""
    n = _dim(m)
    rows, den = m.rows, m.den
    return (rows[0][n - 1] == (-1) ** (n - 1) * den
            and all(row == _unit_row(n, i - 1, den)
                    for i, row in enumerate(rows[1:], 1)))


def slice_params(m: Matrix):
    """The free coordinates of the slice point m: the first n - 1 entries
    of its first row, where s has zeros."""
    if not is_slice_point(m):
        raise ValueError("matrix is not on the slice N_+' s")
    return tuple(Fraction(x, m.den) for x in m.rows[0][:-1])


def _sweep_to_first_row(m: Matrix):
    """Shared elimination engine for cross_section and kostant_section.

    The input has a unit subdiagonal (from the Coxeter representative or
    the principal nilpotent f) and nothing below it, which makes each
    eliminated entry enter its own clearing step with coefficient exactly
    -t.  Entries (r, r+d) with r >= 1 are cleared diagonal by diagonal,
    sweeping their values onto the first row, each by an O(n) conjugation
    in place.  Returns the accumulated unitriangular conjugator and the
    final matrix.  It runs in ints, on D L m L^-1 for m = W / D and L =
    diag(D^-i), whose entry (i, j) is D^(j-i) W_ij and whose subdiagonal is
    m's; its steps are those of m conjugated by L, so entry (i, j) of the
    conjugator and of the final matrix is D^(i-j) and D^(i-j-1) times its
    swept int.
    """
    n, den = len(m), m.den
    if any(row[i - 1] not in (0, den) or any(row[:i - 1])
           for i, row in enumerate(m.rows) if i):
        raise AssertionError("unit subdiagonal lost during sweep")
    power = [den ** k for k in range(n + 1)]
    work = [[x * power[j - i] if j >= i else x // den
             for j, x in enumerate(row)] for i, row in enumerate(m.rows)]
    conj = [list(row) for row in eye(n).rows]
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

    # over D^(n-1) and D^n; below the subdiagonal both are zero
    conj, work = ([[x * power[n - 1 - j + i] if j + 1 >= i else x
                    for j, x in enumerate(row)] for i, row in enumerate(rows)]
                  for rows in (conj, work))
    return Matrix(conj, power[n - 1]), Matrix(work, power[n])


class NotInCell(ValueError):
    """The matrix given to ``cross_section`` lies outside N_+ s N_+."""


def cross_section(m: Matrix):
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


def build_u(c) -> Matrix:
    """The lower unitriangular element prod_i exp(2 d_i c_i E_{i+1,i}) over
    increasing i, which is 1 + sum_i 2 d_i c_i E_{i+1,i}: E_{i+1,i} E_{j+1,j}
    = 0 for i < j.  Type A throughout, so every d_i is 1.  All c_i must be
    nonzero (a degenerate coordinate leaves the nilpotent subgroup it
    parametrizes)."""
    c = [Fraction(x) for x in c]
    if not c:
        raise ValueError("need at least one coordinate")
    if any(x == 0 for x in c):
        raise ValueError("all coordinates must be nonzero")
    n = len(c) + 1
    entries = {(i, i): 1 for i in range(n)}
    entries.update({(i + 1, i): 2 * x for i, x in enumerate(c)})
    return sparse(n, entries)


class GStarElement(namedtuple("GStarElement", (
        "l_plus", "l_minus", "h_plus", "n_plus", "h_minus", "n_minus"))):
    """A point (L_+, L_-) of the dual group with its cached factorization."""

    __slots__ = ()


def gstar_factorize(l_plus: Matrix, l_minus: Matrix) -> GStarElement:
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
    h_plus, h_minus = (diag([Fraction(row[i], m.den)
                             for i, row in enumerate(m.rows)])
                       for m in (l_plus, l_minus))
    if mmul(coxeter_rep(n), h_plus) != mmul(h_minus, coxeter_rep(n)):
        raise ValueError("incompatible torus parts")
    n_plus = mmul(minv(h_plus), l_plus)
    n_minus = mmul(minv(h_minus), l_minus)
    return GStarElement(l_plus, l_minus, h_plus, n_plus, h_minus, n_minus)


def q_map(el: GStarElement) -> Matrix:
    return mmul(el.l_minus, minv(el.l_plus))


def mu_inverse_point(h_diag, n_plus: Matrix, c) -> GStarElement:
    """The fiber point (h_+ n_+, s(h_+) u) over u = build_u(c)."""
    entries = [Fraction(x) for x in h_diag]
    n = len(entries)
    prod = 1
    for x in entries:
        prod *= x
    if prod != 1:
        raise ValueError("torus entries must multiply to 1")
    h_plus = diag(entries)
    sh = diag([entries[(j - 1) % n] for j in range(n)])  # s h_+ s^-1
    l_plus = mmul(h_plus, n_plus)
    l_minus = mmul(sh, build_u(c))
    return gstar_factorize(l_plus, l_minus)


def shift_matrix(n: int) -> Matrix:
    """The principal nilpotent f: ones on the subdiagonal."""
    return sparse(n, {(i + 1, i): 1 for i in range(n - 1)})


def kostant_section(b: Matrix):
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
    if out.rows[0][0]:
        raise AssertionError("trace did not cancel on the section")
    x = msub(out, f)
    if any(map(any, x.rows[1:])):
        raise AssertionError("section point is not in the first-row space")
    return conj, x


def _cartan_cycle(n: int) -> Matrix:
    """Action of the Coxeter representative on diagonal coordinates."""
    return sparse(n, {(j, (j - 1) % n): 1 for j in range(n)})


def _cayley_operator(n: int, part: str) -> Matrix:
    """The matrix taking the diagonal of a traceless x to the Cartan part
    of r(x): y solving (1 - s) y = diagonal, sum y = 0, for part "plus", s y
    for "minus" and y + s y for "full".  The rows of 1 - s sum to zero, so
    on a traceless diagonal its last equation follows from the others; with
    it replaced by sum y = 0 the system is square, and the y operator is its
    inverse with the last column, the last diagonal entry's, zeroed."""
    p = _cartan_cycle(n)
    system = Matrix(msub(eye(n), p).rows[:-1] + ((1,) * n,))
    try:
        inverse = minv(system)
    except ZeroDivisionError:
        raise AssertionError("1 - s is singular on the traceless Cartan")
    plus = mmul(inverse, diag([1] * (n - 1) + [0]))
    if part == "plus":
        return plus
    return mmul(p if part == "minus" else madd(eye(n), p), plus)


def rmatrix_endo(n: int, part: str = "full") -> Callable[[Matrix], Matrix]:
    """The classical r-matrix P_+ - P_- + (1+s)/(1-s) P_0 on sl(n).

    ``part`` selects the full endomorphism or its halves
    r_+ = P_+ + (1-s)^-1 P_0 and r_- = -P_- + s (1-s)^-1 P_0.
    """
    if part not in ("full", "plus", "minus"):
        raise ValueError("part must be 'full', 'plus' or 'minus'")
    upper = 1 if part in ("full", "plus") else 0
    lower = -1 if part in ("full", "minus") else 0
    op = _cayley_operator(n, part)

    def r(x: Matrix) -> Matrix:
        if _dim(x) != n:
            raise ValueError("size mismatch")
        if not is_traceless(x):
            raise ValueError("input is not traceless")
        # over dx dc for x = X / dx and the Cartan operator C / dc, the
        # diagonal is C diag(X) and the rest +-dc X
        diagonal = [row[i] for i, row in enumerate(x.rows)]
        up, down = upper * op.den, lower * op.den
        return Matrix([[v * down for v in row[:i]]
                       + [sum(map(mul, crow, diagonal))]
                       + [v * up for v in row[i + 1:]]
                       for i, (row, crow) in enumerate(zip(x.rows, op.rows))],
                      x.den * op.den)

    return r


def _bracket(x: Matrix, y: Matrix) -> Matrix:
    return msub(mmul(x, y), mmul(y, x))


def mcybe_check(r: Callable[[Matrix], Matrix], x: Matrix,
                y: Matrix) -> Matrix:
    """Residual [rX, rY] - r([rX, Y] + [X, rY]) + [X, Y] of the r-matrix
    r = rmatrix_endo(n); zero iff the modified classical Yang-Baxter
    equation holds on the pair, which r refuses unless both are n x n."""
    rx, ry = r(x), r(y)
    middle = madd(_bracket(rx, y), _bracket(x, ry))
    return madd(msub(_bracket(rx, ry), r(middle)), _bracket(x, y))


def fundamental_characters(m: Matrix):
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


def eq_character_report(el: GStarElement) -> dict:
    """Character identity data for the fiber point el with its N_+ part
    dropped, so the report does not depend on it.

    Compares the characteristic polynomial of that point's q-map value
    q = L_- h_+^-1 against the twisted torus element t = h_+^-1 s(h_+), both
    with and without the regularity guard on t.  The unguarded comparison
    is reported rather than demanded: q = h_+ t u h_+^-1 for u = N_-, and
    t u is lower triangular with t's diagonal, so it holds identically.
    """
    h_plus_inv = minv(el.h_plus)
    q = mmul(el.l_minus, h_plus_inv)
    t = mmul(h_plus_inv, el.h_minus)  # h_- = s(h_+), checked on el
    tu = mmul(t, el.n_minus)
    poly, poly_t = charpoly(q), charpoly(t)
    return {
        # t is diagonal, so its characteristic polynomial has a repeated
        # root exactly when two diagonal entries agree
        "regular": len({row[i] for i, row in enumerate(t.rows)}) == len(t),
        "matches_torus_times_u": poly == charpoly(tu),
        "matches_torus": poly == poly_t,
        "characters": _characters(poly),
    }
