"""Exact matrices: dense over the rationals, sparse rows over any ring.

A dense rational ``Matrix`` is int rows over one int den >= 1, in canonical
form: gcd(den, every entry) = 1 (the zero matrix has den 1), so matrices
are equal, and hash equal, exactly when their entries are.  Sums and
products are int operations and one gcd; inverse, solve, rank and
determinant share one fraction-free (Bareiss) elimination of the int rows.
Fractions appear only where an entry is read: m[i] and iteration give rows
of Fractions, and ``det``, ``solve`` and ``charpoly`` return Fractions.
Reports print entries from the ints through ``rat_text``, the package's
one rule for writing a rational.

A matrix of any other ring (qarith.LaurentScalar, uqalg.PBWElement,
toda.DifferenceOperator) is kept as sparse rows {row: {column: entry}}
holding no zero entry, so two such matrices are equal exactly when their
dicts are.  ``sparse_mul``, ``sparse_scale`` and ``kron`` work over the
nonzero entries, and ask of the ring only +, * and truthiness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, index, mul, sub


def rat_text(x: int, den: int) -> str:
    """The text str(Fraction(x, den)) gives, for ints x and den > 0, by one
    gcd and no Fraction: "x" or "x/den" in lowest terms."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


class Matrix:
    """The matrix rows / den in canonical form, which ``Matrix(rows, den)``
    makes of any int rows and nonzero int den.  len(m) is the number of
    rows; m[i], and iteration through it, give rows of Fractions."""

    __slots__ = ("rows", "den")

    def __init__(self, rows, den=1):
        if not den:
            raise ZeroDivisionError("matrix denominator is zero")
        sign = 1 if den > 0 else -1
        canon = _canon(tuple(tuple(sign * index(x) for x in row)
                             for row in rows), sign * den)
        self.rows, self.den = canon.rows, canon.den

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return tuple(Fraction(x, self.den) for x in self.rows[i])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.rows == other.rows

    def __hash__(self):
        return hash((self.rows, self.den))

    def __repr__(self):
        return f"Matrix({self.rows!r}, {self.den})"


def _canon(rows, den):
    """The Matrix of int tuples rows over den >= 1, both divided by their gcd."""
    if den != 1:
        g = den
        for row in rows:
            g = gcd(g, *row)
            if g == 1:
                break
        else:
            rows = tuple(tuple(x // g for x in row) for row in rows)
            den //= g
    m = object.__new__(Matrix)
    m.rows, m.den = rows, den
    return m


def mat(rows) -> Matrix:
    """The matrix of rows of ints, Fractions or what Fraction reads."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x)
             for x in row] for row in rows]
    d = lcm(1, *(x.denominator for row in rows for x in row))
    return _canon(tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                        for row in rows), d)


def sparse(n: int, entries: dict) -> Matrix:
    """The n x n matrix with entries[(i, j)] at (i, j) and 0 elsewhere."""
    return mat([[entries.get((i, j), 0) for j in range(n)] for i in range(n)])


def diag(entries) -> Matrix:
    return sparse(len(entries), {(i, i): x for i, x in enumerate(entries)})


def eye(n: int) -> Matrix:
    return _canon(tuple((0,) * i + (1,) + (0,) * (n - i - 1)
                        for i in range(n)), 1)


def unit(n: int, i: int, j: int) -> Matrix:
    """The matrix unit E_ij."""
    return sparse(n, {(i, j): 1})


def zeros(n: int) -> Matrix:
    return mat([[0] * n] * n)


def _combine(a: Matrix, b: Matrix, op) -> Matrix:
    """Entrywise a op b over one common denominator."""
    d = lcm(a.den, b.den)
    fa, fb = d // a.den, d // b.den
    return _canon(tuple(tuple(op(x * fa, y * fb) for x, y in zip(ra, rb))
                        for ra, rb in zip(a.rows, b.rows)), d)


def madd(a: Matrix, b: Matrix) -> Matrix:
    return _combine(a, b, add)


def msub(a: Matrix, b: Matrix) -> Matrix:
    return _combine(a, b, sub)


def mmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b: int dot products of the rows of a with the columns
    of b, over the product of the two denominators."""
    cols = tuple(zip(*b.rows))
    return _canon(tuple(tuple(sum(map(mul, row, col)) for col in cols)
                        for row in a.rows), a.den * b.den)


def sparse_mul(a: dict, b: dict) -> dict:
    """The product of two matrices given as sparse rows, over their nonzero
    entries; an entry that cancels to zero is dropped."""
    out = {}
    for r, arow in a.items():
        acc = {}
        for k, x in arow.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc[c] + x * y if c in acc else x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def sparse_scale(a: dict, s) -> dict:
    """The sparse rows a with every entry times s on the right, so that
    q-scalar entries times a PBW element give sparse rows of PBW elements.
    s must not be zero, so no entry vanishes."""
    return {r: {c: x * s for c, x in row.items()} for r, row in a.items()}


def kron(a: dict, b: dict, m: int) -> dict:
    """The Kronecker product of sparse rows a and b, b being m x m: block
    (i, j) is a[i][j] b."""
    return {i * m + k: {j * m + l: x * y for j, x in arow.items()
                        for l, y in brow.items()}
            for i, arow in a.items() for k, brow in b.items()}


def transpose(a: Matrix) -> Matrix:
    return _canon(tuple(zip(*a.rows)), a.den)


def _rref(rows, ncols: int, jordan: bool = True):
    """Fraction-free elimination (Bareiss) of the int rows on their first
    ncols columns; stops once every row holds a pivot.  Each step replaces
    every other row x by (p x - x[col] prow) / prev, p the pivot, prow its
    row and prev the pivot before it; by Sylvester's identity the entries
    stay minors of the input, so the division is exact (Bareiss, Math.
    Comp. 22, 1968).  With jordan the rows above each pivot are cleared too.

    Returns the rows (None without jordan), the pivot columns and the last
    pivot negated once per row swap: the determinant of a square input with
    a pivot in every row.  With jordan the pivot rows come first and are
    those of rational Gauss-Jordan times the last pivot."""
    work = [list(row) for row in rows]
    n = len(work)
    pivots = []
    sign, prev, r = 1, 1, 0
    for col in range(ncols):
        piv = next((i for i in range(r, n) if work[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        prow = work[r]
        p = prow[col]
        for i in range(0 if jordan else r + 1, n):
            if i != r:
                f = work[i][col]
                work[i] = [(p * x - f * y) // prev
                           for x, y in zip(work[i], prow)]
        prev = p
        pivots.append(col)
        r += 1
        if r == n:
            break
    return (work if jordan else None), pivots, sign * prev


def minv(a: Matrix) -> Matrix:
    """The inverse den W^-1 of a = W / den, W^-1 being the right half of
    the reduced [W | 1] over its last pivot."""
    n = len(a)
    work, pivots, _ = _rref([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(a.rows)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    p = work[0][pivots[0]] if n else 1
    scale = a.den if p > 0 else -a.den
    return _canon(tuple(tuple(x * scale for x in row[n:]) for row in work),
                  abs(p))


def det(a: Matrix) -> Fraction:
    """det(W) / den^n for a = W / den, from the forward pass of the
    elimination only."""
    n = len(a)
    _, pivots, factor = _rref(a.rows, n, jordan=False)
    return Fraction(factor, a.den ** n) if len(pivots) == n else Fraction(0)


def charpoly(a: Matrix) -> list[Fraction]:
    """Coefficients [c_0..c_n] of det(tI - a) = sum c_k t^k, exact, in
    O(n^3).  For a = W / den, c_k(a) = c_k(W) den^(k - n), and those of W
    come from a similarity to upper Hessenberg form (swapping a row and
    column pair at a zero pivot), then the Hessenberg recurrence over its
    leading blocks (Cohen, A Course in Computational Algebraic Number
    Theory, 2.2), in ints when W is Hessenberg already."""
    n = len(a)
    h = [list(row) for row in a.rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), m)
        h[m], h[piv] = h[piv], h[m]
        for row in h:
            row[m], row[piv] = row[piv], row[m]
        for i in range(m + 1, n):
            if h[i][m - 1]:
                u = Fraction(h[i][m - 1]) / h[m][m - 1]
                h[i] = [x - u * y for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] += u * row[i]
    polys = [[1]]
    for m in range(n):
        p, chain = [0] + polys[m], 1
        for i in range(m, -1, -1):  # i = m is the -h_mm p_m term
            coef = h[i][m] * chain
            if coef:
                for k, c in enumerate(polys[i]):
                    p[k] -= coef * c
            chain *= h[i][i - 1] if i else 0
        polys.append(p)
    return [Fraction(c, a.den ** (n - k)) for k, c in enumerate(polys[n])]


def solve(a: Matrix, b) -> tuple | None:
    """One solution of a x = b, or None when inconsistent.  Requires the
    system to determine x uniquely on its pivot columns; free columns get 0.
    For a = W / den and b = B / db the system is db W x = den B."""
    m = len(a.rows[0])
    b = mat([b])
    work, pivots, _ = _rref([[x * b.den for x in row] + [a.den * y]
                             for row, y in zip(a.rows, b.rows[0])], m)
    if any(row[m] for row in work[len(pivots):]):
        return None
    x = [Fraction(0)] * m
    for row, col in zip(work, pivots):
        x[col] = Fraction(row[m], row[col])
    return tuple(x)


def rank(a: Matrix) -> int:
    return len(_rref(a.rows, len(a.rows[0]), jordan=False)[1])
