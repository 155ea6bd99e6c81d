"""Exact matrices: dense over the rationals, sparse rows over any ring.

Dense matrices are tuples of row tuples of Fractions (immutable, hashable,
equal exactly when their entries are); vectors are tuples.  The product
works on rows and columns cleared to ints.  Inverse, solve, rank and
determinant share one fraction-free (Bareiss) elimination on integer-scaled
rows, and the characteristic polynomial comes from a Hessenberg reduction.

A matrix of any other ring (qarith.LaurentScalar, uqalg.PBWElement,
toda.DifferenceOperator) is kept as sparse rows {row: {column: entry}},
which hold no zero entry, so that two such matrices are equal exactly when
their dicts are.  ``sparse_mul``, ``sparse_scale`` and ``kron`` work on
them over the nonzero entries only, and ask of the ring only +, * and
truthiness.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

F0 = Fraction(0)
F1 = Fraction(1)

Vec = tuple
Mat = tuple


def mat(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def sparse(n: int, entries: dict) -> Mat:
    """The n x n matrix with entries[(i, j)] at (i, j) and 0 elsewhere."""
    return tuple(tuple(entries.get((i, j), F0) for j in range(n))
                 for i in range(n))


def diag(entries) -> Mat:
    return sparse(len(entries), {(i, i): x for i, x in enumerate(entries)})


def eye(n: int) -> Mat:
    return diag((F1,) * n)


def unit(n: int, i: int, j: int) -> Mat:
    """The matrix unit E_ij."""
    return sparse(n, {(i, j): F1})


def zeros(n: int, m: int | None = None) -> Mat:
    m = n if m is None else m
    return tuple((F0,) * m for _ in range(n))


def madd(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(a: Mat, s) -> Mat:
    """Every entry times s."""
    return tuple(tuple(x * s for x in row) for row in a)


def _cleared(xs):
    """(ints, d) with xs = ints / d entrywise: d is the lcm of the
    denominators of the rationals xs."""
    d = 1
    for x in xs:
        if d % x.denominator:
            d = lcm(d, x.denominator)
    return [x.numerator * (d // x.denominator) for x in xs], d


def mmul(a: Mat, b: Mat) -> Mat:
    """The product a b.  Each row of a and each column of b is cleared to
    ints by one lcm of its denominators, so entry (i, j) is one int dot
    product over the two scales, normalised once."""
    cols = [_cleared(col) for col in zip(*b)]
    out = []
    for row in a:
        ra, da = _cleared(row)
        entries = []
        for cb, db in cols:
            dot = sum(map(mul, ra, cb))
            entries.append(Fraction(dot, da * db) if dot else F0)
        out.append(tuple(entries))
    return tuple(out)


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
    q-scalar entries times a PBW element or a difference operator give
    sparse rows of those.  s must not be zero, so no entry vanishes."""
    return {r: {c: x * s for c, x in row.items()} for r, row in a.items()}


def kron(a: dict, b: dict, m: int) -> dict:
    """The Kronecker product of sparse rows a and b, b being m x m: block
    (i, j) is a[i][j] b."""
    return {i * m + k: {j * m + l: x * y for j, x in arow.items()
                        for l, y in brow.items()}
            for i, arow in a.items() for k, brow in b.items()}


def mvec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def _rref(rows, ncols: int, jordan: bool = True):
    """Fraction-free elimination (Bareiss) on the first ncols columns of
    rows, each first cleared to ints by one lcm of its denominators; stops
    once every row holds a pivot.  Each step replaces every other row x by
    (p x - x[col] prow) / prev, p the pivot, prow its row and prev the
    pivot before it; by Sylvester's identity the entries stay minors of the
    cleared matrix, so the division is exact (Bareiss, Math. Comp. 22,
    1968).  With jordan the rows above each pivot are cleared too, and every
    pivot row ends with the last pivot in its pivot column.

    Returns the reduced rows (None without jordan), the pivot columns and
    the determinant factor: the product of the pivots of rational
    elimination, negated once per row swap, which is the determinant of a
    square matrix with a pivot in every row.  The reduced rows are those of
    rational Gauss-Jordan: each pivot row divided by the last pivot, and
    each row below them by the last pivot and its own scale."""
    work, scales = [], []
    for row in rows:
        ints, d = _cleared(row)
        work.append(ints)
        scales.append(d)
    n = len(work)
    pivots = []
    sign, prev, r = 1, 1, 0
    for col in range(ncols):
        piv = next((i for i in range(r, n) if work[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            scales[r], scales[piv] = scales[piv], scales[r]
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
    factor = Fraction(sign * prev, prod(scales[:r]))
    if not jordan:
        return None, pivots, factor
    reduced = [[Fraction(x, prev) for x in row] for row in work[:r]]
    reduced += [[Fraction(x, prev * d) for x in row]
                for row, d in zip(work[r:], scales[r:])]
    return reduced, pivots, factor


def minv(a: Mat) -> Mat:
    n = len(a)
    work, pivots, _ = _rref([list(row) + list(e)
                             for row, e in zip(a, eye(n))], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in work)


def det(a: Mat) -> Fraction:
    """The determinant, from the forward pass of the elimination only."""
    _, pivots, factor = _rref(a, len(a), jordan=False)
    return factor if len(pivots) == len(a) else F0


def charpoly(a: Mat) -> list[Fraction]:
    """Coefficients [c_0..c_n] of det(tI - a) = sum c_k t^k, exact, in
    O(n^3): a similarity to upper Hessenberg form (swapping a row and column
    pair at a zero pivot), then the Hessenberg recurrence over its leading
    blocks (Cohen, A Course in Computational Algebraic Number Theory, 2.2)."""
    n = len(a)
    h = [list(row) for row in a]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), m)
        h[m], h[piv] = h[piv], h[m]
        for row in h:
            row[m], row[piv] = row[piv], row[m]
        for i in range(m + 1, n):
            if h[i][m - 1]:
                u = h[i][m - 1] / h[m][m - 1]
                h[i] = [x - u * y for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] += u * row[i]
    polys = [[F1]]
    for m in range(n):
        p, chain = [F0] + polys[m], F1
        for i in range(m, -1, -1):  # i = m is the -h_mm p_m term
            coef = h[i][m] * chain
            if coef:
                for k, c in enumerate(polys[i]):
                    p[k] -= coef * c
            chain *= h[i][i - 1] if i else F0
        polys.append(p)
    return polys[n]


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution of a x = b, or None when inconsistent.  Requires the
    system to determine x uniquely on its pivot columns; free columns get 0."""
    m = len(a[0])
    work, pivots, _ = _rref([list(row) + [bv] for row, bv in zip(a, b)], m)
    if any(row[m] for row in work[len(pivots):]):
        return None
    x = [F0] * m
    for row, col in zip(work, pivots):
        x[col] = row[m]
    return tuple(x)


def rank(a: Mat) -> int:
    return len(_rref(a, len(a[0]), jordan=False)[1])
