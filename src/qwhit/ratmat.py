"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction (immutable, hashable); vectors are
tuples of Fraction.  Everything here is small and dense: ranks stay below ten
or so throughout the package.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

Vec = tuple
Mat = tuple


def vec(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def mat(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def eye(n: int) -> Mat:
    return tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n))


def zeros(n: int, m: int | None = None) -> Mat:
    m = n if m is None else m
    return tuple((F0,) * m for _ in range(n))


def madd(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(a: Mat, s) -> Mat:
    s = Fraction(s)
    return tuple(tuple(x * s for x in row) for row in a)


def mmul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mvec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def _rref(work: list, ncols: int):
    """Gauss-Jordan on the first ncols columns of the row lists in work,
    in place; stops once every row holds a pivot.  Returns the reduced rows
    and the pivot columns."""
    n = len(work)
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, n) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(n):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    return work, pivots


def minv(a: Mat) -> Mat:
    n = len(a)
    work, pivots = _rref([list(row) + [F1 if i == j else F0 for j in range(n)]
                          for i, row in enumerate(a)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in work)


def det(a: Mat) -> Fraction:
    n = len(a)
    work = [list(row) for row in a]
    out = F1
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return F0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            out = -out
        out *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] * inv
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return out


def charpoly(a: Mat) -> list[Fraction]:
    """Coefficients [c_0..c_n] of det(tI - a) = sum c_k t^k, exact
    Faddeev-LeVerrier recursion."""
    n = len(a)
    coeffs = [F0] * (n + 1)
    coeffs[n] = F1
    m = zeros(n)
    c = F1
    for k in range(1, n + 1):
        m = mmul(a, madd(m, mscale(eye(n), c)))
        c = -Fraction(sum(m[i][i] for i in range(n)), k)
        coeffs[n - k] = c
    return coeffs


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution of a x = b, or None when inconsistent.  Requires the
    system to determine x uniquely on its pivot columns; free columns get 0."""
    m = len(a[0])
    work, pivots = _rref([list(row) + [bv] for row, bv in zip(a, b)], m)
    if any(row[m] for row in work[len(pivots):]):
        return None
    x = [F0] * m
    for row, col in zip(work, pivots):
        x[col] = row[m]
    return tuple(x)


def rank(a: Mat) -> int:
    return len(_rref([list(row) for row in a], len(a[0]))[1])
