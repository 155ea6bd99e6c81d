"""Root-system combinatorics: Cartan data, Weyl reflections, Coxeter elements.

Roots are integer coordinate vectors in the simple-root basis, matrices are
exact rationals.  Conventions used throughout the package:

* the Cartan matrix entry a_ij equals alpha_j evaluated on the i-th coroot,
  so the simple reflection acts by s_i(alpha_j) = alpha_j - a_ij alpha_i;
* d_i are the coprime positive integers making b_ij = d_i a_ij symmetric;
* the bilinear form on weight space is (alpha_i, alpha_j) = b_ij.

A weight is an int tuple: its simple-root coordinates in units of
1/EXP_UNIT, the unit ``qarith`` uses for q-exponents (``weight`` converts
rational coordinates, ``weight_text`` prints the coordinates for reports).  The
pairing of a weight with an integer vector (a root or a z-exponent) is then
one integer dot product through the integer form b_ij, and it is the
q-exponent q^{(lam, beta)} in qarith units as it stands; two weights pair to
EXP_UNIT times that, so ``weight_pairing`` takes one exact division.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from fractions import Fraction
from operator import add, mul

from . import ratmat
from .qarith import EXP_UNIT, to_units

SUPPORTED_SERIES = ("A", "B", "C", "D", "F", "G")
MAX_RANK = 6


class UnsupportedTypeError(ValueError):
    pass


def weight(vec):
    """The weight with simple-root coordinates vec (ints or Fractions);
    ArithmeticError for a coordinate outside (1/EXP_UNIT)Z."""
    return tuple(map(to_units, vec))


def weight_text(lam):
    """The simple-root coordinates of the weight lam as report text."""
    return [ratmat.rat_text(x, EXP_UNIT) for x in lam]


def _divide_exactly(n, d, what):
    q, r = divmod(n, d)
    if r:
        raise ArithmeticError(
            f"{what} {Fraction(n, d * EXP_UNIT)} is not a multiple of "
            f"1/{EXP_UNIT}")
    return q


def weight_pairing(bx, y):
    """(x, y) for two weights, in units of 1/EXP_UNIT, from the covector
    bx = B x: the dot product of bx with y over EXP_UNIT, an exact
    division; ArithmeticError when it is not."""
    return _divide_exactly(sum(map(mul, bx, y)), EXP_UNIT, "pairing")


class Covectors(dict):
    """The covector B lam of each weight lam looked up, computed at the
    first lookup: one table for the operators and modules of one Toda
    system, so that a call computes the covector of each weight once."""

    __slots__ = ("rs",)

    def __init__(self, rs):
        super().__init__()
        self.rs = rs

    def __missing__(self, lam):
        b = self[lam] = self.rs.covector(lam)
        return b


def _cartan_table(series, rank):
    """Cartan matrix and symmetrizers d for the finite series we support."""
    if series not in SUPPORTED_SERIES:
        raise UnsupportedTypeError(f"unsupported series {series!r}")
    if rank < 1 or rank > MAX_RANK:
        raise UnsupportedTypeError(f"unsupported rank {rank} (need 1..{MAX_RANK})")
    ok = (
        (series == "A" and rank >= 1)
        or (series in ("B", "C") and rank >= 2)
        or (series == "D" and rank >= 3)
        or (series == "F" and rank == 4)
        or (series == "G" and rank == 2)
    )
    if not ok:
        raise UnsupportedTypeError(f"unsupported type {series}{rank}")

    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C", "D"):
        chain = rank - 1 if series == "D" else rank
        for i in range(chain - 1):
            bond(i, i + 1)
    if series == "A":
        d = [1] * rank
    elif series == "B":
        # last simple root short, the rest long
        bond(rank - 2, rank - 1, aij=-1, aji=-2)
        d = [2] * (rank - 1) + [1]
    elif series == "C":
        # last simple root long, the rest short
        bond(rank - 2, rank - 1, aij=-2, aji=-1)
        d = [1] * (rank - 1) + [2]
    elif series == "D":
        bond(rank - 3, rank - 1)
        d = [1] * rank
    elif series == "G":
        bond(0, 1, aij=-3, aji=-1)
        d = [1, 3]
    else:  # F_4
        bond(0, 1)
        bond(1, 2, aij=-1, aji=-2)
        bond(2, 3)
        d = [2, 2, 1, 1]
    return a, d


def _classical_count(series, rank):
    if series == "A":
        return rank * (rank + 1) // 2
    if series in ("B", "C"):
        return rank * rank
    if series == "D":
        return rank * (rank - 1)
    if series == "G":
        return 6
    return 24  # F_4


class RootSystemData(namedtuple("RootSystemData", (
        "series", "rank", "cartan", "d", "bform", "positive_roots",
        "heights", "rho", "fundamental_weights"))):
    """Immutable Cartan datum plus the full list of positive roots."""

    __slots__ = ()

    @property
    def n_positive(self):
        return len(self.positive_roots)

    @property
    def coxeter_number(self):
        return 2 * self.n_positive // self.rank

    def simple_root(self, i):
        """Coordinate vector of alpha_i (0-based index)."""
        return tuple(1 if k == i else 0 for k in range(self.rank))

    def covector(self, x):
        """The int vector B x, so that (x, y) is its dot product with y."""
        return tuple(sum(map(mul, row, x)) for row in self.bform)

    def pair(self, x, y):
        """The form sum x_i b_ij y_j on int vectors, as one integer dot
        product: for a weight x and a root or z-exponent y it is the
        q-exponent (x, y) in units of 1/EXP_UNIT."""
        return sum(map(mul, self.covector(x), y))

    def module_index(self, name):
        """k for the fundamental module 'Vk' of the type-A catalogue, k in
        ASCII digits with no leading zero; ValueError for anything else."""
        if self.series != "A":
            raise ValueError("the module catalogue covers type A only")
        if not re.fullmatch(r"V(0|[1-9][0-9]*)", name):
            raise ValueError(f"unknown module name {name!r}")
        if name[1:] not in map(str, range(1, self.rank + 1)):
            raise ValueError(f"module index out of range in {name!r}")
        return int(name[1:])


def build_root_system(series, rank):
    """Construct the root-system datum for one of the supported finite types.

    Positive roots are generated by closing the simple roots under all simple
    reflections and come back sorted by height; the count is checked against
    the classical formula for the series.
    """
    a, d = _cartan_table(series, rank)
    bform = [[d[i] * a[i][j] for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(rank):
            if bform[i][j] != bform[j][i]:
                raise RuntimeError(f"form not symmetric for {series}{rank}")

    simple = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(rank):
                # s_i(root) = root - <pairing with coroot i> alpha_i
                coef = sum(a[i][j] * root[j] for j in range(rank))
                image = list(root)
                image[i] -= coef
                image = tuple(image)
                if all(c >= 0 for c in image) and image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    positive = sorted(seen, key=lambda r: (sum(r), r))
    if len(positive) != _classical_count(series, rank):
        raise RuntimeError(
            f"positive root closure produced {len(positive)} roots for "
            f"{series}{rank}, expected {_classical_count(series, rank)}"
        )

    rho = weight(Fraction(sum(r[k] for r in positive), 2) for k in range(rank))
    # omega_i = d_i B^{-1} e_i, fixed by (omega_i, alpha_j) = d_j delta_ij
    inv = ratmat.minv(ratmat.mat(bform))
    omegas = tuple(weight(Fraction(d[i] * row[i], inv.den) for row in inv.rows)
                   for i in range(rank))
    return RootSystemData(
        series=series,
        rank=rank,
        cartan=tuple(tuple(row) for row in a),
        d=tuple(d),
        bform=tuple(tuple(row) for row in bform),
        positive_roots=tuple(positive),
        heights=tuple(sum(r) for r in positive),
        rho=rho,
        fundamental_weights=omegas,
    )


def coxeter_matrix(rs, pi):
    """Matrix of s_{pi(1)} ... s_{pi(l)} in the simple-root basis.

    Its columns are the integer images s(alpha_k) of ``_coxeter_columns``,
    cross-checked against the triangular split of the Cartan matrix: in the
    basis reordered by pi it is (I + U) + (V - I) with U strictly upper and
    V lower triangular, and s so reordered is (I + U)^{-1} (I - V), which is
    checked without the inverse as the int product (I + U) s = I - V.
    """
    _check_permutation(rs, pi)
    rows = tuple(zip(*_coxeter_columns(rs, pi)))
    a = [[rs.cartan[p - 1][r - 1] for r in pi] for p in pi]
    s = [[rows[p - 1][r - 1] for r in pi] for p in pi]
    for k, row in enumerate(a):
        for i in range(rs.rank):
            lhs = s[k][i] + sum(row[m] * s[m][i] for m in range(k + 1, rs.rank))
            if lhs != (k == i) - (row[i] if k >= i else 0):
                raise RuntimeError(
                    "reflection product disagrees with triangular split")
    return ratmat.Matrix(rows)


def epsilon_matrix(pi):
    """Antisymmetric sign matrix of the permutation: -1 below, +1 above in pi-order."""
    l = len(pi)
    pos = {v: k for k, v in enumerate(pi)}
    eps = [[0] * l for _ in range(l)]
    for i in range(l):
        for j in range(l):
            if i != j:
                eps[i][j] = -1 if pos[i + 1] < pos[j + 1] else 1
    return eps


def _check_permutation(rs, pi):
    if sorted(pi) != list(range(1, rs.rank + 1)):
        raise ValueError(f"pi must be a permutation of 1..{rs.rank}, got {pi!r}")


class CoxeterContext(namedtuple("CoxeterContext", (
        "rs", "pi", "s_matrix", "cayley", "cayley_num", "cayley_den",
        "epsilon", "twist", "coxeter_number"))):
    """Root system together with a chosen Coxeter element s_{pi(1)}...s_{pi(l)}.

    ``cayley_num`` / ``cayley_den`` is the Cayley transform (1+s)/(1-s) on
    simple-root coordinates, as ints over one denominator, and ``cayley``
    its pairing matrix ((1+s)/(1-s) alpha_i, alpha_j).  ``s_matrix``,
    ``cayley`` and ``twist`` are rows of ints."""

    __slots__ = ()

    def cayley_apply(self, lam):
        """The weight (1+s)/(1-s) lam, by int products and one exact
        division per coordinate; ArithmeticError when it leaves the unit
        lattice."""
        return tuple(_divide_exactly(sum(map(mul, row, lam)), self.cayley_den,
                                     "Cayley image coordinate")
                     for row in self.cayley_num)


def _power(m, k):
    """m^k for k >= 1, by repeated squaring."""
    if k == 1:
        return m
    half = _power(ratmat.mmul(m, m), k // 2)
    return ratmat.mmul(half, m) if k % 2 else half


def _has_order(s, h):
    """Whether s has order h >= 2: s^(h/p) != 1 for every prime p dividing
    h, and s^h = 1, which is (s^(h/p))^p for the least such p."""
    one = ratmat.eye(len(s))
    primes = [p for p in range(2, h + 1)
              if not h % p and all(p % q for q in range(2, p))]
    below = [_power(s, h // p) for p in primes]
    return one not in below and _power(below[0], primes[0]) == one


def coxeter_context(rs, pi=None):
    """Build the full context for a Coxeter element, checking every invariant.

    Each is checked by int matrix products: s preserves the form
    (s^T B s = B); 1 - s is invertible, by the one elimination that also
    gives the Cayley transform (1 + s)(1 - s)^{-1}; s has order h, by
    ``_has_order``, the powers of s being counted one by one only to name
    the order when it is wrong; and the Cayley pairing is eps_ij b_ij.

    The stored twist is the triangular particular solution of
    d_j n_ij - d_i n_ji = c_ij given by n_ij = a_ji when i follows j in the
    permutation order and 0 otherwise; it is integer valued.
    """
    if pi is None:
        pi = tuple(range(1, rs.rank + 1))
    pi = tuple(pi)
    l = rs.rank
    s = coxeter_matrix(rs, pi)
    one = ratmat.eye(l)

    b = ratmat.Matrix(rs.bform)
    if ratmat.mmul(ratmat.transpose(s), ratmat.mmul(b, s)) != b:
        raise RuntimeError("Coxeter matrix does not preserve the form")
    try:
        inv = ratmat.minv(ratmat.msub(one, s))
    except ZeroDivisionError:
        raise RuntimeError("1 - s is singular") from None

    h = rs.coxeter_number
    if not _has_order(s, h):
        powers = itertools.accumulate(itertools.repeat(s, h), ratmat.mmul)
        order = next((k for k, p in enumerate(powers, 1) if p == one), None)
        raise RuntimeError(f"Coxeter element order {order} != 2N/l = {h}")

    eps = epsilon_matrix(pi)
    t = ratmat.mmul(ratmat.madd(one, s), inv)
    c = ratmat.mmul(ratmat.transpose(t), b)
    for i in range(l):
        for j in range(l):
            if c.rows[i][j] != eps[i][j] * rs.bform[i][j] * c.den:
                raise RuntimeError(
                    f"Cayley pairing c[{i}][{j}] = {c[i][j]} is not "
                    f"eps*b = {eps[i][j] * rs.bform[i][j]}"
                )

    twist = [[rs.cartan[j][i] if eps[i][j] > 0 else 0 for j in range(l)]
             for i in range(l)]
    for i in range(l):
        for j in range(l):
            if ((rs.d[j] * twist[i][j] - rs.d[i] * twist[j][i]) * c.den
                    != c.rows[i][j]):
                raise RuntimeError("twist does not solve the defining equation")

    return CoxeterContext(
        rs=rs,
        pi=pi,
        s_matrix=s.rows,
        cayley=c.rows,
        cayley_num=t.rows,
        cayley_den=t.den,
        epsilon=tuple(tuple(row) for row in eps),
        twist=tuple(tuple(row) for row in twist),
        coxeter_number=h,
    )


class NormalOrdering(namedtuple("NormalOrdering",
                                ("ordering", "word", "segments"))):
    """Convex ordering of the positive roots adapted to a Coxeter element.

    segments maps each non-simple root beta, in the order of the ordering,
    to (a, b, w): a + b = beta are the ends of its minimal segment, the
    narrowest stretch of the ordering whose ends sum to beta, and
    w = (a + T a, b) in units of 1/EXP_UNIT (T the Cayley transform) is the
    exponent of the q-commutator e_beta = e_a e_b - q^w e_b e_a.
    """

    __slots__ = ()


def _times_reflection(rs, cols, j):
    """The columns of w s_j, given the columns w(alpha_k) of a Weyl group
    element w: w s_j alpha_k = w(alpha_k) - a_jk w(alpha_j)."""
    wj = cols[j]
    return [tuple(x - a * y for x, y in zip(col, wj)) if a else col
            for col, a in zip(cols, rs.cartan[j])]


def _identity_columns(rs):
    return [rs.simple_root(k) for k in range(rs.rank)]


def _coxeter_columns(rs, pi):
    """The int columns s(alpha_k) of s = s_{pi(1)} ... s_{pi(l)}."""
    cols = _identity_columns(rs)
    for i in pi:
        cols = _times_reflection(rs, cols, i - 1)
    return cols


def _segments(ctx, ordering):
    """The segments table of ``NormalOrdering`` from one pass over the pairs
    of roots, or None when the ordering is not convex.

    The ordering is convex when the sum of two of its roots, if it is a
    root, sits strictly between them.  Then the pairs of positions p < r
    whose roots sum to a root gamma are all its two-term decompositions,
    and the minimal segment of gamma is the narrowest of them, the one with
    the smaller p where two are equally narrow.
    """
    index = {root: k for k, root in enumerate(ordering)}
    spans = {}
    for (p, alpha), (r, beta) in itertools.combinations(enumerate(ordering), 2):
        g = index.get(tuple(map(add, alpha, beta)))
        if g is not None:
            if not p < g < r:
                return None
            spans.setdefault(g, []).append((r - p, p, r))
    # (a + T a, b) = a^T (B + C) b for the int Cayley pairing C
    form = [[EXP_UNIT * (x + y) for x, y in zip(rb, rc)]
            for rb, rc in zip(ctx.rs.bform, ctx.cayley)]
    segments = {}
    for g, gamma in enumerate(ordering):
        if sum(gamma) == 1:
            continue
        if g not in spans:
            raise ValueError(f"root {gamma} admits no two-term decomposition")
        _, p, r = min(spans[g])
        a, b = ordering[p], ordering[r]
        segments[gamma] = (a, b, sum(x * sum(map(mul, row, b))
                                     for x, row in zip(a, form) if x))
    return segments


def _simple_order_ok(rs, ordering, pi):
    simple_positions = []
    for want in pi:
        root = rs.simple_root(want - 1)
        simple_positions.append(ordering.index(root))
    return simple_positions == sorted(simple_positions)


def _dfs_word(rs, pi):
    """(word, roots) for a reduced word of the longest Weyl element whose
    roots meet the simple roots in pi order, or None.

    A depth-first search.  With k letters so far it tries the letter
    pi(k mod l + 1) first and then the following ones in the cyclic order
    1, ..., l.  A letter i is kept only when the column w(alpha_i) of the
    word w so far is a positive root, so that the word stays reduced; that
    root is the next one of the ordering, beta = s_{i_1}...s_{i_k} alpha_i.
    A simple root out of pi order is refused, and a dead end backtracks.
    """
    l = rs.rank
    n = rs.n_positive
    simple_rank = {rs.simple_root(i): pos for pos, i in enumerate(p - 1 for p in pi)}

    def extend(cols, word, produced, next_simple):
        if len(word) == n:
            return tuple(word), tuple(produced)
        start = pi[len(word) % l] - 1
        letters = [(start + k) % l for k in range(l)]
        for letter0 in letters:
            root = cols[letter0]
            if not all(v >= 0 for v in root):
                continue
            rank = simple_rank.get(root)
            ns = next_simple
            if rank is not None:
                if rank != next_simple:
                    continue
                ns = next_simple + 1
            res = extend(_times_reflection(rs, cols, letter0),
                         word + [letter0 + 1], produced + [root], ns)
            if res is not None:
                return res
        return None

    return extend(_identity_columns(rs), [], [], 0)


def normal_ordering(ctx):
    """Convex ordering of the positive roots with simple roots in pi order.

    The roots of the reduced word for the longest Weyl element that
    ``_dfs_word`` finds.  The ordering of a reduced word is convex, and the
    pass over pairs of roots that checks it also gives the minimal segment
    of every non-simple root; the simple-root order is checked as well.
    """
    rs = ctx.rs
    pi = ctx.pi
    found = _dfs_word(rs, pi)
    if found is None:
        raise RuntimeError(f"no adapted normal ordering found for {rs.series}{rs.rank}")
    word, ordering = found
    segments = (_segments(ctx, ordering) if _simple_order_ok(rs, ordering, pi)
                else None)
    if segments is None:
        raise RuntimeError("search produced a non-convex or badly ordered word")
    return NormalOrdering(ordering, word, segments)


def coxeter_orbits(ctx):
    """Partition of all roots into orbits of the cyclic group generated by s_pi.

    s acts on int root vectors through its columns ``_coxeter_columns``.
    There are always exactly rank-many orbits, each of size dividing the
    Coxeter number.
    """
    rs = ctx.rs
    rows = tuple(zip(*_coxeter_columns(rs, ctx.pi)))
    all_roots = list(rs.positive_roots) + [
        tuple(-v for v in r) for r in rs.positive_roots
    ]
    remaining = set(all_roots)
    orbits = []
    for seed in all_roots:
        if seed not in remaining:
            continue
        orbit = []
        current = seed
        while True:
            orbit.append(current)
            remaining.discard(current)
            current = tuple(sum(map(mul, row, current)) for row in rows)
            if current == seed:
                break
        orbits.append(tuple(orbit))
    if len(orbits) != rs.rank:
        raise RuntimeError(
            f"expected {rs.rank} Coxeter orbits, found {len(orbits)}"
        )
    return tuple(orbits)
