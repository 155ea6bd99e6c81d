"""Root-system combinatorics: Cartan data, Weyl reflections, Coxeter elements.

Roots are integer coordinate vectors in the simple-root basis, matrices are
exact rationals.  Conventions used throughout the package:

* the Cartan matrix entry a_ij equals alpha_j evaluated on the i-th coroot,
  so the simple reflection acts by s_i(alpha_j) = alpha_j - a_ij alpha_i;
* d_i are the coprime positive integers making b_ij = d_i a_ij symmetric;
* the bilinear form on weight space is (alpha_i, alpha_j) = b_ij.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import ratmat

SUPPORTED_SERIES = ("A", "B", "C", "D", "F", "G")
MAX_RANK = 6


class UnsupportedTypeError(ValueError):
    pass


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


@dataclass(frozen=True)
class RootSystemData:
    """Immutable Cartan datum plus the full list of positive roots."""

    series: str
    rank: int
    cartan: tuple
    d: tuple
    bform: tuple
    positive_roots: tuple
    heights: tuple
    rho: tuple

    @property
    def n_positive(self):
        return len(self.positive_roots)

    @property
    def coxeter_number(self):
        return 2 * self.n_positive // self.rank

    def simple_root(self, i):
        """Coordinate vector of alpha_i (0-based index)."""
        return tuple(1 if k == i else 0 for k in range(self.rank))

    def pair(self, x, y):
        """Bilinear form (x, y) = sum x_i b_ij y_j on coordinate vectors."""
        total = Fraction(0)
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj:
                    total += Fraction(xi) * self.bform[i][j] * yj
        return total

    def module_index(self, name):
        """k for the fundamental module 'Vk' of the module catalogue, which
        covers type A only; ValueError for any other system or name."""
        if self.series != "A":
            raise ValueError("the module catalogue covers type A only")
        if not (name.startswith("V") and name[1:].isdigit()):
            raise ValueError(f"unknown module name {name!r}")
        k = int(name[1:])
        if k < 1 or k > self.rank:
            raise ValueError(f"module index out of range in {name!r}")
        return k

    def fundamental_weight(self, i):
        """omega_i in simple-root coordinates, fixed by (omega_i, alpha_j) = d_j delta_ij."""
        rhs = tuple(Fraction(self.d[i]) if k == i else Fraction(0) for k in range(self.rank))
        sol = ratmat.solve(ratmat.mat(self.bform), rhs)
        if sol is None:
            raise RuntimeError("form matrix is singular")
        return sol


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

    rho = tuple(
        Fraction(sum(r[k] for r in positive), 2) for k in range(rank)
    )
    return RootSystemData(
        series=series,
        rank=rank,
        cartan=tuple(tuple(row) for row in a),
        d=tuple(d),
        bform=tuple(tuple(row) for row in bform),
        positive_roots=tuple(positive),
        heights=tuple(sum(r) for r in positive),
        rho=rho,
    )


def reflection_matrix(rs, i):
    """Matrix of the simple reflection s_i in the simple-root basis."""
    l = rs.rank
    return ratmat.mat(
        [
            [
                (1 if r == j else 0) - (rs.cartan[i][j] if r == i else 0)
                for j in range(l)
            ]
            for r in range(l)
        ]
    )


def _gauss_coxeter(rs, pi):
    """Coxeter matrix assembled from the triangular split of the Cartan matrix.

    In the basis reordered by pi the Cartan matrix splits as
    (I + U) + (V - I) with U strictly upper and V lower triangular, and the
    Coxeter element is (I + U)^{-1} (I - V).
    """
    l = rs.rank
    perm_cartan = [[rs.cartan[pi[k] - 1][pi[i] - 1] for i in range(l)] for k in range(l)]
    u = ratmat.mat(
        [[perm_cartan[k][i] if k < i else 0 for i in range(l)] for k in range(l)]
    )
    v = ratmat.mat(
        [[perm_cartan[k][i] if k >= i else 0 for i in range(l)] for k in range(l)]
    )
    tilde = ratmat.mmul(ratmat.minv(ratmat.madd(ratmat.eye(l), u)),
                        ratmat.msub(ratmat.eye(l), v))
    return ratmat.sparse(l, {(pi[k] - 1, pi[i] - 1): tilde[k][i]
                             for k in range(l) for i in range(l)})


def coxeter_matrix(rs, pi):
    """Matrix of s_{pi(1)} ... s_{pi(l)} in the simple-root basis.

    Computed as the product of reflections and cross-checked against the
    closed form coming from the triangular split of the Cartan matrix.
    """
    _check_permutation(rs, pi)
    # leftmost reflection acts last: s = s_{pi(1)} o ... o s_{pi(l)}
    s = ratmat.eye(rs.rank)
    for i in reversed(pi):
        s = ratmat.mmul(reflection_matrix(rs, i - 1), s)
    gauss = _gauss_coxeter(rs, pi)
    if s != gauss:
        raise RuntimeError("reflection product disagrees with triangular split")
    return s


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


@dataclass(frozen=True)
class CoxeterContext:
    """Root system together with a chosen Coxeter element s_{pi(1)}...s_{pi(l)}.

    ``cayley_transform`` is (1+s)/(1-s) on simple-root coordinates and
    ``cayley`` its pairing matrix ((1+s)/(1-s) alpha_i, alpha_j)."""

    rs: RootSystemData
    pi: tuple
    s_matrix: tuple
    cayley: tuple
    cayley_transform: tuple
    epsilon: tuple
    twist: tuple
    coxeter_number: int


def coxeter_context(rs, pi=None):
    """Build the full context for a Coxeter element, checking every invariant.

    The stored twist is the triangular particular solution of
    d_j n_ij - d_i n_ji = c_ij given by n_ij = a_ji when i follows j in the
    permutation order and 0 otherwise; it is integer valued.
    """
    if pi is None:
        pi = tuple(range(1, rs.rank + 1))
    pi = tuple(pi)
    _check_permutation(rs, pi)
    l = rs.rank
    s = coxeter_matrix(rs, pi)
    one = ratmat.eye(l)

    b = ratmat.mat(rs.bform)
    if ratmat.mmul(ratmat.transpose(s), ratmat.mmul(b, s)) != b:
        raise RuntimeError("Coxeter matrix does not preserve the form")
    if ratmat.det(ratmat.msub(one, s)) == 0:
        raise RuntimeError("1 - s is singular")

    h = rs.coxeter_number
    power = one
    order = None
    for k in range(1, h + 1):
        power = ratmat.mmul(power, s)
        if power == one:
            order = k
            break
    if order != h:
        raise RuntimeError(f"Coxeter element order {order} != 2N/l = {h}")

    eps = epsilon_matrix(pi)
    t = ratmat.mmul(ratmat.madd(one, s), ratmat.minv(ratmat.msub(one, s)))
    c = ratmat.mmul(ratmat.transpose(t), b)
    for i in range(l):
        for j in range(l):
            if c[i][j] != eps[i][j] * rs.bform[i][j]:
                raise RuntimeError(
                    f"Cayley pairing c[{i}][{j}] = {c[i][j]} is not "
                    f"eps*b = {eps[i][j] * rs.bform[i][j]}"
                )

    twist = ratmat.sparse(l, {(i, j): Fraction(rs.cartan[j][i])
                              for i in range(l) for j in range(l)
                              if eps[i][j] > 0})
    for i in range(l):
        for j in range(l):
            if rs.d[j] * twist[i][j] - rs.d[i] * twist[j][i] != c[i][j]:
                raise RuntimeError("twist does not solve the defining equation")

    return CoxeterContext(
        rs=rs,
        pi=pi,
        s_matrix=s,
        cayley=c,
        cayley_transform=t,
        epsilon=tuple(tuple(row) for row in eps),
        twist=tuple(tuple(row) for row in twist),
        coxeter_number=h,
    )


@dataclass(frozen=True)
class NormalOrdering:
    """Convex ordering of the positive roots adapted to a Coxeter element."""

    ordering: tuple
    word: tuple


def _word_roots(rs, word):
    """Roots beta_k = s_{i_1}...s_{i_(k-1)} alpha_{i_k} for a reduced word."""
    l = rs.rank
    m = ratmat.eye(l)
    roots = []
    for letter in word:
        alpha = [Fraction(1) if k == letter - 1 else Fraction(0) for k in range(l)]
        image = ratmat.mvec(m, alpha)
        roots.append(tuple(int(v) for v in image))
        m = ratmat.mmul(m, reflection_matrix(rs, letter - 1))
    return roots


def _greedy_word(rs, pi):
    """Reduced word for the longest element built by cycling through pi.

    Walk the infinite word pi(1), ..., pi(l), pi(1), ... and keep each letter
    that still increases the length; l consecutive skips means the longest
    element was reached early, which would signal a bug upstream.
    """
    l = rs.rank
    n = rs.n_positive
    m = ratmat.eye(l)
    word = []
    cursor = 0
    stalled = 0
    while len(word) < n and stalled < l:
        letter = pi[cursor % l]
        cursor += 1
        alpha = [Fraction(1) if k == letter - 1 else Fraction(0) for k in range(l)]
        image = ratmat.mvec(m, alpha)
        if all(v >= 0 for v in image):
            word.append(letter)
            m = ratmat.mmul(m, reflection_matrix(rs, letter - 1))
            stalled = 0
        else:
            stalled += 1
    return word if len(word) == n else None


def check_convexity(rs, ordering):
    """True when every decomposable root sits strictly between its parts."""
    index = {root: k for k, root in enumerate(ordering)}
    roots = set(ordering)
    for alpha, beta in itertools.combinations(ordering, 2):
        gamma = tuple(x + y for x, y in zip(alpha, beta))
        if gamma in roots:
            lo = min(index[alpha], index[beta])
            hi = max(index[alpha], index[beta])
            if not (lo < index[gamma] < hi):
                return False
    return True


def _simple_order_ok(rs, ordering, pi):
    simple_positions = []
    for want in pi:
        root = rs.simple_root(want - 1)
        simple_positions.append(ordering.index(root))
    return simple_positions == sorted(simple_positions)


def _dfs_word(rs, pi):
    """Backtracking search for a reduced word whose ordering is pi-adapted."""
    l = rs.rank
    n = rs.n_positive
    simple_rank = {rs.simple_root(i): pos for pos, i in enumerate(p - 1 for p in pi)}
    refl = [reflection_matrix(rs, i) for i in range(l)]

    def extend(m, word, produced, next_simple):
        if len(word) == n:
            return word
        start = pi[len(word) % l] - 1
        letters = [(start + k) % l for k in range(l)]
        for letter0 in letters:
            alpha = [Fraction(1) if k == letter0 else Fraction(0) for k in range(l)]
            image = ratmat.mvec(m, alpha)
            if not all(v >= 0 for v in image):
                continue
            root = tuple(int(v) for v in image)
            rank = simple_rank.get(root)
            ns = next_simple
            if rank is not None:
                if rank != next_simple:
                    continue
                ns = next_simple + 1
            res = extend(ratmat.mmul(m, refl[letter0]), word + [letter0 + 1],
                         produced + [root], ns)
            if res is not None:
                return res
        return None

    return extend(ratmat.eye(l), [], [], 0)


def normal_ordering(ctx):
    """Convex ordering of the positive roots with simple roots in pi order.

    Built from a reduced word for the longest Weyl element that starts with
    the letters pi(1), ..., pi(l); the cheap cyclic construction is tried
    first and a backtracking search covers any type it misses.
    """
    rs = ctx.rs
    pi = ctx.pi
    word = _greedy_word(rs, pi)
    if word is not None:
        ordering = tuple(_word_roots(rs, word))
        if check_convexity(rs, ordering) and _simple_order_ok(rs, ordering, pi):
            return NormalOrdering(ordering=ordering, word=tuple(word))
    word = _dfs_word(rs, pi)
    if word is None:
        raise RuntimeError(f"no adapted normal ordering found for {rs.series}{rs.rank}")
    ordering = tuple(_word_roots(rs, word))
    if not check_convexity(rs, ordering) or not _simple_order_ok(rs, ordering, pi):
        raise RuntimeError("search produced a non-convex or badly ordered word")
    return NormalOrdering(ordering=ordering, word=tuple(word))


def coxeter_orbits(ctx):
    """Partition of all roots into orbits of the cyclic group generated by s_pi.

    There are always exactly rank-many orbits, each of size dividing the
    Coxeter number.
    """
    rs = ctx.rs
    s = ratmat.mat(ctx.s_matrix)
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
            image = ratmat.mvec(s, [Fraction(v) for v in current])
            current = tuple(int(v) for v in image)
            if current == seed:
                break
        orbits.append(tuple(orbit))
    if len(orbits) != rs.rank:
        raise RuntimeError(
            f"expected {rs.rank} Coxeter orbits, found {len(orbits)}"
        )
    return tuple(orbits)
