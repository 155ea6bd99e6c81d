import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (commutator_exponent, fraction_pair, minimal_segment,
                     mvec, reflection_matrix, weight_coords)
from qwhit import ratmat, rootsys
from qwhit.qarith import EXP_UNIT

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("C", 2), ("C", 3), ("C", 4), ("C", 5), ("C", 6),
    ("D", 3), ("D", 4), ("D", 5), ("D", 6),
    ("F", 4), ("G", 2),
]

COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "F": lambda l: 24,
    "G": lambda l: 6,
}


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_cartan_datum_invariants(series, rank):
    rs = rootsys.build_root_system(series, rank)
    a = rs.cartan
    for i in range(rank):
        assert a[i][i] == 2
        for j in range(rank):
            if i != j:
                assert a[i][j] <= 0
            assert rs.bform[i][j] == rs.d[i] * a[i][j]
            assert rs.bform[i][j] == rs.bform[j][i]
    assert math.gcd(*rs.d) == 1


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_positive_root_closure(series, rank):
    rs = rootsys.build_root_system(series, rank)
    assert rs.n_positive == COUNTS[series](rank)
    assert list(rs.heights) == sorted(rs.heights)
    roots = set(rs.positive_roots)
    for i in range(rank):
        assert rs.simple_root(i) in roots
    for r in rs.positive_roots:
        assert all(c >= 0 for c in r)
    # closure under simple reflections, up to sign
    for r in rs.positive_roots:
        for i in range(rank):
            coef = sum(rs.cartan[i][j] * r[j] for j in range(rank))
            img = list(r)
            img[i] -= coef
            img = tuple(img)
            assert img in roots or tuple(-v for v in img) in roots


def test_unsupported_types_raise():
    for series, rank in [("A", 7), ("A", 0), ("B", 1), ("E", 6), ("G", 3), ("F", 3)]:
        with pytest.raises(rootsys.UnsupportedTypeError):
            rootsys.build_root_system(series, rank)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_reflections_are_involutions_preserving_the_form(series, rank):
    rs = rootsys.build_root_system(series, rank)
    b = ratmat.mat(rs.bform)
    for i in range(rank):
        s = reflection_matrix(rs, i)
        assert ratmat.mmul(s, s) == ratmat.eye(rank)
        assert ratmat.mmul(ratmat.transpose(s), ratmat.mmul(b, s)) == b


def sample_permutations(rank, rng, count=4):
    if rank <= 3:
        return list(itertools.permutations(range(1, rank + 1)))
    perms = {tuple(range(1, rank + 1))}
    while len(perms) < count:
        p = list(range(1, rank + 1))
        rng.shuffle(p)
        perms.add(tuple(p))
    return sorted(perms)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_coxeter_element_order_and_cayley_identity(series, rank):
    rng = random.Random(hash((series, rank)) & 0xFFFF)
    rs = rootsys.build_root_system(series, rank)
    for pi in sample_permutations(rank, rng):
        ctx = rootsys.coxeter_context(rs, pi)
        h = ctx.coxeter_number
        assert h == 2 * rs.n_positive // rank
        s = ratmat.mat(ctx.s_matrix)
        power = s
        for _ in range(h - 1):
            assert power != ratmat.eye(rank)
            power = ratmat.mmul(power, s)
        assert power == ratmat.eye(rank)
        assert ratmat.det(ratmat.msub(ratmat.eye(rank), s)) != 0
        for i in range(rank):
            for j in range(rank):
                assert ctx.cayley[i][j] == ctx.epsilon[i][j] * rs.bform[i][j]
                assert ctx.epsilon[i][j] == -ctx.epsilon[j][i]
        # the stored twist solves the defining equation
        for i in range(rank):
            for j in range(rank):
                lhs = rs.d[j] * ctx.twist[i][j] - rs.d[i] * ctx.twist[j][i]
                assert lhs == ctx.cayley[i][j]


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_integer_context_data_is_stored_as_ints(series, rank):
    # s, the Cayley pairing and the twist are integer matrices, and they are
    # kept as int rows rather than as rows of Fractions
    rng = random.Random(hash((series, rank)) & 0xFFFF)
    rs = rootsys.build_root_system(series, rank)
    for pi in sample_permutations(rank, rng):
        ctx = rootsys.coxeter_context(rs, pi)
        for rows in (ctx.s_matrix, ctx.cayley, ctx.twist):
            assert len(rows) == rank
            assert all(len(row) == rank and all(type(x) is int for x in row)
                       for row in rows)


def test_a2_cayley_matches_hand_computation():
    rs = rootsys.build_root_system("A", 2)
    ctx = rootsys.coxeter_context(rs)
    assert ctx.cayley == ((0, 1), (-1, 0))
    assert ctx.epsilon == ((0, -1), (1, 0))


def test_b2_cayley_entries_are_plus_minus_b12():
    rs = rootsys.build_root_system("B", 2)
    ctx = rootsys.coxeter_context(rs)
    assert ctx.cayley[0][1] == -rs.bform[0][1]
    assert ctx.cayley[1][0] == rs.bform[0][1]


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_normal_ordering_is_convex_and_pi_adapted(series, rank):
    rng = random.Random(1000 + rank)
    rs = rootsys.build_root_system(series, rank)
    for pi in sample_permutations(rank, rng, count=3):
        ctx = rootsys.coxeter_context(rs, pi)
        no = rootsys.normal_ordering(ctx)
        assert sorted(no.ordering) == sorted(rs.positive_roots)
        assert len(no.word) == rs.n_positive
        index = {root: k for k, root in enumerate(no.ordering)}
        roots = set(no.ordering)
        for alpha, beta in itertools.combinations(no.ordering, 2):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if gamma in roots:
                lo, hi = sorted((index[alpha], index[beta]))
                assert lo < index[gamma] < hi
        simple_positions = [index[rs.simple_root(p - 1)] for p in pi]
        assert simple_positions == sorted(simple_positions)
        assert no.ordering[0] == rs.simple_root(pi[0] - 1)


def test_a2_ordering_is_the_unique_adapted_one():
    rs = rootsys.build_root_system("A", 2)
    ctx = rootsys.coxeter_context(rs)
    no = rootsys.normal_ordering(ctx)
    assert no.ordering == ((1, 0), (1, 1), (0, 1))
    # brute force: of all 6 orderings only 2 are convex, one per simple order
    convex = [
        perm
        for perm in itertools.permutations(rs.positive_roots)
        if rootsys._segments(ctx, perm) is not None
    ]
    assert len(convex) == 2
    assert no.ordering in convex


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_segments_table_matches_the_per_root_search(series, rank):
    # every ordering up to rank 4, three sampled ones at ranks 5 and 6
    rs = rootsys.build_root_system(series, rank)
    if rank <= 4:
        pis = list(itertools.permutations(range(1, rank + 1)))
    else:
        pis = sample_permutations(rank, random.Random(2000 + rank), count=3)
    for pi in pis:
        ctx = rootsys.coxeter_context(rs, pi)
        no = rootsys.normal_ordering(ctx)
        want = {}
        for g, gamma in enumerate(no.ordering):
            if sum(gamma) > 1:
                p, r = minimal_segment(no.ordering, g)
                a, b = no.ordering[p], no.ordering[r]
                want[gamma] = (a, b, commutator_exponent(ctx, a, b))
        assert no.segments == want
        assert list(no.segments) == list(want)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_orderings_and_orbits_match_the_reflection_matrix_products(series,
                                                                   rank):
    # the integer reflections behind normal_ordering and coxeter_orbits
    # against products of Fraction reflection matrices: every ordering up to
    # rank 3; above it the default, the reversed one and (2,1,3,...), for
    # which the cyclic word pi pi pi ... is no pi-adapted one except in D4
    rs = rootsys.build_root_system(series, rank)
    if rank <= 3:
        pis = list(itertools.permutations(range(1, rank + 1)))
    else:
        pis = [tuple(range(1, rank + 1)), tuple(range(rank, 0, -1)),
               (2, 1) + tuple(range(3, rank + 1))]
    refl = [reflection_matrix(rs, i) for i in range(rank)]
    for pi in pis:
        ctx = rootsys.coxeter_context(rs, pi)
        no = rootsys.normal_ordering(ctx)
        # beta_k = s_{i_1} ... s_{i_(k-1)} alpha_{i_k}
        m = ratmat.eye(rank)
        for letter, root in zip(no.word, no.ordering):
            assert mvec(m, rs.simple_root(letter - 1)) == root
            m = ratmat.mmul(m, refl[letter - 1])
        # the word is one of the longest element: every positive root goes
        # negative
        assert all(all(v <= 0 for v in mvec(m, r))
                   for r in rs.positive_roots)
        s = ratmat.eye(rank)
        for i in pi:
            s = ratmat.mmul(s, refl[i - 1])
        assert ratmat.mat(ctx.s_matrix) == s
        for orbit in rootsys.coxeter_orbits(ctx):
            for k, root in enumerate(orbit):
                assert mvec(s, root) == orbit[(k + 1) % len(orbit)]


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_coxeter_orbits_partition_and_counts(series, rank):
    rs = rootsys.build_root_system(series, rank)
    ctx = rootsys.coxeter_context(rs)
    orbits = rootsys.coxeter_orbits(ctx)
    assert len(orbits) == rank
    seen = [r for orbit in orbits for r in orbit]
    assert len(seen) == 2 * rs.n_positive
    assert len(set(seen)) == len(seen)
    positive = set(rs.positive_roots)
    for orbit in orbits:
        if series == "A":
            # odd Coxeter numbers make balanced orbits impossible here
            assert len(orbit) == ctx.coxeter_number
        else:
            npos = sum(1 for r in orbit if r in positive)
            assert npos * 2 == len(orbit)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_rho_and_fundamental_weights(series, rank):
    rs = rootsys.build_root_system(series, rank)
    for i in range(rank):
        omega = rs.fundamental_weights[i]
        for j in range(rank):
            want = rs.d[j] if i == j else 0
            assert fraction_pair(rs, weight_coords(omega),
                                 rs.simple_root(j)) == want
            assert rs.pair(omega, rs.simple_root(j)) == want * EXP_UNIT
    for j in range(rank):
        assert rs.pair(rs.rho, rs.simple_root(j)) == rs.d[j] * EXP_UNIT
    half_sum = tuple(
        Fraction(sum(r[k] for r in rs.positive_roots), 2) for k in range(rank)
    )
    assert weight_coords(rs.rho) == half_sum
    assert rs.rho == rootsys.weight(half_sum)


def test_integer_pair_matches_the_fraction_form():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = [rootsys.build_root_system(*t) for t in ALL_TYPES]
    assert max(rs.rank for rs in systems) == rootsys.MAX_RANK
    # coordinates over divisors of EXP_UNIT, so that two weights may or may
    # not pair into (1/EXP_UNIT)Z
    coord = st.builds(Fraction, st.integers(-40, 40),
                      st.sampled_from((1, 2, 3, 4, 7, 12, 60, 420, EXP_UNIT)))

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rs = data.draw(st.sampled_from(systems))
        x, y = (data.draw(st.tuples(*[coord] * rs.rank)) for _ in range(2))
        root = data.draw(st.tuples(*[st.integers(-3, 3)] * rs.rank))
        wx, wy = rootsys.weight(x), rootsys.weight(y)
        assert weight_coords(wx) == x
        # a weight against an integer vector: a q-exponent in units
        assert rs.pair(wx, root) == fraction_pair(rs, x, root) * EXP_UNIT
        assert rs.pair(root, wx) == rs.pair(wx, root)
        want = fraction_pair(rs, x, y) * EXP_UNIT
        assert rs.pair(wx, wy) == want * EXP_UNIT
        if want.denominator == 1:
            assert rs.pair_weights(wx, wy) == want
        else:
            with pytest.raises(ArithmeticError):
                rs.pair_weights(wx, wy)

    check()


def test_a_weight_outside_the_unit_lattice_raises():
    rs = rootsys.build_root_system("A", 2)
    with pytest.raises(ArithmeticError):
        rootsys.weight((Fraction(1, 7 * EXP_UNIT), 0))
    tiny = (1, 0)  # alpha_1 / EXP_UNIT
    with pytest.raises(ArithmeticError):
        rs.pair_weights(tiny, tiny)
    with pytest.raises(ArithmeticError):
        rootsys.coxeter_context(rs).cayley_apply(tiny)


# ---------------------------------------------------------------------------
# the guards of coxeter_context, each made to fire by a wrong s

def _context_with_s(monkeypatch, rs, rows, pi=None):
    """coxeter_context(rs, pi) with coxeter_matrix returning the int rows."""
    monkeypatch.setattr(rootsys, "coxeter_matrix",
                        lambda rs, pi: ratmat.Matrix(rows))
    return rootsys.coxeter_context(rs, pi)


def test_a_wrong_reflection_product_trips_the_triangular_split(monkeypatch):
    rs = rootsys.build_root_system("A", 2)
    reversed_columns = rootsys._coxeter_columns(rs, (2, 1))
    monkeypatch.setattr(rootsys, "_coxeter_columns",
                        lambda rs, pi: reversed_columns)
    with pytest.raises(RuntimeError,
                       match="^reflection product disagrees with triangular "
                             "split$"):
        rootsys.coxeter_context(rs, (1, 2))


def test_an_s_that_scales_the_form_is_refused(monkeypatch):
    rs = rootsys.build_root_system("A", 2)
    with pytest.raises(RuntimeError,
                       match="^Coxeter matrix does not preserve the form$"):
        _context_with_s(monkeypatch, rs, ((2, 0), (0, 2)))


@pytest.mark.parametrize("series,rank,i", [("A", 1, None), ("A", 3, None),
                                           ("B", 2, 0), ("G", 2, 1)])
def test_an_s_with_a_fixed_vector_is_refused(monkeypatch, series, rank, i):
    # the identity, or a simple reflection: it fixes the roots orthogonal
    # to alpha_i, so 1 - s is singular
    rs = rootsys.build_root_system(series, rank)
    s = ratmat.eye(rank) if i is None else reflection_matrix(rs, i)
    with pytest.raises(RuntimeError, match="^1 - s is singular$"):
        _context_with_s(monkeypatch, rs, s.rows)


def _negated(rows):
    return tuple(tuple(-x for x in row) for row in rows)


def _squared(rows):
    return ratmat.mmul(ratmat.Matrix(rows), ratmat.Matrix(rows)).rows


def _cubed(rows):
    return ratmat.mmul(ratmat.Matrix(_squared(rows)), ratmat.Matrix(rows)).rows


@pytest.mark.parametrize("series,rank,make,order", [
    # -1 has order 2 below every Coxeter number
    ("A", 3, lambda ctx: _negated(ratmat.eye(3).rows), 2),
    ("G", 2, lambda ctx: _negated(ratmat.eye(2).rows), 2),
    # s^2 for G2 has order 3 = h/2
    ("G", 2, lambda ctx: _squared(ctx.s_matrix), 3),
    # -s for A2 has order 6 > h = 3, so no power up to h is 1
    ("A", 2, lambda ctx: _negated(ctx.s_matrix), None),
    # s^2 and s^3 for F4 (h = 12) have orders 6 and 4
    ("F", 4, lambda ctx: _squared(ctx.s_matrix), 6),
    ("F", 4, lambda ctx: _cubed(ctx.s_matrix), 4),
])
def test_an_s_of_the_wrong_order_is_refused_naming_its_order(
        monkeypatch, series, rank, make, order):
    rs = rootsys.build_root_system(series, rank)
    rows = make(rootsys.coxeter_context(rs))
    h = rs.coxeter_number
    with pytest.raises(RuntimeError, match=(
            rf"^Coxeter element order {order} != 2N/l = {h}$")):
        _context_with_s(monkeypatch, rs, rows)


def test_the_coxeter_element_of_another_ordering_trips_the_cayley_pairing(
        monkeypatch):
    # s for pi = (2, 1) against the epsilon of pi = (1, 2): the pairing
    # comes out as -eps * b
    rs = rootsys.build_root_system("A", 2)
    rows = rootsys.coxeter_context(rs, (2, 1)).s_matrix
    with pytest.raises(RuntimeError, match=(
            r"^Cayley pairing c\[0\]\[1\] = -1 is not eps\*b = 1$")):
        _context_with_s(monkeypatch, rs, rows, (1, 2))


def test_symmetrizers_that_do_not_match_the_form_trip_the_twist():
    # the twist equation reads d, the checks before it read only the form
    rs = rootsys.build_root_system("A", 2)._replace(d=(2, 2))
    with pytest.raises(RuntimeError,
                       match="^twist does not solve the defining equation$"):
        rootsys.coxeter_context(rs)
