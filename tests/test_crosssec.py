import math
import random
from fractions import Fraction

import pytest

from oracles import poly_discriminant, slice_point
from qwhit import crosssec
from qwhit.crosssec import (
    GStarElement,
    bruhat_cell_test,
    build_u,
    cell_witness,
    coxeter_rep,
    cross_section,
    eq_character_report,
    fundamental_characters,
    gstar_factorize,
    is_lower_triangular,
    is_slice_point,
    is_upper_triangular,
    kostant_section,
    mcybe_check,
    mu_inverse_point,
    q_map,
    rmatrix_endo,
    shift_matrix,
    slice_params,
)
from qwhit.ratmat import (charpoly, det, eye, madd, mat, minv, mmul, msub,
                          rank)

F = Fraction


def is_unitriangular_upper(m):
    return is_upper_triangular(m) and all(m[i][i] == 1 for i in range(len(m)))


def rnd_frac(rng, lo=-4, hi=4, den=3):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def rnd_unitriangular(rng, n, upper=True):
    m = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if upper:
                m[i][j] = rnd_frac(rng)
            else:
                m[j][i] = rnd_frac(rng)
    return mat(m)


def rnd_cell_element(rng, n):
    s = coxeter_rep(n)
    return mmul(mmul(rnd_unitriangular(rng, n), s), rnd_unitriangular(rng, n))


def rnd_traceless(rng, n):
    m = [[rnd_frac(rng) for _ in range(n)] for _ in range(n)]
    m[n - 1][n - 1] -= sum(m[i][i] for i in range(n))
    return mat(m)


def rnd_torus_diag(rng, n):
    entries = [rnd_frac(rng, 1, 5, 3) for _ in range(n - 1)]
    prod = F(1)
    for x in entries:
        prod *= x
    entries.append(1 / prod)
    return entries


def sl_basis(n):
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = [[F(0)] * n for _ in range(n)]
                e[i][j] = F(1)
                out.append(mat(e))
    for i in range(n - 1):
        e = [[F(0)] * n for _ in range(n)]
        e[i][i] = F(1)
        e[i + 1][i + 1] = F(-1)
        out.append(mat(e))
    return out


def plus(a, b):
    return mat([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


# ---------------------------------------------------------------------------
# Coxeter representative and N_+'


def test_coxeter_rep_sl2():
    assert coxeter_rep(2) == mat([[0, -1], [1, 0]])


@pytest.mark.parametrize("n", range(2, 7))
def test_coxeter_rep_signed_cycle(n):
    s = coxeter_rep(n)
    assert det(s) == 1
    for j in range(n - 1):
        assert all(s[i][j] == (1 if i == j + 1 else 0) for i in range(n))
    assert all(s[i][n - 1] == ((-1) ** (n - 1) if i == 0 else 0)
               for i in range(n))


@pytest.mark.parametrize("n", range(2, 7))
def test_coxeter_rep_power_is_central(n):
    s = coxeter_rep(n)
    p = eye(n)
    for _ in range(n):
        p = mmul(p, s)
    sign = F((-1) ** (n - 1))
    assert p == mat([[sign if i == j else 0 for j in range(n)]
                     for i in range(n)])


def test_coxeter_rep_needs_rank():
    with pytest.raises(ValueError):
        coxeter_rep(1)


def nplus_prime_point(params):
    """v = slice_point(params) s^-1, the N_+' factor of a slice point."""
    return mmul(slice_point(params), minv(coxeter_rep(len(params) + 1)))


def nplus_prime_directions(n):
    """v - 1 for the slice points with one unit parameter each."""
    return [msub(nplus_prime_point([F(k == j) for j in range(n - 1)]), eye(n))
            for k in range(n - 1)]


def test_nplus_prime_sl2_is_whole_group():
    assert nplus_prime_directions(2) == [mat([[0, 1], [0, 0]])]
    # every upper unitriangular 2x2 matrix times s is a slice point
    for x in (F(-3), F(0), F(2, 5)):
        assert is_slice_point(mmul(mat([[1, x], [0, 1]]), coxeter_rep(2)))


@pytest.mark.parametrize("n", range(2, 7))
def test_nplus_prime_dimension_and_defining_condition(n):
    # v = slice_point(p) s^-1 lies in N_+' = {v in N_+ : s^-1 v s lower
    # triangular}, v - 1 is supported on the first row, and the slice
    # has dimension n - 1
    directions = nplus_prime_directions(n)
    assert len(directions) == n - 1
    assert rank(mat([[x for row in e for x in row] for e in directions])) == n - 1
    rng = random.Random(300 + n)
    s = coxeter_rep(n)
    sinv = minv(s)
    for _ in range(10):
        v = nplus_prime_point([rnd_frac(rng) for _ in range(n - 1)])
        assert is_unitriangular_upper(v)
        assert all(v[i][j] == (i == j) for i in range(1, n) for j in range(n))
        assert is_lower_triangular(mmul(mmul(sinv, v), s))


def test_nplus_prime_directions_commute():
    rng = random.Random(17)
    for n in (3, 4, 5):
        directions = nplus_prime_directions(n)
        for a in directions:
            for b in directions:
                assert mmul(a, b) == mmul(b, a)
        v, w = (nplus_prime_point([rnd_frac(rng) for _ in range(n - 1)])
                for _ in range(2))
        assert mmul(v, w) == mmul(w, v)


def test_nplus_prime_sl3_first_row():
    positions = [
        [(i, j) for i in range(3) for j in range(3) if e[i][j] != 0]
        for e in nplus_prime_directions(3)
    ]
    assert positions == [[(0, 1)], [(0, 2)]]


# ---------------------------------------------------------------------------
# cell membership


def test_cell_contains_representative():
    for n in (2, 3, 4):
        s = coxeter_rep(n)
        a, b = cell_witness(s, coxeter_rep(n))
        assert a == eye(n) and b == eye(n)


def test_cell_excludes_identity():
    for n in (2, 3, 4):
        assert not bruhat_cell_test(eye(n))


def test_cell_contains_sl2_lower_unipotent():
    m = mat([[1, 0], [1, 1]])
    assert bruhat_cell_test(m)
    a, b = cell_witness(m, coxeter_rep(2))
    assert a == mat([[1, 1], [0, 1]]) and b == mat([[1, 1], [0, 1]])


def test_cell_witness_reconstructs_random_members():
    rng = random.Random(11)
    for n in (2, 3, 4):
        s = coxeter_rep(n)
        for _ in range(25):
            m = rnd_cell_element(rng, n)
            a, b = cell_witness(m, s)
            assert is_unitriangular_upper(a)
            assert is_unitriangular_upper(b)
            assert mmul(mmul(a, s), b) == m


def test_cell_excludes_scaled_subdiagonal():
    assert not bruhat_cell_test(mat([[1, 0], [5, 1]]))


def test_cell_test_with_representative_override():
    # rescaling the representative rescales the cell conditions
    m = mat([[1, 0], [5, 1]])
    s5 = mat([[0, F(-1, 5)], [5, 0]])
    a, b = cell_witness(m, s_rep=s5)
    assert mmul(mmul(a, s5), b) == m
    assert cell_witness(coxeter_rep(2), s_rep=s5) is None


# Each way of drawing a matrix, with the verdicts it must produce: members
# stay in the cell, a nonzero entry below the subdiagonal always leaves it,
# and the other perturbations land on both sides.
CELL_DRAWS = {"member": {True}, "subdiagonal": {True, False},
              "torus": {True, False}, "determinant": {True, False},
              "below": {False}, "q_map": {True, False}}


@pytest.mark.parametrize("kind", CELL_DRAWS)
def test_shape_cell_test_agrees_with_the_linear_solve(kind):
    # the O(n^2) shape-and-determinant test against cell_witness
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fracs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    nonzero = fracs.filter(bool)
    seen = set()

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(3 if kind == "below" else 2, 6))

        def unitriangular():
            return mat([[1 if i == j else data.draw(fracs) if j > i else 0
                         for j in range(n)] for i in range(n)])

        def torus():
            entries = [data.draw(st.builds(F, st.integers(1, 5),
                                           st.integers(1, 3)))
                       for _ in range(n - 1)]
            return entries + [1 / math.prod(entries)]

        if kind == "q_map":
            # q_map lands in this cell only when every c_i is 1/2
            c = [F(1, 2)] * (n - 1)
            if data.draw(st.booleans()):
                c[data.draw(st.integers(0, n - 2))] = data.draw(nonzero)
            m = q_map(mu_inverse_point(torus(), unitriangular(), c))
        else:
            rows = [list(r) for r in
                    mmul(mmul(unitriangular(), coxeter_rep(n)),
                         unitriangular())]
            if kind == "subdiagonal":
                i = data.draw(st.integers(1, n - 1))
                rows[i][i - 1] = data.draw(nonzero)
            elif kind == "torus":
                # conjugating by a torus element keeps det = 1 and the
                # Hessenberg shape but rescales the subdiagonal
                t = torus()
                rows = [[x * t[i] / t[j] for j, x in enumerate(row)]
                        for i, row in enumerate(rows)]
            elif kind == "determinant":
                scale = data.draw(st.sampled_from((F(1), F(-1), F(2, 3))))
                rows[0] = [x * scale for x in rows[0]]
            elif kind == "below":
                # an entry below the subdiagonal, with the corner entry,
                # on which det depends linearly, re-solved for det = 1
                i = data.draw(st.integers(2, n - 1))
                rows[i][data.draw(st.integers(0, i - 2))] = data.draw(nonzero)
                rows[0][n - 1] = F(0)
                base = det(mat(rows))
                rows[0][n - 1] = F(1)
                if det(mat(rows)) != base:
                    rows[0][n - 1] = (1 - base) / (det(mat(rows)) - base)
            m = mat(rows)
        verdict = bruhat_cell_test(m)
        assert verdict == (cell_witness(m, coxeter_rep(n)) is not None)
        seen.add(verdict)

    check()
    assert seen == CELL_DRAWS[kind]


def test_cell_test_needs_n_at_least_2():
    with pytest.raises(ValueError, match="need n >= 2"):
        bruhat_cell_test(mat([[1]]))


# ---------------------------------------------------------------------------
# the cross-section sweep


def test_cross_section_sl2_example():
    v = mat([[1, 1], [0, 1]])
    lower = mmul(mmul(v, coxeter_rep(2)), v)
    assert lower == mat([[1, 0], [1, 1]])
    conj, point = cross_section(lower)
    assert conj == mat([[1, 1], [0, 1]])
    assert point == mat([[2, -1], [1, 0]])


def test_is_slice_point_matches_the_rebuilt_slice_point():
    # the shape test against rebuilding the point from its first row, on
    # slice points and on matrices one entry off them
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.builds(F, st.integers(-3, 3), st.integers(1, 3))

    @hypothesis.settings(max_examples=80, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 5))
        rows = [list(row) for row in
                slice_point([data.draw(entry) for _ in range(n - 1)])]
        free = True
        if data.draw(st.booleans()):
            i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
            rows[i][j] += data.draw(st.sampled_from([F(-1), F(1, 2), F(2)]))
            free = i == 0 and j < n - 1
        m = mat(rows)
        rebuilt = slice_point([m[0][j] - coxeter_rep(n)[0][j]
                               for j in range(n - 1)])
        assert is_slice_point(m) == (m == rebuilt) == free

    check()


def test_cross_section_fixes_slice_points():
    rng = random.Random(12)
    for n in (2, 3, 4):
        point = slice_point([rnd_frac(rng) for _ in range(n - 1)])
        conj, out = cross_section(point)
        assert conj == eye(n)
        assert out == point


def test_cross_section_rejects_outside_cell():
    with pytest.raises(ValueError, match=r"not in N_\+ s N_\+"):
        cross_section(eye(3))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_cross_section_random_members(n):
    rng = random.Random(100 + n)
    for _ in range(50):
        m = rnd_cell_element(rng, n)
        conj, point = cross_section(m)
        assert is_unitriangular_upper(conj)
        assert is_slice_point(point)
        assert mmul(mmul(conj, m), minv(conj)) == point
        assert charpoly(m) == charpoly(point)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_cross_section_double_solve_agreement(n):
    rng = random.Random(200 + n)
    for _ in range(50):
        m = rnd_cell_element(rng, n)
        conj, point = cross_section(m)
        g = rnd_unitriangular(rng, n)
        conj2, point2 = cross_section(mmul(mmul(g, m), minv(g)))
        assert point2 == point
        assert conj2 == mmul(conj, minv(g))


def test_sweep_leaves_its_input_untouched():
    rng = random.Random(14)
    m = rnd_cell_element(rng, 5)
    conj, point = crosssec._sweep_to_first_row(m)
    assert m == rnd_cell_element(random.Random(14), 5)
    assert (conj, point) == cross_section(m)


@pytest.mark.parametrize("rows", [
    [[1, 2], [Fraction(3, 2), 1]],
    [[1, 2, 0], [Fraction(3, 2), 1, 1], [0, 1, Fraction(1, 2)]],
    [[1, 2, 0], [1, 1, 1], [Fraction(1, 2), 1, Fraction(1, 2)]],
])
def test_sweep_refuses_an_input_without_unit_subdiagonal(rows):
    # the sweep's int form is exact only on a unit subdiagonal with zeros
    # below it; any other input is refused, never floored
    with pytest.raises(AssertionError, match="unit subdiagonal lost"):
        crosssec._sweep_to_first_row(mat(rows))


def test_cross_section_refuses_a_conjugator_that_is_not_unitriangular(
        monkeypatch):
    # 2 conj still intertwines m and the slice point; only the unitriangular
    # check tells it apart
    sweep = crosssec._sweep_to_first_row

    def doubled(m):
        conj, point = sweep(m)
        return madd(conj, conj), point

    monkeypatch.setattr(crosssec, "_sweep_to_first_row", doubled)
    with pytest.raises(AssertionError, match="conjugation identity lost"):
        cross_section(rnd_cell_element(random.Random(15), 4))


def test_cross_section_sl2_closed_form_oracle():
    # for L = [[a, ad-1], [1, d]] the one unknown in the conjugator solves
    # to d, so the slice point is [[a+d, -1], [1, 0]]
    rng = random.Random(13)
    for _ in range(20):
        a = rnd_frac(rng)
        d = rnd_frac(rng)
        lmat = mat([[a, a * d - 1], [1, d]])
        conj, point = cross_section(lmat)
        assert conj == mat([[1, d], [0, 1]])
        assert point == mat([[a + d, -1], [1, 0]])


def test_slice_params_round_trip():
    params = (F(3), F(-1, 2), F(7, 3))
    assert slice_params(slice_point(params)) == params
    with pytest.raises(ValueError):
        slice_params(eye(4))


# ---------------------------------------------------------------------------
# the element u


def test_build_u_sl2_unit():
    u = build_u([F(1, 2)])
    assert u == mat([[1, 0], [1, 1]])
    assert bruhat_cell_test(u)


def test_build_u_sl2_rescaled_leaves_cell():
    u = build_u([F(5, 2)])
    assert u == mat([[1, 0], [5, 1]])
    assert cell_witness(u, coxeter_rep(2)) is None


def test_build_u_sl3_valid_coordinates_exist():
    hits = []
    for c1 in (F(1, 2), F(1), F(-1, 2)):
        for c2 in (F(1, 2), F(1), F(-1, 2)):
            if bruhat_cell_test(build_u([c1, c2])):
                hits.append((c1, c2))
    assert (F(1, 2), F(1, 2)) in hits


def test_build_u_is_bidiagonal():
    u = build_u([F(1, 2), F(3), F(-2)])
    assert u == mat([
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 6, 1, 0],
        [0, 0, -4, 1],
    ])


def test_build_u_validation():
    with pytest.raises(ValueError):
        build_u([])
    with pytest.raises(ValueError):
        build_u([F(1), F(0)])


# ---------------------------------------------------------------------------
# dual-group factorization and the q-map


def test_gstar_trivial_pair():
    el = gstar_factorize(eye(3), eye(3))
    assert isinstance(el, GStarElement)
    assert q_map(el) == eye(3)
    assert el.n_minus == eye(3)


def test_gstar_rejects_wrong_triangularity():
    lower = mat([[1, 0], [1, 1]])
    upper = mat([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        gstar_factorize(lower, lower)
    with pytest.raises(ValueError):
        gstar_factorize(upper, upper)


def test_gstar_rejects_incompatible_torus():
    l_plus = mat([[2, 0], [0, F(1, 2)]])
    l_minus = mat([[2, 0], [0, F(1, 2)]])
    # s swaps the diagonal, so the compatible partner of diag(2, 1/2)
    # is diag(1/2, 2), not itself
    with pytest.raises(ValueError, match="incompatible torus"):
        gstar_factorize(l_plus, l_minus)
    ok = gstar_factorize(l_plus, mat([[F(1, 2), 0], [0, 2]]))
    assert q_map(ok) == mat([[F(1, 4), 0], [0, 4]])


def test_gstar_factor_fields():
    rng = random.Random(14)
    for n in (2, 3):
        c = [F(1, 2)] * (n - 1)
        for _ in range(10):
            el = mu_inverse_point(rnd_torus_diag(rng, n),
                                  rnd_unitriangular(rng, n), c)
            assert mmul(el.h_plus, el.n_plus) == el.l_plus
            assert mmul(el.h_minus, el.n_minus) == el.l_minus
            assert is_unitriangular_upper(el.n_plus)
            assert el.n_minus == build_u(c)
            s = coxeter_rep(n)
            assert mmul(mmul(s, el.h_plus), minv(s)) == el.h_minus


def test_q_map_is_ratio():
    rng = random.Random(15)
    el = mu_inverse_point(rnd_torus_diag(rng, 3),
                          rnd_unitriangular(rng, 3), [F(1, 2), F(1, 2)])
    assert q_map(el) == mmul(el.l_minus, minv(el.l_plus))


@pytest.mark.parametrize("n", (2, 3))
def test_mu_fiber_maps_into_cell(n):
    rng = random.Random(300 + n)
    c = [F(1, 2)] * (n - 1)
    for _ in range(50):
        el = mu_inverse_point(rnd_torus_diag(rng, n),
                              rnd_unitriangular(rng, n), c)
        assert bruhat_cell_test(q_map(el))


def test_mu_inverse_point_requires_determinant_one():
    with pytest.raises(ValueError):
        mu_inverse_point([2, 1], eye(2), [F(1, 2)])


@pytest.mark.parametrize("n", (2, 3))
def test_character_identity_on_trivial_fiber_slice(n):
    rng = random.Random(400 + n)
    c = [F(1, 2)] * (n - 1)
    regular_seen = 0
    for _ in range(40):
        rep = eq_character_report(
            mu_inverse_point(rnd_torus_diag(rng, n), eye(n), c))
        assert rep["matches_torus_times_u"]
        if rep["regular"]:
            regular_seen += 1
            assert rep["matches_torus"]
        else:
            # the unguarded identity holds as well: the compared product
            # is lower triangular, so only the diagonal enters
            assert rep["matches_torus"]
    assert regular_seen > 0


def test_character_identity_degenerate_torus_reported():
    rep = eq_character_report(
        mu_inverse_point([1, 1, 1], eye(3), [F(1, 2), F(1, 2)]))
    assert not rep["regular"]
    assert rep["matches_torus"]


def test_regularity_is_the_discriminant_test_of_the_torus_element():
    # the report reads regularity off the diagonal of t = h_+^-1 s(h_+);
    # the oracle decides it from the discriminant of its char-poly
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(3),
                              F(-1, 3)])
    seen = set()

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 5))
        # a block of p entries repeated n/p times makes t periodic, so the
        # draws with p < n have repeated diagonal entries
        p = data.draw(st.sampled_from([k for k in range(1, n + 1)
                                       if n % k == 0]))
        block = data.draw(st.lists(values, min_size=p - 1, max_size=p - 1))
        sign = data.draw(st.sampled_from((1, -1) if n // p % 2 == 0 else (1,)))
        block.append(F(sign) / math.prod(block))
        h = block * (n // p)
        c = [F(1, 2)] * (n - 1)
        el = mu_inverse_point(h, eye(n), c)
        t = mmul(minv(el.h_plus), el.h_minus)
        regular = eq_character_report(el)["regular"]
        assert regular == (poly_discriminant(charpoly(t)) != 0)
        seen.add(regular)

    check()
    assert seen == {True, False}


def test_character_report_ignores_the_unitriangular_part():
    # the report reads the fiber point with N_+ dropped, so any unipotent
    # upper factor gives the report of the identity one
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fracs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 5))
        h = [data.draw(st.builds(F, st.integers(1, 5), st.integers(1, 3)))
             for _ in range(n - 1)]
        h.append(1 / math.prod(h))
        c = [data.draw(fracs.filter(bool)) for _ in range(n - 1)]
        n_plus = mat([[1 if i == j else data.draw(fracs) if j > i else 0
                       for j in range(n)] for i in range(n)])
        assert (eq_character_report(mu_inverse_point(h, n_plus, c))
                == eq_character_report(mu_inverse_point(h, eye(n), c)))

    check()


# ---------------------------------------------------------------------------
# Kostant section


def test_kostant_sl2_example():
    lam = F(3, 2)
    a, x = kostant_section(mat([[lam, 0], [0, -lam]]))
    assert a == mat([[1, -lam], [0, 1]])
    assert x == mat([[0, lam * lam], [0, 0]])


def test_kostant_zero_input():
    n = 3
    a, x = kostant_section(mat([[0] * n for _ in range(n)]))
    assert a == eye(n)
    assert x == mat([[0] * n for _ in range(n)])


def test_kostant_validation():
    with pytest.raises(ValueError):
        kostant_section(mat([[0, 0], [1, 0]]))
    with pytest.raises(ValueError):
        kostant_section(mat([[1, 0], [0, 1]]))


@pytest.mark.parametrize("n", (2, 3))
def test_kostant_round_trip(n):
    rng = random.Random(500 + n)
    f = shift_matrix(n)
    for _ in range(50):
        b = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = rnd_frac(rng)
            if i < n - 1:
                b[i][i] = rnd_frac(rng)
        b[n - 1][n - 1] = -sum(b[i][i] for i in range(n - 1))
        b = mat(b)
        a, x = kostant_section(b)
        assert is_unitriangular_upper(a)
        lhs = mmul(mmul(a, plus(b, f)), minv(a))
        assert lhs == plus(x, f)
        assert charpoly(plus(b, f)) == charpoly(plus(x, f))
        assert all(x[i][j] == 0 for i in range(1, n) for j in range(n))
        assert x[0][0] == 0


@pytest.mark.parametrize("n", (2, 3))
def test_kostant_companion_coordinates_bijective(n):
    # the first-row entries of x are, up to sign, exactly the non-leading
    # characteristic coefficients of f + x
    rng = random.Random(600 + n)
    f = shift_matrix(n)
    for _ in range(50):
        target = [rnd_frac(rng) for _ in range(n - 1)]
        x = [[F(0)] * n for _ in range(n)]
        for k, val in enumerate(target):
            x[0][k + 1] = val
        cp = charpoly(plus(mat(x), f))
        recovered = [-cp[n - 2 - k] for k in range(n - 1)]
        assert recovered == target


# ---------------------------------------------------------------------------
# r-matrix


def test_rmatrix_part_validation():
    with pytest.raises(ValueError):
        rmatrix_endo(3, part="sideways")
    r = rmatrix_endo(3)
    with pytest.raises(ValueError):
        r(eye(3))


def test_mcybe_antisymmetric_pair():
    rng = random.Random(16)
    for n in (2, 3, 4):
        x = rnd_traceless(rng, n)
        zero = mat([[0] * n for _ in range(n)])
        assert mcybe_check(rmatrix_endo(n), x, x) == zero


@pytest.mark.parametrize("n", (2, 3, 4))
def test_mcybe_residual_vanishes(n):
    rng = random.Random(700 + n)
    zero = mat([[0] * n for _ in range(n)])
    r = rmatrix_endo(n)
    for _ in range(50):
        assert mcybe_check(r, rnd_traceless(rng, n),
                           rnd_traceless(rng, n)) == zero


@pytest.mark.parametrize("n", (2, 3, 4))
def test_rmatrix_half_images_and_kernels(n):
    zero = mat([[0] * n for _ in range(n)])
    basis = sl_basis(n)
    for part, upper in (("plus", True), ("minus", False)):
        r = rmatrix_endo(n, part)
        images = [tuple(v for row in r(x) for v in row) for x in basis]
        live = [v for v in images if any(v)]
        # image is the full Borel: triangular and of the right dimension
        assert rank(mat(live)) == n * (n + 1) // 2 - 1
        for x in basis:
            y = r(x)
            assert is_upper_triangular(y) if upper else is_lower_triangular(y)
        # kernel contains the opposite nilpotent part
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                e = [[F(0)] * n for _ in range(n)]
                e[i][j] = F(1)
                killed = (i > j) if part == "plus" else (i < j)
                if killed:
                    assert r(mat(e)) == zero


def test_rmatrix_full_is_sum_of_halves():
    for n in (2, 3):
        r = rmatrix_endo(n)
        rp = rmatrix_endo(n, "plus")
        rm = rmatrix_endo(n, "minus")
        for x in sl_basis(n):
            assert r(x) == plus(rp(x), rm(x))


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_rmatrix_cartan_part_solves_the_cayley_system(n):
    # the diagonal of r_+(x) is y with (1 - s) y = diag x and sum y = 0;
    # r_- and r take s y and y + s y
    rng = random.Random(900 + n)
    p = crosssec._cartan_cycle(n)
    for _ in range(5):
        x = rnd_traceless(rng, n)
        v = [x[i][i] for i in range(n)]
        y = [rmatrix_endo(n, "plus")(x)[i][i] for i in range(n)]
        sy = [sum(p[i][j] * y[j] for j in range(n)) for i in range(n)]
        assert [y[i] - sy[i] for i in range(n)] == v and sum(y) == 0
        assert [rmatrix_endo(n, "minus")(x)[i][i] for i in range(n)] == sy
        assert [rmatrix_endo(n)(x)[i][i] for i in range(n)] == [
            a + b for a, b in zip(y, sy)]


def test_rmatrix_solves_the_cayley_system_once_per_n(monkeypatch):
    calls = []

    def counted(a):
        calls.append(len(a))
        return minv(a)

    minv = crosssec.minv
    monkeypatch.setattr(crosssec, "minv", counted)
    rng = random.Random(17)
    r = rmatrix_endo(4)
    for _ in range(5):
        r(rnd_traceless(rng, 4))
    # one inversion of the square system, when the endomorphism is built
    assert calls == [4]


def test_singular_cayley_system_keeps_its_error(monkeypatch):
    # with s acting trivially on the Cartan, 1 - s is zero there
    monkeypatch.setattr(crosssec, "_cartan_cycle", eye)
    with pytest.raises(AssertionError, match="1 - s is singular"):
        rmatrix_endo(3)


# ---------------------------------------------------------------------------
# characters and regularity


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_characters_of_identity_are_binomials(n):
    assert fundamental_characters(eye(n)) == tuple(
        F(math.comb(n, k)) for k in range(1, n))


@pytest.mark.parametrize("n", (2, 3))
def test_characters_are_slice_coordinates(n):
    rng = random.Random(800 + n)
    for _ in range(30):
        params = [rnd_frac(rng) for _ in range(n - 1)]
        point = slice_point(params)
        chars = fundamental_characters(point)
        if n == 2:
            assert list(chars) == params
        else:
            assert [chars[0], -chars[1]] == params
        g = rnd_unitriangular(rng, n)
        conjugated = mmul(mmul(g, point), minv(g))
        _, out = cross_section(conjugated)
        assert out == point
        assert fundamental_characters(conjugated) == chars


def test_characters_require_determinant_one():
    with pytest.raises(ValueError):
        fundamental_characters(mat([[2, 0], [0, 2]]))


def test_poly_discriminant_quadratic():
    # t^2 - 3t + 2 has roots 1, 2
    assert poly_discriminant([F(2), F(-3), F(1)]) == 1
    # t^2 - 2t + 1 is a double root
    assert poly_discriminant([F(1), F(-2), F(1)]) == 0
