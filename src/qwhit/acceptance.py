"""The thirteen acceptance checks, runnable as a batch or one at a time.

Each criterion function performs exact verifications and returns a report
dictionary with a boolean ``passed`` plus enough counters to see what was
covered.  Randomized criteria derive their generators deterministically
from the master seed, so reports are reproducible byte for byte.

The checks deliberately re-verify from first principles rather than
importing test helpers.  The trial loops and single checks are functions of
their parameters (an ``rng``, a size and a trial count, or a root system);
the criteria call them with fixed values and the command line calls the
same functions with the user's flags.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from . import crosssec, qarith, rootsys, toda, uqalg
from .qarith import ONE, ZERO, LaurentScalar
from .ratmat import (charpoly, eye, madd, mat, minv, mmul, msub, rank, sparse,
                     unit, zeros)

F = Fraction

CAYLEY_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2))
SERRE_TYPES = (("A", 2), ("A", 3), ("B", 2), ("G", 2))

_ALG_CACHE: dict = {}


def _algebra(series, rank):
    key = (series, rank)
    if key not in _ALG_CACHE:
        rs = rootsys.build_root_system(series, rank)
        _ALG_CACHE[key] = uqalg.Algebra(rootsys.coxeter_context(rs))
    return _ALG_CACHE[key]


def _rnd_frac(rng, lo=-4, hi=4, den=3):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _rnd_unitriangular(rng, n):
    entries = {(i, j): _rnd_frac(rng) for i in range(n) for j in range(i + 1, n)}
    entries.update({(i, i): 1 for i in range(n)})
    return sparse(n, entries)


def _rnd_torus(rng, n):
    """n positive random torus entries whose product is 1."""
    entries = [_rnd_frac(rng, 1, 5, 3) for _ in range(n - 1)]
    prod = F(1)
    for x in entries:
        prod *= x
    return entries + [1 / prod]


def _report(criterion, name, passed, **extra):
    out = {"criterion": criterion, "name": name, "passed": bool(passed)}
    out.update(extra)
    return out


def criterion_1(seed):
    """Cayley transform equals sign matrix times symmetrized form."""
    checked = 0
    ok = True
    for series, rank in CAYLEY_TYPES:
        rs = rootsys.build_root_system(series, rank)
        for pi in permutations(range(1, rank + 1)):
            ctx = rootsys.coxeter_context(rs, pi)
            checked += rank * rank
            ok = cayley_identity(ctx) and ok
    return _report(1, "cayley-identity", ok, entries_checked=checked)


def cayley_identity(ctx):
    """Whether every entry of the Cayley pairing is c_ij = epsilon_ij b_ij."""
    return all(c == e * b for crow, erow, brow in zip(ctx.cayley, ctx.epsilon,
                                                      ctx.rs.bform)
               for c, e, b in zip(crow, erow, brow))


def qbinom_scan_row(m):
    """Vanishing set of the order-m alternating Gauss sum, the expected set
    {m-1, m-3, ..., 1-m}, and whether both edges m-1 and 1-m are in it."""
    got = sorted(qarith.qbinom_root_scan(m))
    want = sorted({m - 1 - 2 * p for p in range(m)})
    return got, want, (m - 1 in got) and (-(m - 1) in got)


def criterion_2(seed):
    """Vanishing set of the alternating Gauss sum."""
    ok = True
    rows = []
    for m in range(1, 7):
        got, want, edge = qbinom_scan_row(m)
        rows.append({"m": m, "set": got, "match": got == want, "edges": edge})
        ok = ok and got == want and edge
    return _report(2, "qbinomial-vanishing", ok, scans=rows)


def serre_sums(rs, orderings):
    """Number of deformed Serre character sums over the given orderings and
    whether every one of them vanishes."""
    checked = 0
    all_zero = True
    for pi in orderings:
        ctx = rootsys.coxeter_context(rs, pi)
        for i in range(rs.rank):
            for j in range(rs.rank):
                if i != j:
                    checked += 1
                    total = sum(uqalg.serre_coefficients(ctx, i, j), ZERO)
                    all_zero = all_zero and not total
    return checked, all_zero


def criterion_3(seed):
    """Deformed Serre relator character sums vanish for every ordering."""
    checked = 0
    ok = True
    for series, rank in SERRE_TYPES:
        rs = rootsys.build_root_system(series, rank)
        n, good = serre_sums(rs, permutations(range(1, rank + 1)))
        checked += n
        ok = ok and good
    return _report(3, "serre-character-identities", ok,
                   identities_checked=checked)


def criterion_4(seed):
    """Non-singular characters kill all non-simple root vectors."""
    ok = True
    checked = 0
    for series, rank, vals in (("A", 2, (1, 1)), ("A", 3, (2, 3, 5))):
        alg = _algebra(series, rank)
        chi = uqalg.character("e", vals)
        simples = {
            tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)
        }
        for beta in alg.ordering.ordering:
            val = uqalg.apply_character(chi, uqalg.root_vector(alg, beta, "+"))
            checked += 1
            if beta in simples:
                ok = ok and bool(val)
            else:
                ok = ok and not val
    return _report(4, "character-vanishing-nonsimple", ok,
                   root_vectors_checked=checked)


def is_central(alg, c):
    """Does c commute with every e_i, f_i and K_{alpha_i}?"""
    rank = alg.rs.rank
    gens = [alg.e(i) for i in range(rank)] + [alg.f(i) for i in range(rank)]
    gens += [alg.k(rootsys.weight(alg.rs.simple_root(i)))
             for i in range(rank)]
    return not any(c.commutator(g) for g in gens)


def is_whittaker_invariant(alg, img, chi):
    """Does every e_i act as zero on img in the Whittaker model of chi?"""
    return not any(uqalg.whittaker_action(alg.e(i), img, chi)
                   for i in range(alg.rs.rank))


def criterion_5(seed):
    """Centrality of the trace elements."""
    cases = []
    ok = True
    for series, rank, reps in (("A", 1, ("V1",)), ("A", 2, ("V1", "V2"))):
        alg = _algebra(series, rank)
        for name in reps:
            c = uqalg.casimir_CV(alg, uqalg.rep_matrices(alg, name))
            good = is_central(alg, c)
            cases.append({"type": f"{series}{rank}", "rep": name,
                          "central": good})
            ok = ok and good
    return _report(5, "centrality", ok, cases=cases)


def criterion_6(seed):
    """Whittaker projection is multiplicative and lands on invariants."""
    ok = True
    cases = []
    for series, rank, chivals in (("A", 1, (1,)), ("A", 2, (2, -3))):
        alg = _algebra(series, rank)
        chi = uqalg.character("e", chivals)
        reps = [uqalg.rep_matrices(alg, f"V{k + 1}") for k in range(rank)]
        cs = [uqalg.casimir_CV(alg, r) for r in reps]
        images = [uqalg.rho_chi(c, chi) for c in cs]
        hom = True
        for a, ca in enumerate(cs):
            for b, cb in enumerate(cs):
                if uqalg.rho_chi(ca * cb, chi) != images[a] * images[b]:
                    hom = False
        inv = all(is_whittaker_invariant(alg, img, chi) for img in images)
        cases.append({"type": f"{series}{rank}", "homomorphism": hom,
                      "invariant": inv})
        ok = ok and hom and inv
    return _report(6, "whittaker-model", ok, cases=cases)


def criterion_7(seed):
    """Toda pipeline: closed form, commutativity, quasiclassical limit."""
    systems = {rank: toda.build_toda_system(_algebra("A", rank), (1,) * rank,
                                            (1,) * rank)
               for rank in (1, 2, 3)}
    detail = {}
    for rank in (1, 2):
        detail[f"closed_form_A{rank}"] = toda.closed_form_holds(
            systems[rank])
    for rank in (2, 3):
        detail[f"commute_A{rank}"] = toda.hamiltonians_commute(
            systems[rank].hamiltonians)
    detail["quasiclassical_A1"] = toda.quasiclassical_potential_check(
        systems[1])["ok"]
    return _report(7, "toda-hamiltonians", all(detail.values()), **detail)


def criterion_8(seed):
    """Yang-Baxter identity in the vector representations."""
    results = {}
    ok = True
    for series, rank in (("A", 1), ("A", 2)):
        alg = _algebra(series, rank)
        good = uqalg.yang_baxter_check(alg, uqalg.rep_matrices(alg, "V1"))
        results[f"A{rank}"] = good
        ok = ok and good
    return _report(8, "yang-baxter", ok, **results)


def _check_trials(trials):
    if trials < 0:
        raise ValueError(f"need --trials >= 0, got {trials}")


def cross_section_trials(rng, n, trials):
    """Successes out of `trials` random cell elements m = v s u of SL(n):
    the cross-section (which asserts that it lands on the slice and that
    its unitriangular conjugator takes m there) keeps the characteristic
    polynomial, and is unchanged (with the conjugator moved along) when m
    is first conjugated by a random unitriangular g."""
    _check_trials(trials)
    s = crosssec.coxeter_rep(n)
    good = 0
    for _ in range(trials):
        v = _rnd_unitriangular(rng, n)
        u = _rnd_unitriangular(rng, n)
        m = mmul(mmul(v, s), u)
        conj, point = crosssec.cross_section(m)
        g = _rnd_unitriangular(rng, n)
        conj2, point2 = crosssec.cross_section(mmul(mmul(g, m), minv(g)))
        if (charpoly(m) == charpoly(point)
                and point2 == point
                and mmul(conj2, g) == conj):
            good += 1
    return good


def criterion_9(seed):
    """Group cross-section: slice landing, invariants, uniqueness, oracle."""
    rng = random.Random(seed * 1009 + 9)
    ok = True
    per_n = {}
    for n in (2, 3, 4, 5):
        good = cross_section_trials(rng, n, 50)
        per_n[f"n{n}"] = good
        ok = ok and good == 50
    oracle = 0
    for _ in range(20):
        a = _rnd_frac(rng)
        d = _rnd_frac(rng)
        m = mat([[a, a * d - 1], [1, d]])
        conj, point = crosssec.cross_section(m)
        if conj == mat([[1, d], [0, 1]]) and point == mat(
                [[a + d, -1], [1, 0]]):
            oracle += 1
    ok = ok and oracle == 20
    return _report(9, "group-cross-section", ok, oracle_matches=oracle,
                   **per_n)


def criterion_10(seed):
    """Fibers of the nilpotent moment map land in the cell; character
    identity under the regularity guard."""
    rng = random.Random(seed * 1009 + 10)
    ok = True
    detail = {}
    for n in (2, 3):
        c = [F(1, 2)] * (n - 1)
        in_cell = 0
        for _ in range(100):
            el = crosssec.mu_inverse_point(_rnd_torus(rng, n),
                                           _rnd_unitriangular(rng, n), c)
            if crosssec.bruhat_cell_test(crosssec.q_map(el)):
                in_cell += 1
        detail[f"cell_hits_n{n}"] = in_cell
        ok = ok and in_cell == 100
        guarded = 0
        regular = 0
        for _ in range(50):
            rep = crosssec.eq_character_report(crosssec.mu_inverse_point(
                _rnd_torus(rng, n), eye(n), c))
            if rep["regular"]:
                regular += 1
                if rep["matches_torus"]:
                    guarded += 1
        detail[f"regular_samples_n{n}"] = regular
        detail[f"guarded_matches_n{n}"] = guarded
        ok = ok and guarded == regular and regular > 0
    return _report(10, "qmap-fibers", ok, **detail)


def kostant_round_trip(b):
    """Kostant section (a, x) of a traceless upper-triangular b, the
    companion coordinates read off x + f, the characteristic polynomial of
    b + f, and three checks: a (b + f) a^-1 = x + f, the characteristic
    polynomial is kept, and the coordinates are the first row of x."""
    n = len(b)
    a, x = crosssec.kostant_section(b)
    f = crosssec.shift_matrix(n)
    bf, xf = madd(b, f), madd(x, f)
    poly_b, poly_x = charpoly(bf), charpoly(xf)
    coords = [-poly_x[n - 2 - k] for k in range(n - 1)]
    checks = (crosssec.is_unitriangular(a) and mmul(a, bf) == mmul(xf, a),
              poly_b == poly_x,
              coords == [x[0][k + 1] for k in range(n - 1)])
    return a, x, coords, poly_b, checks


def kostant_trials(rng, n, trials):
    """Successes out of `trials` random traceless upper-triangular b of size
    n whose Kostant section passes every check of kostant_round_trip."""
    _check_trials(trials)
    good = 0
    for _ in range(trials):
        b = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = _rnd_frac(rng)
            if i < n - 1:
                b[i][i] = _rnd_frac(rng)
        b[n - 1][n - 1] = -sum(b[i][i] for i in range(n - 1))
        if all(kostant_round_trip(mat(b))[4]):
            good += 1
    return good


def criterion_11(seed):
    """Kostant section round trip and companion coordinates."""
    rng = random.Random(seed * 1009 + 11)
    ok = True
    detail = {}
    for n in (2, 3):
        good = kostant_trials(rng, n, 50)
        detail[f"round_trips_n{n}"] = good
        ok = ok and good == 50
    return _report(11, "kostant-section", ok, **detail)


def mcybe_trials(rng, n, trials):
    """Successes out of `trials` random traceless pairs (x, y) of size n
    whose modified classical Yang-Baxter residual vanishes."""
    _check_trials(trials)
    zero = zeros(n)
    r = crosssec.rmatrix_endo(n)
    good = 0
    for _ in range(trials):
        x = [[_rnd_frac(rng) for _ in range(n)] for _ in range(n)]
        x[n - 1][n - 1] -= sum(x[i][i] for i in range(n))
        y = [[_rnd_frac(rng) for _ in range(n)] for _ in range(n)]
        y[n - 1][n - 1] -= sum(y[i][i] for i in range(n))
        if crosssec.mcybe_check(r, mat(x), mat(y)) == zero:
            good += 1
    return good


def rmatrix_subspaces(n):
    """Do r_+ and r_- have image of dimension n(n+1)/2 - 1, land in the
    upper and lower triangular matrices, and kill the strictly lower and
    strictly upper root vectors respectively?"""
    zero = zeros(n)
    basis = [unit(n, i, j) for i in range(n) for j in range(n) if i != j]
    basis += [msub(unit(n, i, i), unit(n, i + 1, i + 1)) for i in range(n - 1)]
    spaces = True
    for part, upper in (("plus", True), ("minus", False)):
        r = crosssec.rmatrix_endo(n, part)
        images = [r(x) for x in basis]
        # a row's scale does not change the rank, so each image is read as
        # its int entries
        live = [sum(y.rows, ()) for y in images if any(map(any, y.rows))]
        if rank(mat(live)) != n * (n + 1) // 2 - 1:
            spaces = False
        for y in images:
            tri_ok = (crosssec.is_upper_triangular(y) if upper
                      else crosssec.is_lower_triangular(y))
            if not tri_ok:
                spaces = False
        for i in range(n):
            for j in range(n):
                killed = (i > j) if part == "plus" else (i < j)
                if killed and r(unit(n, i, j)) != zero:
                    spaces = False
    return spaces


def criterion_12(seed):
    """Modified classical Yang-Baxter residual and the r_+- subspaces."""
    rng = random.Random(seed * 1009 + 12)
    ok = True
    detail = {}
    for n in (2, 3, 4):
        good = mcybe_trials(rng, n, 50)
        detail[f"residual_zero_n{n}"] = good
        ok = ok and good == 50
        spaces = rmatrix_subspaces(n)
        detail[f"subspaces_n{n}"] = spaces
        ok = ok and spaces
    return _report(12, "classical-rmatrix", ok, **detail)


def _random_scalar(rng):
    num = {}
    for _ in range(rng.randint(1, 4)):
        e = F(rng.randint(-6, 6), rng.choice([1, 1, 2]))
        num[e] = num.get(e, F(0)) + F(rng.randint(-5, 5))
    if rng.random() < 0.5:
        return LaurentScalar(num)
    den = {F(0): F(1)}
    for _ in range(rng.randint(0, 2)):
        e = F(rng.randint(-4, 4), rng.choice([1, 2]))
        den[e] = den.get(e, F(0)) + F(rng.randint(-3, 3))
    try:
        return LaurentScalar(num, den)
    except ZeroDivisionError:
        return LaurentScalar(num)


def criterion_13(seed):
    """Engine health: rewriting confluence and scalar field axioms."""
    rng = random.Random(seed * 1009 + 13)
    confluent = 0
    for series, rank in (("A", 1), ("A", 2), ("B", 2)):
        alg = _algebra(series, rank)

        def element():
            tokens = []
            for _ in range(rng.randrange(1, 3)):
                kind = rng.randrange(4)
                if kind == 0:
                    tokens.append(("e", rng.randrange(rank)))
                elif kind == 1:
                    tokens.append(("f", rng.randrange(rank)))
                else:
                    lam = tuple(rng.randrange(-1, 2) for _ in range(rank))
                    tokens.append(("k", lam))
            return alg.word(tokens)

        for _ in range(200):
            x, y, z = element(), element(), element()
            if (x * y) * z == x * (y * z):
                confluent += 1
    axioms = 0
    for _ in range(200):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        good = (a + b == b + a and (a + b) + c == a + (b + c)
                and a * b == b * a and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c and not a - a)
        if good and a:
            good = (a * a.inverse() == ONE) and ((ONE / a) * a == ONE)
        if good:
            axioms += 1
    ok = confluent == 600 and axioms == 200
    return _report(13, "engine-health", ok, confluence_passes=confluent,
                   confluence_total=600, scalar_axiom_passes=axioms,
                   scalar_axiom_total=200)


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
)


def run_all(seed=7):
    reports = [fn(seed) for fn in CRITERIA]
    return {
        "criteria": reports,
        "all_passed": all(r["passed"] for r in reports),
    }
