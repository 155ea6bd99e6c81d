import gc
import itertools
import math
import random
import re
import weakref
from fractions import Fraction

import pytest

from oracles import (casimir_by_q_exp, dense, dense_add, dense_mul,
                     dense_scale, dense_sub, fraction_pair, k_matrix,
                     ladder_rows, module_f_leg, q_binom, q_exp_base,
                     q_exp_nilpotent, r_in_rep_by_q_exp, r_matrix_vv_by_q_exp,
                     times_q_exp, weight_coords)
from test_toda import _chained_modules, _hamiltonian
from qwhit import cli, pbw, qarith, ratmat, rootsys, toda, uqalg
from qwhit.qarith import EXP_UNIT, ONE, ZERO, LaurentScalar, qpow

_ALGEBRAS = {}
TWO = LaurentScalar.from_rational(2)


def algebra(series, rank):
    key = (series, rank)
    if key not in _ALGEBRAS:
        rs = rootsys.build_root_system(series, rank)
        _ALGEBRAS[key] = pbw.PBWAlgebra(rootsys.coxeter_context(rs))
    return _ALGEBRAS[key]


def simple(rank, i):
    return tuple(1 if k == i else 0 for k in range(rank))


def counit(x):
    """Image of a PBW element under e_i, f_i -> 0, K_lam -> 1."""
    out = ZERO
    for (fw, _, ew), c in x.terms.items():
        if not fw and not ew:
            out = out + c
    return out


def pbw_dimension_check(alg, max_height):
    """Compare counts of irreducible one-sided words against monomials in
    positive-root symbols, multidegree by multidegree up to max_height."""
    roots = alg.rs.positive_roots

    # count multisets of positive roots with the given multidegree
    def count(idx, remaining):
        if all(x == 0 for x in remaining):
            return 1
        if idx == len(roots):
            return 0
        total_here = 0
        current = remaining
        while all(x >= 0 for x in current):
            total_here += count(idx + 1, current)
            current = tuple(a - b for a, b in zip(current, roots[idx]))
        return total_here

    for total in range(1, max_height + 1):
        words = {}
        for word in itertools.product(range(alg.rank), repeat=total):
            if alg.reduce_word(word) == {word: ONE}:
                deg = alg.word_weight(word)
                words[deg] = words.get(deg, 0) + 1
        for deg, n_words in words.items():
            expected = count(0, deg)
            if n_words != expected:
                raise AssertionError(
                    f"irreducible word count {n_words} != PBW count {expected} "
                    f"at multidegree {deg}"
                )
    return True


# ---------------------------------------------------------------------------
# defining relations in normal form


def test_cartan_letters_commute_past_e_and_f():
    alg = algebra("A", 2)
    lam = rootsys.weight((1, -2))
    k = alg.k(lam)
    for j in range(2):
        scal = qpow(fraction_pair(alg.rs, (1, -2), alg.rs.simple_root(j)))
        assert k * alg.e(j) == (alg.e(j) * k).scale(scal)
        assert k * alg.f(j) == (alg.f(j) * k).scale(scal.inverse())


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_ef_same_index_gives_cartan_difference(series, rank):
    alg = algebra(series, rank)
    for i in range(rank):
        lhs = alg.e(i) * alg.f(i) - alg.f(i) * alg.e(i)
        ai = rootsys.weight(alg.rs.simple_root(i))
        denom = (qpow(alg.rs.d[i]) - qpow(-alg.rs.d[i])).inverse()
        rhs = (alg.k(ai) - alg.k(tuple(-x for x in ai))).scale(denom)
        assert lhs == rhs


def test_ef_distinct_indices_twist_by_cayley_scalar():
    # the scalar is pinned by associativity: with both Serre sides carrying
    # q^{r c_ij}, only e_i f_j = q^{c_ji} f_j e_i closes the rewrite diamonds
    alg = algebra("A", 2)
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            lhs = alg.e(i) * alg.f(j)
            rhs = (alg.f(j) * alg.e(i)).scale(qpow(alg.ctx.cayley[j][i]))
            assert lhs == rhs


def test_cross_scalar_value_a2():
    alg = algebra("A", 2)
    assert alg.ctx.cayley[0][1] == 1
    assert alg.ctx.cayley[1][0] == -1
    got = alg.e(0) * alg.f(1)
    assert got == (alg.f(1) * alg.e(0)).scale(qpow(-1))


def test_pbw_elements_take_only_scalars_and_are_unhashable():
    # a scalar factor is a LaurentScalar; an element wraps a mutable dict
    x = algebra("A", 2).e(0)
    assert x * ONE == ONE * x == x
    with pytest.raises(TypeError):
        x * 2
    with pytest.raises(TypeError):
        Fraction(1, 2) * x
    with pytest.raises(TypeError):
        hash(x)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2)])
def test_deformed_serre_words_normalize_to_zero(series, rank):
    alg = algebra(series, rank)
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            m = 1 - alg.rs.cartan[i][j]
            acc = alg.zero()
            for r in range(m + 1):
                word = [("e", i)] * (m - r) + [("e", j)] + [("e", i)] * r
                coef = q_binom(m, r, alg.rs.d[i]) * qpow(Fraction(r) * alg.ctx.cayley[i][j])
                if r % 2:
                    coef = -coef
                acc = acc + alg.word(word).scale(coef)
            assert not acc
            acc = alg.zero()
            for r in range(m + 1):
                word = [("f", i)] * (m - r) + [("f", j)] + [("f", i)] * r
                coef = q_binom(m, r, alg.rs.d[i]) * qpow(Fraction(r) * alg.ctx.cayley[i][j])
                if r % 2:
                    coef = -coef
                acc = acc + alg.word(word).scale(coef)
            assert not acc


# ---------------------------------------------------------------------------
# rewriting engine health


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_confluence_on_random_triples(series, rank):
    alg = algebra(series, rank)
    rng = random.Random(20 * rank + ord(series))

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
        assert (x * y) * z == x * (y * z)


def test_normal_form_is_idempotent():
    alg = algebra("B", 2)
    rng = random.Random(7)
    for _ in range(25):
        tokens = []
        for _ in range(rng.randrange(1, 5)):
            tokens.append(rng.choice(
                [("e", rng.randrange(2)), ("f", rng.randrange(2)), ("k", (1, 0))]
            ))
        x = alg.word(tokens)
        assert x * alg.one() == x
        assert alg.one() * x == x


@pytest.mark.parametrize("series,rank,height",
                         [("A", 2, 6), ("B", 2, 6), ("A", 3, 4)])
def test_pbw_multigraded_dimensions(series, rank, height):
    pbw_dimension_check(algebra(series, rank), height)


@pytest.mark.parametrize("series,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_pbw_product_is_associative_on_drawn_words(series, rank):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    alg = algebra(series, rank)
    token = st.one_of(
        st.tuples(st.sampled_from("ef"), st.integers(0, rank - 1)),
        st.tuples(st.just("k"), st.tuples(*[st.integers(-1, 1)] * rank)))
    element = st.lists(token, min_size=2, max_size=5).map(alg.word)

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(element, element, element)
    def check(x, y, z):
        assert (x * y) * z == x * (y * z)

    check()


def test_step_budget_raises_instead_of_spinning(monkeypatch):
    monkeypatch.setenv("QWHIT_STEP_BUDGET", "20")
    rs = rootsys.build_root_system("B", 2)
    alg = pbw.PBWAlgebra(rootsys.coxeter_context(rs))
    with pytest.raises(ArithmeticError):
        alg.reduce_word((0, 1) * 3)


# ---------------------------------------------------------------------------
# degree-ordered Serre completion

# The cases whose completion queue runs empty: a finite confluent rule set.
COMPLETE_CASES = [("A", 1, None), ("A", 2, (1, 2)), ("A", 2, (2, 1)),
                  ("A", 3, (1, 2, 3)), ("A", 3, (3, 2, 1)), ("B", 2, None),
                  ("G", 2, None)]


def fresh_algebra(series, rank, pi=None):
    rs = rootsys.build_root_system(series, rank)
    return pbw.PBWAlgebra(rootsys.coxeter_context(rs, pi))


def words_up_to(rank, length):
    for n in range(1, length + 1):
        yield from itertools.product(range(rank), repeat=n)


@pytest.mark.parametrize("series,rank,pi", COMPLETE_CASES)
def test_lazy_completion_matches_full_completion(series, rank, pi):
    full = fresh_algebra(series, rank, pi)
    full._complete(math.inf)
    assert not full._pending
    # shortest words first, every longer word resumes the completion; longest
    # first, the first word completes through length 6 in one pass
    staged = fresh_algebra(series, rank, pi)
    at_once = fresh_algebra(series, rank, pi)
    words = list(words_up_to(rank, 6))
    for word in words:
        assert staged.reduce_word(word) == full.reduce_word(word), word
    for word in reversed(words):
        assert at_once.reduce_word(word) == full.reduce_word(word), word
    assert staged.rules == at_once.rules
    assert staged._degree == at_once._degree == 6


def test_a_budget_trip_in_the_completion_loses_no_queued_entry(monkeypatch):
    word = (0, 1, 2) * 2
    reference = fresh_algebra("A", 3)
    reference._complete(len(word))
    completion_steps = reference._steps
    expected = reference.reduce_word(word)
    for budget in range(1, completion_steps, 5):
        monkeypatch.setenv("QWHIT_STEP_BUDGET", str(budget))
        alg = fresh_algebra("A", 3)
        with pytest.raises(ArithmeticError,
                           match="completing the Serre rules"):
            alg.reduce_word(word)
        # resumed with room to finish, it ends where an untripped run does
        alg._budget = math.inf
        assert alg.reduce_word(word) == expected
        assert alg.rules == reference.rules, budget


def test_a_bordered_lead_is_completed_against_itself(monkeypatch):
    # no Serre lead overlaps itself, so take the braid relator bab = aba:
    # babab rewrites to abaab and to baaba, which must then be equal
    monkeypatch.setattr(pbw.PBWAlgebra, "_serre_relators", lambda self: [
        {(1, 0, 1): ONE, (0, 1, 0): -ONE}])
    alg = fresh_algebra("A", 2)
    assert alg.reduce_word((0, 1, 0, 0, 1)) == alg.reduce_word((1, 0, 0, 1, 0))
    assert alg.rules[0][0] == (1, 0, 1)


def test_a_fresh_algebra_completes_only_as_far_as_its_words():
    alg = fresh_algebra("A", 3, (1, 3, 2))
    assert alg.rules == []
    assert alg._steps == 0
    assert alg._degree == 0
    for word, degree in [((0, 1, 2) * 2, 6), ((0, 1), 6), ((0, 1, 2) * 3, 9)]:
        alg.reduce_word(word)
        # a word no longer than any before it resumes nothing
        assert alg._degree == degree
        assert all(entry[0] > degree for entry in alg._pending)


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 2)])
def test_the_set_up_forms_no_scalar_product(monkeypatch, series, rank):
    # the Serre coefficients are built in canonical form, and the context
    # eliminates 1 - s once, for both its invertibility and the Cayley
    # transform
    rs = rootsys.build_root_system(series, rank)
    counts = {"mul": 0, "cancel": 0}
    eliminated = []
    mul, cancel, rref = LaurentScalar.__mul__, qarith._cancel, ratmat._rref

    def counting(key, func):
        def wrapped(*args):
            counts[key] += 1
            return func(*args)
        return wrapped

    def recording_rref(rows, *args, **kwargs):
        eliminated.append([row[:rank] for row in rows])
        return rref(rows, *args, **kwargs)

    monkeypatch.setattr(LaurentScalar, "__mul__", counting("mul", mul))
    monkeypatch.setattr(qarith, "_cancel", counting("cancel", cancel))
    monkeypatch.setattr(ratmat, "_rref", recording_rref)
    alg = pbw.PBWAlgebra(rootsys.coxeter_context(rs))
    monkeypatch.undo()
    assert counts == {"mul": 0, "cancel": 0}
    one_minus_s = ratmat.msub(ratmat.eye(rank),
                              ratmat.Matrix(alg.ctx.s_matrix))
    assert eliminated == [[list(row) for row in one_minus_s.rows]]
    assert alg._pending is None


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_the_modules_are_built_and_checked_without_scalar_arithmetic(
        monkeypatch, rank):
    # a ladder entry is an int exponent and each relation coefficient int
    # terms read off the datum, so building and checking every module of a
    # fresh algebra adds, subtracts and multiplies no q-scalar
    alg = uqalg.Algebra(rootsys.coxeter_context(
        rootsys.build_root_system("A", rank)))
    counts = dict.fromkeys(("__mul__", "__add__", "__sub__"), 0)

    def counting(name, func):
        def wrapped(*args):
            counts[name] += 1
            return func(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(LaurentScalar, name,
                            counting(name, getattr(LaurentScalar, name)))
    assert ONE - ONE == ZERO and counts["__sub__"] == 1  # the count works
    counts["__sub__"] = counts["__add__"] = 0
    for k in range(1, rank + 1):
        uqalg.rep_matrices(alg, f"V{k}")
    monkeypatch.undo()
    assert counts == {"__mul__": 0, "__add__": 0, "__sub__": 0}


def test_a_toda_call_builds_no_completion_queue(monkeypatch, capsys):
    built = []
    init = uqalg.Algebra.__init__

    def recording_init(self, ctx):
        init(self, ctx)
        built.append(self)

    monkeypatch.setattr(uqalg.Algebra, "__init__", recording_init)
    assert cli.main(["toda", "--type", "A", "--rank", "3",
                     "--check-commute"]) == 0
    capsys.readouterr()
    (alg,) = built
    assert type(alg) is uqalg.Algebra and not hasattr(alg, "_pending")
    assert alg.rules == []


@pytest.mark.parametrize("pi", [(1, 3, 2), (2, 1, 3)])
def test_pbw_dimensions_on_non_monotone_a3_orderings(pi):
    assert pbw_dimension_check(fresh_algebra("A", 3, pi), 6)


def test_budget_trip_in_the_completion_names_its_stage(monkeypatch):
    monkeypatch.setenv("QWHIT_STEP_BUDGET", "20")
    alg = fresh_algebra("B", 2)
    with pytest.raises(ArithmeticError, match=(
            r"step budget \(20\) while completing the Serre rules to degree "
            r"6 \(\d+ rules, longest lead \d+\)")):
        alg.reduce_word((0, 1) * 3)


def test_budget_trip_in_a_word_reduction_names_its_stage(monkeypatch):
    # every lead holds both letters, so (0,)*6 reduces in one step and the
    # other steps are the completion through length 6
    probe = fresh_algebra("A", 2)
    assert probe.reduce_word((0,) * 6) == {(0,) * 6: ONE}
    monkeypatch.setenv("QWHIT_STEP_BUDGET", str(probe._steps))
    alg = fresh_algebra("A", 2)
    lead, tail = probe.rules[0]
    assert tail
    word = lead + (0,) * (6 - len(lead))
    with pytest.raises(ArithmeticError, match=(
            r"step budget \(\d+\) while reducing a word of length 6")):
        alg.reduce_word(word)


# ---------------------------------------------------------------------------
# root vectors


def test_root_vector_simple_is_generator():
    alg = algebra("A", 2)
    assert pbw.root_vector(alg, (1, 0), "+") == alg.e(0)
    assert pbw.root_vector(alg, (0, 1), "-") == alg.f(1)


def test_root_vector_a2_middle_is_plain_commutator():
    # for the adjacent simple pair the Cayley term cancels the pairing and the
    # q-commutator degenerates to the ordinary one
    alg = algebra("A", 2)
    ev = pbw.root_vector(alg, (1, 1), "+")
    assert ev == alg.e(0) * alg.e(1) - alg.e(1) * alg.e(0)
    fv = pbw.root_vector(alg, (1, 1), "-")
    assert fv == alg.f(1) * alg.f(0) - alg.f(0) * alg.f(1)


def test_root_vector_rejects_bad_input():
    alg = algebra("A", 2)
    with pytest.raises(ValueError):
        pbw.root_vector(alg, (2, 0), "+")
    with pytest.raises(ValueError):
        pbw.root_vector(alg, (1, 1), "e")


def pbw_a_constant(alg, beta):
    """Oracle for a(beta), read off the PBW commutator [e_beta, f_beta] =
    a(beta) (K_beta - K_beta^{-1}) / (q - q^{-1})."""
    comm = pbw.root_vector(alg, beta, "+").commutator(
        pbw.root_vector(alg, beta, "-"))
    plus = rootsys.weight(beta)
    minus = tuple(-x for x in plus)
    c_plus = comm.terms.get(((), plus, ()), ZERO)
    c_minus = comm.terms.get(((), minus, ()), ZERO)
    if not c_plus or c_minus != -c_plus or len(comm.terms) != 2:
        raise AssertionError(f"[e_beta, f_beta] has unexpected shape: {comm}")
    return c_plus * (qpow(1) - qpow(-1))


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2)])
def test_root_vector_commutator_has_cartan_shape(series, rank):
    # [e_beta, f_beta] must be a two-term Cartan combination; a(beta) is read
    # off that commutator and stays invertible
    alg = algebra(series, rank)
    for beta in alg.ordering.ordering:
        val = pbw_a_constant(alg, beta)
        assert val


def test_a_constant_values_b2():
    # normalization against plain q - q^{-1}: a(beta) for a simple root is
    # (q - q^{-1})/(q_i - q_i^{-1}), so the long simple root picks up 1/(q+q^{-1})
    alg = algebra("B", 2)
    assert pbw_a_constant(alg, (1, 0)) == (qpow(1) + qpow(-1)).inverse()
    assert pbw_a_constant(alg, (0, 1)) == qpow(0)
    assert pbw_a_constant(alg, (1, 1)) == qpow(0)
    assert pbw_a_constant(alg, (1, 2)) == qpow(1) + qpow(-1)


def _assert_module_scales_match_the_pbw_oracle(alg, rep_names):
    for name in rep_names:
        rep = uqalg.rep_matrices(alg, name)
        # read every scale off this module, not off the one before it
        alg._scale_cache.clear()
        for beta in alg.ordering.ordering:
            scale = pbw._root_constants(alg, rep, beta)[0]
            want = (qpow(1) - qpow(-1)) * pbw_a_constant(alg, beta).inverse()
            assert scale == want, (name, beta)


@pytest.mark.parametrize("pi", [
    pi for rank in (1, 2, 3)
    for pi in itertools.permutations(range(1, rank + 1))],
    ids=lambda pi: "".join(map(str, pi)))
def test_module_scale_matches_the_pbw_commutator(pi):
    rank = len(pi)
    alg = fresh_algebra("A", rank, pi)
    _assert_module_scales_match_the_pbw_oracle(
        alg, [f"V{k + 1}" for k in range(rank)])


def test_module_scale_matches_the_pbw_commutator_a4():
    alg = fresh_algebra("A", 4, (2, 1, 3, 4))
    _assert_module_scales_match_the_pbw_oracle(alg, ["V1", "V4"])


def _zeroed(rows):
    return {}


def _one_entry_shifted(ladder):
    # the entry of the first row times q
    r = min(ladder)
    c, u = ladder[r]
    return {**ladder, r: (c, u + EXP_UNIT)}


@pytest.mark.parametrize("rank,name,spoil", [
    # [pi(e_1), pi(f_1)] is zero, or a multiple of pi(K_1) - pi(K_1)^-1 on
    # one of its two weight-space pairs but not on the other
    (2, "V1", _zeroed), (3, "V2", _one_entry_shifted)])
def test_module_scale_refuses_a_module_without_cartan_shape(rank, name,
                                                            spoil):
    alg = fresh_algebra("A", rank)
    rep = uqalg.rep_matrices(alg, name)
    rep.f_mats[0] = spoil(rep.f_mats[0])
    beta = (1,) + (0,) * (rank - 1)
    with pytest.raises(RuntimeError, match=re.escape(f"beta = {beta}")):
        pbw._root_constants(alg, rep, beta)


# ---------------------------------------------------------------------------
# characters and the Whittaker projection


def test_character_requires_nonzero_values():
    with pytest.raises(ValueError):
        uqalg.character("e", (1, 0))


def test_apply_character_multiplicative_words():
    alg = algebra("A", 2)
    chi = uqalg.character("e", (2, 3))
    assert pbw.apply_character(chi, alg.one()) == qpow(0)
    got = pbw.apply_character(chi, alg.e(0) * alg.e(1))
    assert got == LaurentScalar.from_rational(6)


def test_apply_character_rejects_mixed_sides():
    alg = algebra("A", 2)
    chi = uqalg.character("e", (1, 1))
    with pytest.raises(ValueError):
        pbw.apply_character(chi, alg.f(0))
    with pytest.raises(ValueError):
        pbw.apply_character(chi, alg.k(rootsys.weight((1, 0))))
    chibar = uqalg.character("f", (1, 1))
    with pytest.raises(ValueError):
        pbw.apply_character(chibar, alg.e(0))


@pytest.mark.parametrize("series,rank", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_serre_character_sums_vanish(series, rank):
    # scalar form of the relator identity: the twisted exponents land exactly
    # on the vanishing set of the q-binomial product criterion
    rs = rootsys.build_root_system(series, rank)
    ctx = rootsys.coxeter_context(rs)
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            m = 1 - rs.cartan[i][j]
            total = ZERO
            for r in range(m + 1):
                term = q_binom(m, r, rs.d[i]) * qpow(Fraction(r) * ctx.cayley[i][j])
                if r % 2:
                    term = -term
                total = total + term
            assert not total


@pytest.mark.parametrize("series,rank,vals", [
    ("A", 2, (1, 1)),
    ("A", 3, (2, 3, 5)),
    ("B", 2, (1, 2)),
])
def test_character_kills_non_simple_root_vectors(series, rank, vals):
    alg = algebra(series, rank)
    chi = uqalg.character("e", vals)
    simples = {simple(rank, i) for i in range(rank)}
    for beta in alg.ordering.ordering:
        val = pbw.apply_character(chi, pbw.root_vector(alg, beta, "+"))
        if beta in simples:
            assert val
        else:
            assert not val


def test_rho_chi_examples():
    alg = algebra("A", 2)
    chi = uqalg.character("e", (5, 7))
    lower = alg.f(0) * alg.k(rootsys.weight((1, 1))) + alg.f(1)
    assert uqalg.rho_chi(lower, chi) == lower
    x = alg.f(0) * alg.k(rootsys.weight((1, 0))) * alg.e(0)
    assert uqalg.rho_chi(x, chi) == (alg.f(0) * alg.k(rootsys.weight((1, 0)))).scale(
        LaurentScalar.from_rational(5)
    )
    chibar = uqalg.character("f", (1, 1))
    with pytest.raises(ValueError):
        uqalg.rho_chi(x, chibar)


def test_whittaker_action_basics():
    alg = algebra("A", 1)
    chi = uqalg.character("e", (1,))
    assert not pbw.whittaker_action(alg.e(0), alg.one(), chi)
    got = pbw.whittaker_action(alg.e(0), alg.f(0), chi)
    denom = (qpow(1) - qpow(-1)).inverse()
    assert got == (alg.k(rootsys.weight((1,))) - alg.k(rootsys.weight((-1,)))).scale(denom)


# ---------------------------------------------------------------------------
# representation matrices


def is_zero_matrix(m):
    return not any(x for row in m for x in row)


def test_rep_catalogue_and_nilpotency():
    alg = algebra("A", 1)
    rep = uqalg.rep_matrices(alg, "V1")
    assert rep.dim == 2
    e, f = ladder_rows(rep.e_mats[0]), ladder_rows(rep.f_mats[0])
    assert e and f
    assert ratmat.sparse_mul(e, e) == {}
    assert ratmat.sparse_mul(f, f) == {}


def dense_ladder(rep, a, b):
    """Oracle: the dense 0/1 matrix sending the basis vector s holding b but
    not a to s - {b} + {a}."""
    rs = rep.alg.rs
    basis, _ = uqalg.module_basis(rs, rs.module_index(rep.name))
    index = {s: p for p, s in enumerate(basis)}
    moves = {(index[tuple(sorted(set(s) - {b} | {a}))], index[s])
             for s in basis if b in s and a not in s}
    return tuple(tuple(ONE if (r, c) in moves else ZERO
                       for c in range(rep.dim)) for r in range(rep.dim))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_module_matrices_are_the_twisted_ladders(rank):
    # pi(e_i) = ladder K_nu and pi(f_i) = K_{-nu} ladder, nu the twist of
    # alpha_i, on every fundamental module
    alg = algebra("A", rank)
    for k in range(rank):
        rep = uqalg.rep_matrices(alg, f"V{k + 1}")
        for i in range(rank):
            nu = uqalg._combination(
                alg.rs, [int(t) for t in alg.ctx.twist[i]])
            minus_nu = tuple(-x for x in nu)
            want_e = dense_mul(dense_ladder(rep, i + 1, i + 2),
                               k_matrix(rep, nu), ZERO)
            want_f = dense_mul(k_matrix(rep, minus_nu),
                               dense_ladder(rep, i + 2, i + 1), ZERO)
            for got, want in ((rep.e_mats[i], want_e),
                              (rep.f_mats[i], want_f)):
                assert dense(ladder_rows(got), rep.dim, ZERO) == want


def dense_evaluate(rep, x):
    """Oracle: the matrix of a PBWElement, each term f-word K_lam e-word the
    dense product pi(f-word) pi(K_lam) pi(e-word)."""
    def ladder(m):
        return dense(ladder_rows(m), rep.dim, ZERO)

    total = dense({}, rep.dim, ZERO)
    for (fw, lam, ew), c in x.terms.items():
        m = k_matrix(rep, lam)
        for i in reversed(fw):
            m = dense_mul(ladder(rep.f_mats[i]), m, ZERO)
        for i in ew:
            m = dense_mul(m, ladder(rep.e_mats[i]), ZERO)
        total = dense_add(total, dense_scale(m, c))
    return total


@pytest.mark.parametrize("rank", [2, 3])
def test_evaluate_matches_the_dense_product(rank):
    # drawn elements with a term of each shape: f- and e-letters, only
    # e-letters, only f-letters and only K, each also on its own
    rng = random.Random(rank)
    alg = algebra("A", rank)

    def letters():
        return tuple(rng.randrange(rank) for _ in range(rng.randint(1, 3)))

    for k in range(rank):
        rep = uqalg.rep_matrices(alg, f"V{k + 1}")
        for _ in range(5):
            terms = {}
            for fw, ew in ((letters(), letters()), ((), letters()),
                           (letters(), ()), ((), ())):
                lam = rootsys.weight([Fraction(rng.randint(-3, 3),
                                               rng.choice((1, 2)))
                                      for _ in range(rank)])
                coef = qpow(Fraction(rng.randint(-2, 2), 2)) * (
                    LaurentScalar.from_rational(Fraction(
                        rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))))
                terms[fw, lam, ew] = coef
            for x in [pbw.PBWElement(alg, terms)] + [
                    pbw.PBWElement(alg, {key: c}) for key, c in terms.items()]:
                assert dense(pbw.evaluate(rep, x), rep.dim, ZERO) == (
                    dense_evaluate(rep, x))


@pytest.mark.parametrize("fw,ew", [
    ((0,), ()), ((), (1,)), ((2, 1), ()), ((), (0, 1, 2)), ((1,), (2,)),
    ((0, 1), (1, 0)), ((2, 1, 0), (1,)), ((), ())])
def test_evaluate_makes_one_product_fewer_than_letters(monkeypatch, fw, ew):
    # the letters' ladders are composed once each after the first, and
    # K_lam is applied as exponents, not composed in as a diagonal
    alg = algebra("A", 3)
    rep = uqalg.rep_matrices(alg, "V2")
    calls = []
    real = uqalg.compose

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(uqalg, "compose", counting)
    x = pbw.PBWElement(alg, {(fw, rootsys.weight((1, Fraction(-1, 2), 2)),
                                ew): ONE})
    got = pbw.evaluate(rep, x)
    monkeypatch.undo()
    assert len(calls) == max(len(fw) + len(ew) - 1, 0)
    assert dense(got, rep.dim, ZERO) == dense_evaluate(rep, x)


def test_rep_relation_check_runs_for_small_type_a():
    # the constructor re-checks every defining relation on the matrices
    uqalg.rep_matrices(algebra("A", 2), "V1")
    uqalg.rep_matrices(algebra("A", 2), "V2")
    uqalg.rep_matrices(algebra("A", 3), "V1")


def dense_relation_failures(rep):
    """Oracle: the kinds of defining relation the module matrices break,
    each relation checked as a product of dense matrices."""
    return set(dense_first_failures(rep))


def dense_first_failures(rep):
    """Oracle: the first (i, j) at which each kind of defining relation
    fails, by kind, each relation checked as a product of dense matrices."""
    alg = rep.alg
    rs = alg.rs
    n = rs.rank

    def mm(a, b):
        return dense_mul(a, b, ZERO)

    one = dense({r: {r: ONE} for r in range(rep.dim)}, rep.dim, ZERO)
    e_mats = [dense(ladder_rows(m), rep.dim, ZERO) for m in rep.e_mats]
    f_mats = [dense(ladder_rows(m), rep.dim, ZERO) for m in rep.f_mats]
    failed = {}
    for i in range(n):
        alpha = rootsys.weight(alg.rs.simple_root(i))
        ki = k_matrix(rep, alpha)
        ki_inv = k_matrix(rep, tuple(-x for x in alpha))
        assert mm(ki, ki_inv) == one
        for j in range(n):
            for kind, x, sign in (("K-e relation", e_mats[j], 1),
                                  ("K-f relation", f_mats[j], -1)):
                lhs = mm(ki, mm(x, ki_inv))
                if lhs != dense_scale(x, qpow(sign * rs.bform[i][j])):
                    failed.setdefault(kind, (i, j))
            cross = dense_sub(
                mm(e_mats[i], f_mats[j]),
                dense_scale(mm(f_mats[j], e_mats[i]),
                              qpow(alg.ctx.cayley[j][i])))
            if i == j:
                coef = (qpow(rs.d[i]) - qpow(-rs.d[i])).inverse()
                cross = dense_sub(cross, dense_scale(
                    dense_sub(ki, ki_inv), coef))
            if not is_zero_matrix(cross):
                failed.setdefault("cross relation", (i, j))
    for i, j in itertools.permutations(range(n), 2):
        coefs = uqalg.serre_coefficients(alg.ctx, i, j)
        m = len(coefs) - 1
        for side, mats in (("e", e_mats), ("f", f_mats)):
            total = dense({}, rep.dim, ZERO)
            for r, coef in enumerate(coefs):
                term = one
                for x in (i,) * (m - r) + (j,) + (i,) * r:
                    term = mm(term, mats[x])
                total = dense_add(total, dense_scale(term, coef))
            if not is_zero_matrix(total):
                failed.setdefault(f"{side}-Serre", (i, j))
    return failed


RELATION_KINDS = ("K-e relation", "K-f relation", "cross relation", "e-Serre",
                  "f-Serre")


# The entry of one row of the ladder pi(e_j) or pi(f_j) of A3 set to q^0 at
# a column ("one"; where the row holds an entry at another column, that
# entry moves) or multiplied by q ("shift"), and the relations that breaks,
# as the dense oracle reads them.  Every entry of the right weight for e_j
# is already there in these minuscule modules, so a K relation cannot fail
# alone: a new entry off the weight also breaks a cross or a Serre
# relation, and a changed entry always breaks the cross relation at (j, j).
@pytest.mark.parametrize("name,side,j,row,col,how,broken", [
    ("V1", "e", 0, 3, 0, "one", {"K-e relation", "e-Serre"}),
    ("V1", "f", 0, 0, 3, "one", {"K-f relation", "f-Serre"}),
    ("V1", "e", 0, 0, 3, "one", {"K-e relation", "cross relation"}),
    ("V1", "e", 0, 0, 1, "shift", {"cross relation"}),
    ("V2", "e", 0, 5, 0, "one", {"K-e relation", "e-Serre"}),
    ("V2", "f", 0, 0, 5, "one", {"K-f relation", "f-Serre"}),
    ("V2", "e", 1, 0, 1, "shift", {"cross relation"}),
    ("V2", "e", 0, 1, 3, "shift", {"cross relation", "e-Serre"}),
    ("V2", "f", 0, 3, 1, "shift", {"cross relation", "f-Serre"}),
    ("V3", "e", 0, 3, 0, "one", {"K-e relation", "e-Serre"}),
    ("V3", "f", 0, 0, 3, "one", {"K-f relation", "f-Serre"}),
    ("V3", "f", 0, 2, 0, "one", {"K-f relation", "cross relation"}),
    ("V3", "e", 0, 2, 3, "shift", {"cross relation"}),
])
def test_a_corrupted_module_entry_fails_the_relations_it_breaks(
        name, side, j, row, col, how, broken):
    rep = uqalg.rep_matrices(algebra("A", 3), name)
    mats = rep.e_mats if side == "e" else rep.f_mats
    old = mats[j].get(row)
    if how == "one":
        new = (col, 0)
    else:
        assert old[0] == col
        new = (col, old[1] + EXP_UNIT)
    assert new != old
    mats[j] = {**mats[j], row: new}
    assert dense_relation_failures(rep) == broken
    with pytest.raises(RuntimeError) as info:
        rep._check_relations()
    message = str(info.value)
    assert message.startswith(f"{name}: ")
    assert {k for k in RELATION_KINDS if f"{k} fails at (" in message} == broken


def _relation_message(name, first):
    """The RuntimeError text of ``_check_relations`` for the first failing
    (i, j) of each kind, or None when nothing fails."""
    failed = [f"{kind} fails at ({first[kind][0]},{first[kind][1]})"
              for kind in RELATION_KINDS if kind in first]
    return f"{name}: " + "; ".join(failed) if failed else None


def _spoils(st, dim, exponent):
    """Strategies of spoils of one ladder, by kind: each draws the spoiled
    ladder from the ladder and data; an added entry has a drawn column and
    an exponent drawn from exponent."""
    shift = st.sampled_from((EXP_UNIT // 2, -EXP_UNIT // 2, EXP_UNIT,
                             -EXP_UNIT))

    def at_a_row(spoil):
        # spoil(data, (column, u)) is the new entry of a drawn row, or None
        # to remove it
        def draw(ladder, data):
            r = data.draw(st.sampled_from(sorted(ladder)))
            entry = spoil(data, ladder[r])
            out = {k: v for k, v in ladder.items() if k != r}
            if entry is not None:
                out[r] = entry
            return out
        return draw

    def added(ladder, data):
        r = data.draw(st.sampled_from(
            [k for k in range(dim) if k not in ladder]))
        return {**ladder, r: (data.draw(st.integers(0, dim - 1)),
                              data.draw(exponent))}

    return {
        "keep": lambda ladder, data: ladder,
        "one": at_a_row(lambda data, e: (e[0], 0)),
        "remove": at_a_row(lambda data, e: None),
        # the shape of a wrong twist
        "shift": at_a_row(lambda data, e: (e[0], e[1] + data.draw(shift))),
        "move": at_a_row(lambda data, e: (data.draw(
            st.integers(0, dim - 1).filter(lambda c: c != e[0])), e[1])),
        "add": added,
    }


@pytest.mark.parametrize("kind", ["keep", "one", "remove", "shift", "move",
                                  "add"])
def test_the_relation_check_agrees_with_the_dense_oracle(kind):
    # an A2, A3 or A4 module, conjugated or not by a drawn diagonal of
    # q-powers (which keeps every relation), with one drawn ladder pi(e_j)
    # or pi(f_j) spoiled by the kind: kept, one entry's exponent set to 0,
    # shifted by q^{+-1/2} or q^{+-1}, removed or moved to a drawn column,
    # or an entry added at a drawn free row; the message must name the
    # dense oracle's first failing (i, j) of each kind, and every kind but
    # keep must break some module
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponent = st.builds(Fraction, st.integers(-4, 4),
                         st.sampled_from((1, 2))).map(qarith.to_units)
    broke = []

    @hypothesis.settings(max_examples=15, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rank = data.draw(st.integers(2, 4))
        name = f"V{data.draw(st.integers(1, rank))}"
        rep = uqalg.rep_matrices(algebra("A", rank), name)
        if data.draw(st.booleans()):
            # D x D^-1 for D = diag(q^{a_r}): an entry at (r, c) gains
            # a_r - a_c
            a = data.draw(st.lists(exponent, min_size=rep.dim,
                                   max_size=rep.dim))
            for m in (rep.e_mats, rep.f_mats):
                m[:] = [{r: (c, u + a[r] - a[c]) for r, (c, u) in x.items()}
                        for x in m]
        mats = data.draw(st.sampled_from((rep.e_mats, rep.f_mats)))
        j = data.draw(st.integers(0, rank - 1))
        mats[j] = _spoils(st, rep.dim, exponent)[kind](mats[j], data)
        want = _relation_message(name, dense_first_failures(rep))
        broke.append(want is not None)
        try:
            rep._check_relations()
            got = None
        except RuntimeError as exc:
            got = str(exc)
        assert got == want

    check()
    assert any(broke) == (kind != "keep")


def test_rep_matrices_rejects_unknown_modules():
    with pytest.raises(ValueError):
        uqalg.rep_matrices(algebra("A", 2), "V3")
    with pytest.raises(ValueError):
        uqalg.rep_matrices(algebra("B", 2), "V1")


def test_rep_weights_sum_to_zero():
    rep = uqalg.rep_matrices(algebra("A", 2), "V1")
    total = [Fraction(0), Fraction(0)]
    for mu in rep.weights:
        for i, x in enumerate(mu):
            total[i] += x
    assert total == [0, 0]


# ---------------------------------------------------------------------------
# R-matrix, Casimirs, Whittaker generators


def test_l_matrices_a1_shape():
    alg = algebra("A", 1)
    rep = uqalg.rep_matrices(alg, "V1")
    lminus = dense(pbw._r_in_rep(alg, rep, flipped=False), rep.dim,
                   alg.zero())
    half = rootsys.weight((Fraction(1, 2),))
    mhalf = rootsys.weight((Fraction(-1, 2),))
    assert lminus[0][0] == alg.k(half)
    assert lminus[1][1] == alg.k(mhalf)
    assert not lminus[0][1]
    assert lminus[1][0] == (alg.k(mhalf) * alg.e(0)).scale(qpow(1) - qpow(-1))


@pytest.mark.parametrize("series,rank,rep_name", [
    ("A", 1, "V1"), ("A", 2, "V1"), ("A", 2, "V2"),
])
def test_counit_collapses_l_matrices_to_identity(series, rank, rep_name):
    # the counit of either R-factor product, R or R_21, is the identity
    alg = algebra(series, rank)
    rep = uqalg.rep_matrices(alg, rep_name)
    for flipped in (False, True):
        mat = dense(pbw._r_in_rep(alg, rep, flipped), rep.dim, alg.zero())
        for r in range(rep.dim):
            for s in range(rep.dim):
                want = 1 if r == s else 0
                assert counit(mat[r][s]) == LaurentScalar.from_rational(want)


@pytest.mark.parametrize("rank,rep_name,pi", [
    (1, "V1", None), (2, "V1", None), (2, "V2", (2, 1)),
])
def test_l_minus_evaluates_to_numeric_r_matrix(rank, rep_name, pi):
    # (pi_V x pi_V) of the module R-matrix equals the independent numeric R
    rs = rootsys.build_root_system("A", rank)
    alg = pbw.PBWAlgebra(rootsys.coxeter_context(rs, pi))
    rep = uqalg.rep_matrices(alg, rep_name)
    d = rep.dim
    lminus = dense(pbw._r_in_rep(alg, rep, flipped=False), d, alg.zero())
    rvv = dense(pbw.r_matrix_vv(alg, rep), d * d, ZERO)
    for s in range(d):
        for s2 in range(d):
            block = dense(pbw.evaluate(rep, lminus[s][s2]), d, ZERO)
            for r in range(d):
                for r2 in range(d):
                    assert block[r][r2] == rvv[r * d + s][r2 * d + s2]


@pytest.mark.parametrize("series,rank,rep_name", [
    ("A", 1, "V1"), ("A", 2, "V1"), ("A", 2, "V2"),
])
def test_yang_baxter_holds_exactly(series, rank, rep_name):
    alg = algebra(series, rank)
    rep = uqalg.rep_matrices(alg, rep_name)
    assert pbw.yang_baxter_check(alg, rep)


def test_yang_baxter_check_refuses_a_spoiled_r_matrix(monkeypatch):
    # one off-diagonal entry of the numeric R doubled breaks the equation
    alg = algebra("A", 1)
    rep = uqalg.rep_matrices(alg, "V1")
    exact = pbw.r_matrix_vv

    def spoiled(alg, rep):
        r = {k: dict(row) for k, row in exact(alg, rep).items()}
        i, j = next((i, j) for i in sorted(r) for j in sorted(r[i]) if i != j)
        r[i][j] = r[i][j] * TWO
        return r

    monkeypatch.setattr(pbw, "r_matrix_vv", spoiled)
    assert pbw.yang_baxter_check(alg, rep) is False


def test_times_one_plus_is_the_q_exponential_of_a_chainless_x():
    # rows (1 + x) in place, against rows exp_t(x) through times_q_exp for
    # any base t, over q-scalars and PBW elements: x is a full block from a
    # drawn set of indices to the others, so it has no chain of length 2,
    # and every entry of rows is drawn, so each product is made; an x with
    # a chain is refused by name, before any row changes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    alg = algebra("A", 2)
    exps = st.integers(-2, 2)

    def entry(data, over_pbw):
        c = qpow(data.draw(exps)) * LaurentScalar.from_rational(
            data.draw(st.sampled_from((1, -1, 2, Fraction(-3, 2)))))
        if not over_pbw:
            return c
        word = data.draw(st.sampled_from(
            (alg.e(0), alg.f(1), alg.e(1) * alg.f(0), alg.k((1260, 0)))))
        return word.scale(c)

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        over_pbw = data.draw(st.booleans())
        n = data.draw(st.integers(2, 4))
        p = data.draw(st.permutations(range(n)))
        cut = data.draw(st.integers(1, n - 1))
        x = {k: {c: entry(data, over_pbw) for c in p[cut:]} for k in p[:cut]}
        rows = {r: {c: entry(data, over_pbw) for c in range(n)}
                for r in range(n)}
        t = qpow(data.draw(st.sampled_from((-2, -1, 1, Fraction(1, 2)))))
        want = times_q_exp(rows, x, n, t)
        got = {r: dict(row) for r, row in rows.items()}
        uqalg.times_one_plus(got, x, "x")
        got = {r: {c: v for c, v in row.items() if v}
               for r, row in got.items()}
        assert {r: row for r, row in got.items() if row} == want
        chained = {**x, p[cut]: {p[0]: entry(data, over_pbw)}}
        before = {r: dict(row) for r, row in rows.items()}
        with pytest.raises(RuntimeError, match=(
                r"^x has a chain of length 2, so its R-matrix factor is not "
                r"1 \+ x$")):
            uqalg.times_one_plus(rows, chained, "x")
        assert rows == before

    check()


@pytest.mark.parametrize("pi", [
    pi for rank in (1, 2, 3)
    for pi in itertools.permutations(range(1, rank + 1))],
    ids=lambda pi: "".join(map(str, pi)))
def test_the_r_matrices_are_the_q_exponential_pipeline(pi):
    # each factor applied as 1 + x, against the pipeline through
    # times_q_exp with base q^{-(beta, beta)}, on every module and both
    # flips; compared as sparse rows, which the oracle leaves with no zero
    # entry
    rank = len(pi)
    alg = fresh_algebra("A", rank, pi)
    for k in range(1, rank + 1):
        rep = uqalg.rep_matrices(alg, f"V{k}")
        for flipped in (False, True):
            assert pbw._r_in_rep(alg, rep, flipped) == r_in_rep_by_q_exp(
                alg, rep, flipped), (k, flipped)
        assert pbw.r_matrix_vv(alg, rep) == r_matrix_vv_by_q_exp(alg, rep)
        assert uqalg.casimir_CV(alg, rep) == casimir_by_q_exp(alg, rep), k


@pytest.mark.parametrize("command,side,i", [
    ("casimir", "e", 0), ("casimir", "f", 2), ("whittaker", "e", 1),
    ("whittaker", "f", 0)])
def test_a_chained_ladder_stops_the_r_matrix_through_the_cli(
        monkeypatch, capsys, command, side, i):
    # a factor is 1 + x only when its module leg squares to 0, so a
    # chained ladder must stop the Casimir with the module and the root
    _chained_modules(monkeypatch, "V2", side, i)
    assert cli.main([command, "--type", "A", "--rank", "3",
                     "--rep", "V2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    beta = tuple(int(j == i) for j in range(3))
    assert captured.err.splitlines() == [
        f"qwhit {command}: invariant failure: V2: pi({side}_beta) for beta "
        f"= {beta} has a chain of length 2, so its R-matrix factor is not "
        f"1 + x"]


@pytest.mark.parametrize("i", [0, 1])
def test_yang_baxter_check_refuses_a_chained_f_ladder(monkeypatch, i):
    # (pi x pi) R is pi of each entry of (id x pi) R, whose module leg is
    # K_{T beta} pi(f_beta)
    _chained_modules(monkeypatch, "V1", "f", i)
    alg = fresh_algebra("A", 2)
    rep = uqalg.rep_matrices(alg, "V1")
    with pytest.raises(RuntimeError, match=r"^V1: pi\(f_beta\) for beta = "
                       r".* has a chain of length 2"):
        pbw.yang_baxter_check(alg, rep)


def test_casimir_a1_golden_value():
    alg = algebra("A", 1)
    rep = uqalg.rep_matrices(alg, "V1")
    c = uqalg.casimir_CV(alg, rep)
    sq = (qpow(1) - qpow(-1)) * (qpow(1) - qpow(-1))
    want = (
        alg.k(rootsys.weight((1,))).scale(qpow(1))
        + alg.k(rootsys.weight((-1,))).scale(qpow(-1))
        + (alg.f(0) * alg.e(0)).scale(sq)
    )
    assert c == want


@pytest.mark.parametrize("series,rank,rep_names", [
    ("A", 1, ("V1",)),
    ("A", 2, ("V1", "V2")),
])
def test_casimir_is_central(series, rank, rep_names):
    alg = algebra(series, rank)
    gens = [alg.e(i) for i in range(rank)] + [alg.f(i) for i in range(rank)]
    gens += [alg.k(rootsys.weight(alg.rs.simple_root(i))) for i in range(rank)]
    for name in rep_names:
        c = uqalg.casimir_CV(alg, uqalg.rep_matrices(alg, name))
        for g in gens:
            assert c * g == g * c


def test_casimirs_commute_with_each_other_a2():
    alg = algebra("A", 2)
    c1 = uqalg.casimir_CV(alg, uqalg.rep_matrices(alg, "V1"))
    c2 = uqalg.casimir_CV(alg, uqalg.rep_matrices(alg, "V2"))
    assert c1 * c2 == c2 * c1


def test_casimir_cartan_degeneration_is_weight_trace():
    # dropping all monomials with e or f letters must leave the weighted trace
    # of the Cartan part alone
    alg = algebra("A", 2)
    rep = uqalg.rep_matrices(alg, "V1")
    c = uqalg.casimir_CV(alg, rep)
    cartan_part = pbw.PBWElement(alg, {
        m: coef for m, coef in c.terms.items() if not m[0] and not m[2]
    })
    two_rho = tuple(2 * x for x in weight_coords(alg.rs.rho))
    want = alg.zero()
    for mu in rep.weights:
        lam = tuple(2 * x for x in mu)
        want = want + alg.k(lam).scale(qpow(fraction_pair(
            alg.rs, two_rho, weight_coords(mu))))
    assert cartan_part == want


def oracle_whittaker_generator(alg, rep, chi):
    """Oracle for the Whittaker image rho_chi(C_V), projected before it is
    multiplied out but with R_21 as a matrix of PBW elements, every factor
    a q-exponential (``r_in_rep_by_q_exp``):

        sum_j q^{(2 rho, mu_j)} sum_k R_21[j][k] K_{lam_k} chi(U)[k][j],

    where (id x pi_V) R = diag(K_{lam_k}) U, lam_k = mu_k + T mu_k, and chi(U)
    is the product of the numeric q-exponentials with every e_beta, simple
    or not, replaced by chi(e_beta) read off the PBW root vector."""
    if chi.side != "e":
        raise ValueError("the Whittaker projection uses an e-side character")
    chi_u = dense({r: {r: ONE} for r in range(rep.dim)}, rep.dim, ZERO)
    for beta in alg.ordering.ordering:
        scale = pbw._root_constants(alg, rep, beta)[0]
        base, leg = q_exp_base(alg, beta), module_f_leg(alg, rep, beta)
        value = pbw.apply_character(
            chi, pbw.root_vector(alg, beta, "+")) * scale
        factor = q_exp_nilpotent(
            ratmat.sparse_scale(leg, value) if value else {}, rep.dim, base,
            ONE)
        chi_u = dense_mul(chi_u, dense(factor, rep.dim, ZERO), ZERO)
    r21 = dense(r_in_rep_by_q_exp(alg, rep, flipped=True), rep.dim,
                alg.zero())
    lams = uqalg.cartan_weights(alg, rep).r
    two_rho = tuple(2 * x for x in weight_coords(alg.rs.rho))
    out = alg.zero()
    for j in range(rep.dim):
        entry = sum((r21[j][k] * alg.k(lam).scale(chi_u[k][j])
                     for k, lam in enumerate(lams)), alg.zero())
        out = out + entry.scale(qpow(fraction_pair(
            alg.rs, two_rho, weight_coords(rep.weights[j]))))
    return out


def test_whittaker_generator_a1_golden_value():
    alg = algebra("A", 1)
    rep = uqalg.rep_matrices(alg, "V1")
    chi = uqalg.character("e", (1,))
    w = oracle_whittaker_generator(alg, rep, chi)
    sq = (qpow(1) - qpow(-1)) * (qpow(1) - qpow(-1))
    want = (
        alg.k(rootsys.weight((1,))).scale(qpow(1))
        + alg.k(rootsys.weight((-1,))).scale(qpow(-1))
        + alg.f(0).scale(sq)
    )
    assert w == want


@pytest.mark.parametrize("series,rank,rep_names,chi_vals", [
    ("A", 1, ("V1",), (1,)),
    ("A", 2, ("V1", "V2"), (1, 1)),
    ("A", 2, ("V1", "V2"), (2, -3)),
])
def test_whittaker_generator_is_invariant(series, rank, rep_names, chi_vals):
    alg = algebra(series, rank)
    chi = uqalg.character("e", chi_vals)
    for name in rep_names:
        w = oracle_whittaker_generator(alg, uqalg.rep_matrices(alg, name), chi)
        assert w.is_lower_borel()
        for i in range(rank):
            assert not pbw.whittaker_action(alg.e(i), w, chi)


# non-unit rational values, so that a dropped or misplaced chi(e_beta) shows
_CHI_VALUES = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3),
               Fraction(7, 4))


def _assert_generator_is_projected_casimir(alg, rep_names, rng):
    chi = uqalg.character(
        "e", [rng.choice(_CHI_VALUES) for _ in range(alg.rs.rank)])
    for name in rep_names:
        rep = uqalg.rep_matrices(alg, name)
        want = uqalg.rho_chi(uqalg.casimir_CV(alg, rep), chi)
        assert oracle_whittaker_generator(alg, rep, chi) == want, name


@pytest.mark.parametrize("pi", [
    pi for rank in (1, 2, 3)
    for pi in itertools.permutations(range(1, rank + 1))],
    ids=lambda pi: "".join(map(str, pi)))
def test_whittaker_generator_equals_projected_casimir(pi):
    # oracle: the projected formula against the full central element
    rank = len(pi)
    rs = rootsys.build_root_system("A", rank)
    alg = pbw.PBWAlgebra(rootsys.coxeter_context(rs, pi))
    _assert_generator_is_projected_casimir(
        alg, [f"V{k + 1}" for k in range(rank)],
        random.Random(int("".join(map(str, pi)))))


def test_whittaker_generator_equals_projected_casimir_a4():
    rs = rootsys.build_root_system("A", 4)
    alg = pbw.PBWAlgebra(rootsys.coxeter_context(rs, (2, 1, 3, 4)))
    _assert_generator_is_projected_casimir(alg, ["V1", "V4"], random.Random(4))


def test_whittaker_generator_refuses_an_f_side_character():
    alg = algebra("A", 2)
    rep = uqalg.rep_matrices(alg, "V1")
    chi = uqalg.character("e", (2, -3))
    chibar = uqalg.character("f", (2, -3))
    # the Toda factors check the two sides, once per system
    with pytest.raises(ValueError, match="e-side character"):
        toda._simple_factors(alg, chibar, chibar)
    with pytest.raises(ValueError, match="f-side character"):
        toda._simple_factors(alg, chi, chi)
    with pytest.raises(ValueError, match="e-side character"):
        uqalg.rho_chi(uqalg.casimir_CV(alg, rep), chibar)


# The orderings the lowered simple-root product is checked on against the
# PBW oracle: every ordering of A1-A3 and two of A4.
ORACLE_ORDERINGS = [
    pi for rank in (1, 2, 3)
    for pi in itertools.permutations(range(1, rank + 1))
] + [(1, 2, 3, 4), (2, 1, 3, 4)]

_ORACLE_ALGEBRAS = {}


def oracle_algebra(pi):
    if pi not in _ORACLE_ALGEBRAS:
        rs = rootsys.build_root_system("A", len(pi))
        _ORACLE_ALGEBRAS[pi] = pbw.PBWAlgebra(rootsys.coxeter_context(rs, pi))
    return _ORACLE_ALGEBRAS[pi]


@pytest.mark.parametrize("pi", ORACLE_ORDERINGS,
                         ids=lambda pi: "".join(map(str, pi)))
def test_non_simple_root_vectors_vanish_on_the_whittaker_model(pi):
    # the fact the lowered product rests on: chi(e_beta) = 0 and the lowered
    # f_beta is 0 for every non-simple beta, computed in the algebra
    alg = oracle_algebra(pi)
    rank = len(pi)
    rng = random.Random(int("".join(map(str, pi))))
    chi = uqalg.character("e", [rng.choice(_CHI_VALUES) for _ in range(rank)])
    chibar = uqalg.character(
        "f", [rng.choice(_CHI_VALUES) for _ in range(rank)])
    non_simple = [beta for beta in alg.ordering.ordering if sum(beta) > 1]
    assert len(non_simple) == rank * (rank - 1) // 2
    for beta in non_simple:
        e_beta = pbw.root_vector(alg, beta, "+")
        f_beta = pbw.root_vector(alg, beta, "-")
        assert e_beta and f_beta
        assert pbw.apply_character(chi, e_beta) == ZERO, beta
        assert not toda.lower_rep(alg.rs, f_beta.terms, chibar), beta


def _assert_toda_matches_the_oracle(alg, chi, chibar):
    for k in range(alg.rs.rank):
        name = f"V{k + 1}"
        rep = uqalg.rep_matrices(alg, name)
        want = toda.phi_conjugate(toda.lower_rep(
            alg.rs, oracle_whittaker_generator(alg, rep, chi).terms, chibar))
        assert _hamiltonian(alg, name, chi, chibar) == want, name


@pytest.mark.parametrize("pi", ORACLE_ORDERINGS,
                         ids=lambda pi: "".join(map(str, pi)))
def test_toda_hamiltonian_equals_the_lowered_oracle(pi):
    alg = oracle_algebra(pi)
    rank = len(pi)
    rng = random.Random(int("".join(map(str, pi))) + 1)
    chi = uqalg.character("e", [rng.choice(_CHI_VALUES) for _ in range(rank)])
    chibar = uqalg.character(
        "f", [rng.choice(_CHI_VALUES) for _ in range(rank)])
    _assert_toda_matches_the_oracle(alg, chi, chibar)


@pytest.mark.parametrize("rank", [2, 3])
def test_toda_hamiltonian_equals_the_lowered_oracle_on_drawn_characters(rank):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nonzero = st.fractions(min_value=-5, max_value=5,
                           max_denominator=4).filter(bool)
    values = st.lists(nonzero, min_size=rank, max_size=rank)
    orderings = st.sampled_from(
        list(itertools.permutations(range(1, rank + 1))))

    @hypothesis.settings(max_examples=12, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(orderings, values, values)
    def check(pi, chi_vals, chibar_vals):
        _assert_toda_matches_the_oracle(
            oracle_algebra(pi), uqalg.character("e", chi_vals),
            uqalg.character("f", chibar_vals))

    check()


def test_rho_chi_multiplicative_on_computed_centre():
    alg1 = algebra("A", 1)
    chi1 = uqalg.character("e", (1,))
    c = uqalg.casimir_CV(alg1, uqalg.rep_matrices(alg1, "V1"))
    assert uqalg.rho_chi(c * c, chi1) == uqalg.rho_chi(c, chi1) * uqalg.rho_chi(c, chi1)

    alg2 = algebra("A", 2)
    chi2 = uqalg.character("e", (1, 2))
    c1 = uqalg.casimir_CV(alg2, uqalg.rep_matrices(alg2, "V1"))
    c2 = uqalg.casimir_CV(alg2, uqalg.rep_matrices(alg2, "V2"))
    lhs = uqalg.rho_chi(c1 * c2, chi2)
    rhs = uqalg.rho_chi(c1, chi2) * uqalg.rho_chi(c2, chi2)
    assert lhs == rhs


def test_discarded_algebra_is_freed_without_cyclic_gc():
    # neither the root-vector nor the scale cache may point back at its
    # algebra
    gc.disable()
    try:
        rs = rootsys.build_root_system("A", 2)
        alg = pbw.PBWAlgebra(rootsys.coxeter_context(rs))
        rep = uqalg.rep_matrices(alg, "V1")
        for beta in alg.ordering.ordering:
            for sign in "+-":
                pbw.root_vector(alg, beta, sign)
            pbw._root_constants(alg, rep, beta)
        assert alg._scale_cache
        assert pbw.root_vector(alg, (1, 1), "+").alg is alg
        ref = weakref.ref(alg)
        del alg, rep
        assert ref() is None
    finally:
        gc.enable()
