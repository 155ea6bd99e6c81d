import contextlib
import io
import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from oracles import (closed_form, fraction_pair, ladder_rows, module_f_leg,
                     operator_apply, scaled, shift_exponents, surviving_root,
                     toda_hamiltonian_by_q_exp, weight_coords)
from qwhit import acceptance, cli, pbw, qarith, rootsys, toda, uqalg
from qwhit.qarith import EXP_UNIT, ONE, ZERO, LaurentScalar, qpow
from qwhit.rootsys import weight
from qwhit.toda import DifferenceOperator

_ALGEBRAS = {}


def algebra(series, rank):
    key = (series, rank)
    if key not in _ALGEBRAS:
        rs = rootsys.build_root_system(series, rank)
        _ALGEBRAS[key] = pbw.PBWAlgebra(rootsys.coxeter_context(rs))
    return _ALGEBRAS[key]


def random_operator(rs, rng):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        lam = weight(Fraction(rng.randrange(-2, 3), rng.choice((1, 2)))
                     for _ in range(rs.rank))
        zexp = tuple(rng.randrange(0, 3) for _ in range(rs.rank))
        coeff = qpow(rng.randrange(-2, 3)) * LaurentScalar.from_rational(rng.randrange(1, 4))
        terms.setdefault(lam, {})[zexp] = coeff
    return DifferenceOperator(rs, terms)


def z_monomial(rs, zexp, coeff=qpow(0)):
    """The multiplication operator coeff * z^zexp."""
    return DifferenceOperator(rs, {(0,) * rs.rank: {tuple(zexp): coeff}})


# ---------------------------------------------------------------------------
# the operator calculus itself


def test_shifts_commute():
    rs = rootsys.build_root_system("A", 2)
    t1 = DifferenceOperator.shift(rs, weight((1, 0)))
    t2 = DifferenceOperator.shift(rs, weight((Fraction(1, 3), Fraction(2, 3))))
    assert not toda.commutator(t1, t2)


def test_operators_are_unhashable():
    # an operator wraps a mutable dict of terms
    rs = rootsys.build_root_system("A", 1)
    t = DifferenceOperator.shift(rs, weight((1,)))
    assert t * DifferenceOperator.shift(rs, (0,)) == t
    with pytest.raises(TypeError):
        hash(t)


def test_operators_meet_only_operators_and_scalars():
    # like PBWElement and LaurentScalar, an int operand is refused with a
    # TypeError rather than read for terms it does not have
    rs = rootsys.build_root_system("A", 1)
    t = DifferenceOperator.shift(rs, weight((1,)))
    for combine in (lambda: t + 1, lambda: t - 1, lambda: t * 2,
                    lambda: 1 + t, lambda: 2 * t):
        with pytest.raises(TypeError):
            combine()


def test_shift_past_z_picks_up_q_power():
    rs = rootsys.build_root_system("A", 2)
    lam = (Fraction(1), Fraction(-1))
    t = DifferenceOperator.shift(rs, weight(lam))
    z1 = z_monomial(rs, (1, 0))
    # T_lam z_1 = q^{-(lam, alpha_1)} z_1 T_lam
    scal = qpow(-fraction_pair(rs, lam, (1, 0)))
    assert t * z1 == scaled(z1 * t, scal)
    got = toda.commutator(z1, t)
    want = scaled(z1 * t, qpow(0) - scal)
    assert got == want


def test_operator_composition_is_associative():
    rs = rootsys.build_root_system("A", 2)
    rng = random.Random(11)
    for _ in range(40):
        d1, d2, d3 = (random_operator(rs, rng) for _ in range(3))
        assert (d1 * d2) * d3 == d1 * (d2 * d3)


def test_composition_agrees_with_sequential_application():
    rs = rootsys.build_root_system("A", 2)
    rng = random.Random(13)
    for _ in range(40):
        d1, d2 = random_operator(rs, rng), random_operator(rs, rng)
        func = {
            tuple(rng.randrange(0, 3) for _ in range(rs.rank)):
                LaurentScalar.from_rational(rng.randrange(1, 5))
            for _ in range(2)
        }
        lhs = operator_apply(d1 * d2, func)
        rhs = operator_apply(d1, operator_apply(d2, func))
        assert lhs == rhs


def test_apply_shift_on_exponential_monomial():
    # T_lam acting on the function z^b is multiplication by q^{-(lam, b)}
    rs = rootsys.build_root_system("A", 1)
    t = DifferenceOperator.shift(rs, weight((1,)))
    got = operator_apply(t, {(1,): qpow(0)})
    assert got == {(1,): qpow(-2)}


def reference_compose(rs, d1, d2):
    """Composition d1 after d2 of operators keyed by Fraction shifts, each
    pair of terms scaled by q^{-(lam1, b)} from the Fraction form."""
    out = {}
    for lam1, zp1 in d1.items():
        for lam2, zp2 in d2.items():
            slot = out.setdefault(tuple(a + b for a, b in zip(lam1, lam2)), {})
            for a, c1 in zp1.items():
                for b, c2 in zp2.items():
                    c = c1 * c2 * qpow(-fraction_pair(rs, lam1, b))
                    z = tuple(x + y for x, y in zip(a, b))
                    slot[z] = slot[z] + c if z in slot else c
    return out


def reference_apply(rs, d, func):
    out = {}
    for lam, zpart in d.items():
        for b, v in func.items():
            shifted = v * qpow(-fraction_pair(rs, lam, b))
            for a, c in zpart.items():
                z = tuple(x + y for x, y in zip(a, b))
                out[z] = out[z] + c * shifted if z in out else c * shifted
    return {z: c for z, c in out.items() if c}


def test_composition_and_action_match_the_fraction_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = [rootsys.build_root_system(*t) for t in
               (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("C", 3), ("D", 4))]
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    scalar = st.builds(lambda e, c: qpow(e) * LaurentScalar.from_rational(c),
                       st.integers(-2, 2), st.integers(-3, 3))

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rs = data.draw(st.sampled_from(systems))
        zexp = st.tuples(*[st.integers(-1, 2)] * rs.rank)
        terms = st.dictionaries(
            st.tuples(*[coord] * rs.rank),
            st.dictionaries(zexp, scalar, min_size=1, max_size=2),
            max_size=3)
        t1, t2 = data.draw(terms), data.draw(terms)
        func = data.draw(st.dictionaries(zexp, scalar, max_size=3))

        def op(t):
            return DifferenceOperator(rs, {weight(lam): zp for lam, zp in t.items()})

        want = DifferenceOperator(rs, {
            weight(lam): zp for lam, zp in reference_compose(rs, t1, t2).items()})
        assert op(t1) * op(t2) == want
        assert operator_apply(op(t1), func) == reference_apply(rs, t1, func)
        minus_one = LaurentScalar.from_rational(-1)
        assert -op(t1) == scaled(op(t1), minus_one)
        assert op(t1) - op(t2) == op(t1) + scaled(op(t2), minus_one)

    check()


def test_commutator_is_the_difference_of_the_two_compositions():
    # the one-pass commutator against d1 * d2 - d2 * d1.  Shifts have
    # half-unit coordinates, the zero operator is drawn (an empty dict), and
    # shifts and z-exponents come from small pools, so pairs of terms whose
    # two q-exponents agree, which the one pass skips, come up often
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = [rootsys.build_root_system(*t) for t in
               (("A", 1), ("A", 2), ("B", 2), ("G", 2))]
    coord = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
    scalar = st.builds(lambda e, c: qpow(e) * LaurentScalar.from_rational(c),
                       st.integers(-2, 2), st.integers(-3, 3))

    @hypothesis.settings(max_examples=80, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rs = data.draw(st.sampled_from(systems))
        zexp = st.tuples(*[st.integers(0, 2)] * rs.rank)
        terms = st.dictionaries(
            st.tuples(*[coord] * rs.rank),
            st.dictionaries(zexp, scalar, min_size=1, max_size=2),
            max_size=3)
        d1, d2 = (DifferenceOperator(rs, {weight(lam): zp for lam, zp in
                                          data.draw(terms).items()})
                  for _ in range(2))
        assert toda.commutator(d1, d2) == d1 * d2 - d2 * d1

    check()


def test_commutator_skips_the_pairs_whose_exponents_agree():
    rs = rootsys.build_root_system("A", 2)
    half = weight((Fraction(1, 2), Fraction(-1, 2)))
    t_half = DifferenceOperator(rs, {half: {(0, 0): qpow(1), (1, 0): qpow(-1)}})
    z1, z2 = z_monomial(rs, (1, 0)), z_monomial(rs, (0, 2), qpow(3))
    zero = DifferenceOperator(rs)
    # multiplication operators: every pair has both exponents 0; an operator
    # with itself: a term with itself is skipped and the other pairs cancel
    # two by two; the zero operator: no pairs at all
    for d1, d2 in ((z1, z2), (t_half, t_half), (zero, t_half), (t_half, zero)):
        assert not toda.commutator(d1, d2)
        assert not (d1 * d2 - d2 * d1)
    # (half, alpha_1) = 2 * 1/2 + (-1) * (-1/2) = 3/2 is not 0, so these do
    # not commute
    got = toda.commutator(t_half, z1)
    assert got
    assert got == t_half * z1 - z1 * t_half


# ---------------------------------------------------------------------------
# the commutation test in ints


def test_commutes_agrees_with_the_commutator():
    # commutes decides [d1, d2] = 0 in ints; the one-pass commutator is the
    # oracle.  Drawn: operators with half-unit shifts, rational contents and
    # two-monomial coefficients, their q-exponents integers or halves, so
    # that the step of the integer image must also divide the shifts
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    systems = [rootsys.build_root_system(*t) for t in
               (("A", 1), ("A", 2), ("B", 2), ("G", 2))]
    coord = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
    rational = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                         st.integers(1, 6))

    @hypothesis.settings(max_examples=80, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rs = data.draw(st.sampled_from(systems))
        exponent = st.builds(Fraction, st.integers(-4, 4),
                             st.just(data.draw(st.sampled_from((1, 2)))))
        monomial = st.builds(
            lambda e, c: qpow(e) * LaurentScalar.from_rational(c),
            exponent, rational)
        scalar = st.one_of(monomial, st.builds(
            lambda a, b: a + b, monomial, monomial).filter(bool))
        zexp = st.tuples(*[st.integers(0, 2)] * rs.rank)
        terms = st.dictionaries(
            st.tuples(*[coord] * rs.rank),
            st.dictionaries(zexp, scalar, min_size=1, max_size=2),
            max_size=3)
        d1, d2 = (DifferenceOperator(rs, {weight(lam): zp for lam, zp in
                                          data.draw(terms).items()})
                  for _ in range(2))
        # d1 commutes with d1 d1 + c d1 through identities of q-powers
        if data.draw(st.booleans()):
            d2 = d1 * d1 + scaled(d1, LaurentScalar.from_rational(
                data.draw(rational)))
        assert toda.commutes(d1, d2) == (not toda.commutator(d1, d2))

    check()


def test_commutes_agrees_with_the_commutator_on_hamiltonians():
    # Hamiltonians of A1-A3 with drawn rational characters commute; with
    # one coefficient scaled by a drawn rational, or a drawn term added,
    # they mostly do not
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                         st.sampled_from((2, 3, 4, 5, 6, 1)))

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rank = data.draw(st.integers(1, 3))
        values = st.lists(rational, min_size=rank, max_size=rank)
        system = toda.build_toda_system(
            algebra("A", rank), data.draw(values), data.draw(values))
        i, j = (data.draw(st.integers(0, rank - 1)) for _ in range(2))
        d1, d2 = system.hamiltonians[i], system.hamiltonians[j]
        spoil = data.draw(st.sampled_from(("none", "scale", "add")))
        if spoil == "scale":
            terms = {lam: dict(zp) for lam, zp in d2.terms.items()}
            lam = data.draw(st.sampled_from(sorted(terms)))
            z = data.draw(st.sampled_from(sorted(terms[lam])))
            terms[lam][z] = terms[lam][z] * LaurentScalar.from_rational(
                data.draw(rational))
            d2 = DifferenceOperator(d2.rs, terms)
        elif spoil == "add":
            lam = weight(data.draw(st.tuples(*[st.builds(
                Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))]
                * rank)))
            z = data.draw(st.tuples(*[st.integers(0, 1)] * rank))
            d2 = d2 + DifferenceOperator(d2.rs, {lam: {
                z: qpow(data.draw(st.integers(-2, 2)))
                * LaurentScalar.from_rational(data.draw(rational))}})
        assert toda.commutes(d1, d2) == (not toda.commutator(d1, d2))

    check()


def test_commutes_steps_by_the_shifts_as_well_as_the_exponents():
    # (q + 1) T_lam with lam = alpha_1 / 2, and q z_2: the coefficients
    # step by whole powers of q, while (lam, alpha_2) = -1/2, so the
    # commutator (q + 1) q (q^{1/2} - 1) z_2 T_lam needs the half step
    rs = rootsys.build_root_system("A", 2)
    d1 = DifferenceOperator(rs, {weight((Fraction(1, 2), 0)): {
        (0, 0): qpow(1) + ONE}})
    d2 = z_monomial(rs, (0, 1), qpow(1))
    assert toda.commutator(d1, d2)
    assert not toda.commutes(d1, d2)


@pytest.mark.parametrize("chi,chibar", [
    ((Fraction(2, 3), -5, Fraction(7, 2)), (1, Fraction(-1, 4), 3)),
    ((1, Fraction(-1, 4), 3), (Fraction(2, 3), -5, Fraction(7, 2)))])
def test_commutes_on_a3_with_rational_characters(chi, chibar):
    # every pair commutes, and one doubled coefficient is caught
    hams = toda.build_toda_system(algebra("A", 3), chi, chibar).hamiltonians
    assert all(toda.commutes(a, b) for a in hams for b in hams)
    terms = {lam: dict(zp) for lam, zp in hams[1].terms.items()}
    lam = max(terms)
    z = max(terms[lam])
    terms[lam][z] = terms[lam][z] * LaurentScalar.from_rational(2)
    doubled = DifferenceOperator(hams[1].rs, terms)
    assert toda.commutator(hams[0], doubled)
    assert not toda.commutes(hams[0], doubled)


def _l1(c):
    """The l1 norm of the coefficients of a Laurent polynomial scalar."""
    return abs(c.c) * sum(map(abs, c.n.values()))


def test_commutes_agrees_with_the_commutator_at_the_bound():
    # one term on each side, with positive int coefficients and a shift
    # that moves the two halves of the commutator apart: its coefficient
    # then has the l1 norm 2 N1 N2 of the bound B itself, with coefficients
    # up to about 2^80
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rs = rootsys.build_root_system("A", 2)
    poly = st.dictionaries(st.integers(-3, 3), st.integers(1, 2 ** 40),
                           min_size=1, max_size=4).map(LaurentScalar)

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        # (lam, alpha_1) = 2 t - s >= 14 exceeds the q-degree span 12 of
        # c1 c2, for lam with simple-root coordinates (t, s)
        t = data.draw(st.builds(Fraction, st.integers(16, 40), st.just(2)))
        lam = weight((t, data.draw(st.integers(-2, 2))))
        c1, c2 = data.draw(poly), data.draw(poly)
        d1 = DifferenceOperator(rs, {lam: {(0, 0): c1}})
        d2 = z_monomial(rs, (1, 0), c2)
        (coeff,), = (zp.values() for zp in toda.commutator(d1, d2)
                     .terms.values())
        assert _l1(coeff) == 2 * _l1(c1) * _l1(c2)
        assert not toda.commutes(d1, d2)

    check()


def test_commutes_fails_with_one_bit_less_than_the_proof_needs(monkeypatch):
    # the coefficients of a commutator sum to 0 at q = 1, so none exceeds
    # half its l1 bound B = 2 N1 N2, and the proof needs 2^K > N1 N2.  With
    # K one bit short of that, p(q) T_lam and z with p = q - 2^K and
    # (lam, alpha_1) = -1 give [d1, d2] = (q - 2^K)(q - 1) z T_lam, which
    # vanishes at q = 2^K: the test then calls them commuting
    rs = rootsys.build_root_system("A", 1)
    k = 4
    p = qpow(1) - LaurentScalar.from_rational(2 ** k)
    d1 = DifferenceOperator(rs, {weight((Fraction(-1, 2),)): {(0,): p}})
    d2 = z_monomial(rs, (1,))
    # N1 = 2^k + 1 and N2 = 1, so the proof needs K = k + 1
    assert _l1(p) == 2 ** k + 1
    assert toda.commutator(d1, d2)
    assert not toda.commutes(d1, d2)
    monkeypatch.setattr(qarith, "kronecker_bits",
                        lambda bound: (bound // 2).bit_length() - 1)
    assert toda.commutes(d1, d2)


def test_commutes_refuses_a_coefficient_with_a_non_unit_denominator(
        monkeypatch, capsys):
    # no Toda Hamiltonian has such a coefficient, and it has no integer
    # image: integer_image and commutes raise ArithmeticError naming the
    # denominator, and a toda call stops with exit 1 on it
    rs = rootsys.build_root_system("A", 2)
    system = toda.build_toda_system(algebra("A", 2), (2, -3), (7, 5))
    m1, m2 = system.hamiltonians
    ratio = (qpow(1) + LaurentScalar.from_rational(2)).inverse()
    message = "the non-unit denominator 1 + 1/2*q, so it has no integer image"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        qarith.integer_image([ONE, ratio])
    spoiled = (scaled(m1, ratio), m1 + scaled(DifferenceOperator.shift(
        rs, weight((Fraction(1, 2), 0))), ratio))
    for d1 in spoiled:
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            toda.commutes(d1, m2)
    assert toda.commutes(m1, m2)
    real = toda.toda_hamiltonian

    def spoiling(alg, rep_name, factors, covectors):
        return scaled(real(alg, rep_name, factors, covectors), ratio)

    monkeypatch.setattr(toda, "toda_hamiltonian", spoiling)
    assert cli.main(["toda", "--type", "A", "--rank", "2",
                     "--check-commute"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qwhit toda: the q-scalar ")
    assert captured.err.splitlines()[0].endswith(message)


def test_the_system_image_agrees_with_the_pairwise_commutator():
    # one integer image for all the Hamiltonians of a drawn A1-A4 system,
    # against the commutator of every pair; one Hamiltonian spoiled by a
    # drawn scaled coefficient or added term, or none
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                         st.integers(1, 5))

    @hypothesis.settings(max_examples=30, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rank = data.draw(st.integers(1, 4))
        pi = tuple(data.draw(st.permutations(range(1, rank + 1))))
        rs = rootsys.build_root_system("A", rank)
        values = st.lists(rational, min_size=rank, max_size=rank)
        hams = list(toda.build_toda_system(
            uqalg.Algebra(rootsys.coxeter_context(rs, pi)),
            data.draw(values), data.draw(values)).hamiltonians)
        k = data.draw(st.integers(0, rank - 1))
        spoil = data.draw(st.sampled_from(("none", "scale", "add")))
        if spoil == "scale":
            terms = {lam: dict(zp) for lam, zp in hams[k].terms.items()}
            lam = data.draw(st.sampled_from(sorted(terms)))
            z = data.draw(st.sampled_from(sorted(terms[lam])))
            terms[lam][z] = terms[lam][z] * LaurentScalar.from_rational(
                data.draw(rational))
            hams[k] = DifferenceOperator(rs, terms)
        elif spoil == "add":
            lam = weight(data.draw(st.tuples(*[st.builds(
                Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))]
                * rank)))
            z = data.draw(st.tuples(*[st.integers(0, 1)] * rank))
            hams[k] = hams[k] + DifferenceOperator(rs, {lam: {
                z: qpow(data.draw(st.integers(-2, 2)))
                * LaurentScalar.from_rational(data.draw(rational))}})
        pairwise = all(not toda.commutator(a, b)
                       for a, b in itertools.combinations(hams, 2))
        assert toda.commutes(*hams) == pairwise
        if spoil == "none":
            assert pairwise

    check()


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_the_system_image_catches_a_single_failing_pair(order):
    # T_{omega_2} commutes with T_{omega_1} and with z_1, since
    # (omega_2, alpha_1) = 0, while T_{omega_1} z_1 = q^{-1} z_1 T_{omega_1}:
    # one pair of the three fails, wherever it comes in the order
    rs = rootsys.build_root_system("A", 2)
    ops = [DifferenceOperator.shift(rs, rs.fundamental_weights[1]),
           DifferenceOperator.shift(rs, rs.fundamental_weights[0]),
           z_monomial(rs, (1, 0), qpow(1) + ONE)]
    ops = [ops[k] for k in order]
    fails = [(a, b) for a, b in itertools.combinations(range(3), 2)
             if toda.commutator(ops[a], ops[b])]
    assert len(fails) == 1
    assert not toda.commutes(*ops)
    assert toda.commutes(*[ops[k] for k in range(3)
                           if k not in fails[0][:1]])


def test_sum_codes_add_up_to_a_code_of_the_sum():
    # two vectors from any two of the lists have codes whose sum is the
    # same exactly when the vectors' sums are
    rng = random.Random(5)
    for _ in range(30):
        vss = [[tuple(rng.randint(-3, 3) for _ in range(2))
                for _ in range(rng.randint(1, 4))] for _ in range(3)]
        codes = toda._sum_codes(vss)
        sums = {}
        for a, b in itertools.combinations_with_replacement(range(3), 2):
            for v, cv in zip(vss[a], codes[a]):
                for w, cw in zip(vss[b], codes[b]):
                    key = tuple(map(sum, zip(v, w)))
                    assert sums.setdefault(cv + cw, key) == key


def test_a_single_hamiltonian_commutes():
    system = toda.build_toda_system(algebra("A", 1), (Fraction(2, 3),), (-5,))
    assert len(system.hamiltonians) == 1
    assert toda.commutes(*system.hamiltonians)
    assert toda.commutes()


def test_the_system_image_takes_k_from_its_largest_pair_bound(monkeypatch):
    # with d1, d2 of the one-bit test and the identity as a third operator,
    # the pairs have the bounds 2 (2^k + 1), 2 (2^k + 1) and 2; K for the
    # smallest of them would be k, at which (q - 2^k)(q - 1) z T_lam
    # vanishes, so the system would be called commuting
    rs = rootsys.build_root_system("A", 1)
    k = 5
    d1 = DifferenceOperator(rs, {weight((Fraction(-1, 2),)): {
        (0,): qpow(1) - LaurentScalar.from_rational(2 ** k)}})
    d2 = z_monomial(rs, (1,))
    one = DifferenceOperator.shift(rs, (0,))
    assert qarith.kronecker_bits(2) == k
    bounds = []
    real = qarith.kronecker_bits

    def recorded(bound):
        bounds.append(bound)
        return real(bound)

    monkeypatch.setattr(qarith, "kronecker_bits", recorded)
    assert not toda.commutes(d1, one, d2)
    assert bounds == [2 * (2 ** k + 1)]


# ---------------------------------------------------------------------------
# lowering the Whittaker model to difference operators


def test_lower_rep_of_cartan_is_shift():
    alg = algebra("A", 2)
    chibar = uqalg.character("f", (1, 1))
    lam = weight((Fraction(1, 3), Fraction(-2, 3)))
    got = toda.lower_rep(alg.rs, alg.k(lam).terms, chibar)
    assert got == DifferenceOperator.shift(alg.rs, lam)


def test_lower_rep_of_f_is_z_multiplication():
    alg = algebra("A", 2)
    chibar = uqalg.character("f", (3, 5))
    got = toda.lower_rep(alg.rs, alg.f(0).terms, chibar)
    want = z_monomial(alg.rs, (1, 0), LaurentScalar.from_rational(3))
    assert got == want


def test_lower_rep_kills_non_simple_root_vectors():
    alg = algebra("A", 2)
    chibar = uqalg.character("f", (1, 1))
    fv = pbw.root_vector(alg, (1, 1), "-")
    assert not toda.lower_rep(alg.rs, fv.terms, chibar)


def test_lower_rep_rejects_bad_input():
    alg = algebra("A", 2)
    chibar = uqalg.character("f", (1, 1))
    with pytest.raises(ValueError):
        toda.lower_rep(alg.rs, alg.e(0).terms, chibar)
    chi = uqalg.character("e", (1, 1))
    with pytest.raises(ValueError):
        toda.lower_rep(alg.rs, alg.f(0).terms, chi)


def test_lower_rep_is_algebra_map_on_borel():
    alg = algebra("A", 2)
    chibar = uqalg.character("f", (2, 3))
    rng = random.Random(17)

    def lower_element():
        tokens = []
        for _ in range(rng.randrange(1, 4)):
            if rng.randrange(2):
                tokens.append(("f", rng.randrange(2)))
            else:
                tokens.append(("k", tuple(rng.randrange(-1, 2) for _ in range(2))))
        return alg.word(tokens)

    for _ in range(50):
        x, y = lower_element(), lower_element()
        lhs = toda.lower_rep(alg.rs, (x * y).terms, chibar)
        rhs = (toda.lower_rep(alg.rs, x.terms, chibar)
               * toda.lower_rep(alg.rs, y.terms, chibar))
        assert lhs == rhs


def test_phi_conjugate_examples():
    rs = rootsys.build_root_system("A", 2)
    one = DifferenceOperator.shift(rs, (0,) * rs.rank)
    assert toda.phi_conjugate(one) == one
    lam = (Fraction(1), Fraction(1))
    t = DifferenceOperator.shift(rs, weight(lam))
    scal = qpow(-fraction_pair(rs, weight_coords(rs.rho), lam))
    assert toda.phi_conjugate(t) == scaled(t, scal)
    z1t = DifferenceOperator(rs, {weight(lam): {(1, 0): qpow(0)}})
    assert toda.phi_conjugate(z1t) == scaled(z1t, scal)


# ---------------------------------------------------------------------------
# the Hamiltonians


def _hamiltonian(alg, rep_name, chi, chibar):
    """``toda.toda_hamiltonian`` of one module, with the simple-root factors
    of the two characters built for it alone."""
    return toda.toda_hamiltonian(alg, rep_name,
                                 toda._simple_factors(alg, chi, chibar),
                                 rootsys.Covectors(alg.rs))


def test_a1_hamiltonian_golden_form():
    alg = algebra("A", 1)
    chi = uqalg.character("e", (1,))
    chibar = uqalg.character("f", (1,))
    m1 = _hamiltonian(alg, "V1", chi, chibar)
    rs = alg.rs
    sq = (qpow(1) - qpow(-1)) * (qpow(1) - qpow(-1))
    want = (
        DifferenceOperator.shift(rs, weight((1,)))
        + DifferenceOperator.shift(rs, weight((-1,)))
        + z_monomial(rs, (1,), sq)
    )
    assert m1 == want


def test_a_surviving_non_simple_factor_raises_naming_its_root(monkeypatch):
    # shift every q-commutator exponent of the segments table, so that
    # chi(e_beta) and chibar(f_beta) no longer vanish
    real = rootsys.normal_ordering

    def shifted(ctx):
        no = real(ctx)
        return shift_exponents(no, dict.fromkeys(no.segments, EXP_UNIT))

    monkeypatch.setattr(rootsys, "normal_ordering", shifted)
    rs = rootsys.build_root_system("A", 3)
    alg = uqalg.Algebra(rootsys.coxeter_context(rs, (2, 1, 3)))
    chi = uqalg.character("e", (2, -3, 5))
    chibar = uqalg.character("f", (1, 7, -1))
    with pytest.raises(RuntimeError) as info:
        _hamiltonian(alg, "V1", chi, chibar)
    message = str(info.value)
    beta = next(b for b in alg.ordering.ordering if sum(b) == 2)
    assert f"non-simple root {beta} " in message
    assert "for the ordering 2,1,3" in message


def test_the_integer_vanishing_check_names_the_root_the_recursion_names():
    # the check on w alone against the q-scalar recursion it replaced, with
    # the exponents of drawn roots shifted, on simply- and non-simply-laced
    # orderings
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    orderings = []
    for series, rank in (("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                         ("C", 3), ("G", 2)):
        rs = rootsys.build_root_system(series, rank)
        for pi in ((None,) if rank > 3 else
                   itertools.permutations(range(1, rank + 1))):
            ctx = rootsys.coxeter_context(rs, pi)
            orderings.append((ctx, rootsys.normal_ordering(ctx)))
    value = st.sampled_from((1, -1, 2, Fraction(-3, 4), 5))

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        ctx, no = data.draw(st.sampled_from(orderings))
        shifts = {}
        for beta in data.draw(st.lists(st.sampled_from(list(no.segments)),
                                       unique=True)):
            w = no.segments[beta][2]
            shifts[beta] = data.draw(st.one_of(
                st.integers(-2 * EXP_UNIT, 2 * EXP_UNIT), st.just(-w)))
        no = shift_exponents(no, shifts)
        rank = ctx.rs.rank
        chi = uqalg.character("e", data.draw(st.lists(
            value, min_size=rank, max_size=rank)))
        chibar = uqalg.character("f", data.draw(st.lists(
            value, min_size=rank, max_size=rank)))
        want = surviving_root(no, chi, chibar)
        alg = SimpleNamespace(ctx=ctx, ordering=no)
        if want is None:
            toda._check_non_simple_factors_vanish(alg)
        else:
            with pytest.raises(RuntimeError,
                               match=re.escape(f"non-simple root {want} ")):
                toda._check_non_simple_factors_vanish(alg)

    check()


@pytest.mark.parametrize("rank,chi_vals,chibar_vals", [
    (1, (1,), (1,)),
    (2, (1, 1), (1, 1)),
    (2, (2, 3), (5, 7)),
    (3, (1, 1, 1), (1, 1, 1)),
])
def test_pipeline_matches_closed_form(rank, chi_vals, chibar_vals):
    alg = algebra("A", rank)
    chi = uqalg.character("e", chi_vals)
    chibar = uqalg.character("f", chibar_vals)
    m1 = _hamiltonian(alg, "V1", chi, chibar)
    assert m1 == toda.closed_form_M1(alg, chi.values, chibar.values)


def _drawn_rationals(rng, n):
    return [Fraction(rng.choice([-9, -5, -2, -1, 1, 3, 4, 7]),
                     rng.randint(1, 5)) for _ in range(n)]


@pytest.mark.parametrize("rank,orderings", [
    *[(rank, list(itertools.permutations(range(1, rank + 1))))
      for rank in range(1, 5)],
    (5, [(2, 4, 1, 5, 3)]), (6, [(6, 4, 2, 1, 3, 5)])],
    ids=[f"A{rank}" for rank in range(1, 7)])
def test_the_one_pass_lowering_is_the_q_exponential_pipeline(rank, orderings):
    # each simple-root factor applied as 1 + x in place, against the
    # pipeline through times_q_exp and against the closed form, on every
    # ordering of A1-A4 and on fixed A5/A6 orderings, with characters drawn
    # for each ordering
    rs = rootsys.build_root_system("A", rank)
    rng = random.Random(rank)
    for pi in orderings:
        alg = uqalg.Algebra(rootsys.coxeter_context(rs, pi))
        chi = uqalg.character("e", _drawn_rationals(rng, rank))
        chibar = uqalg.character("f", _drawn_rationals(rng, rank))
        for k in range(1, rank + 1):
            ham = _hamiltonian(alg, f"V{k}", chi, chibar)
            assert ham == toda_hamiltonian_by_q_exp(
                alg, f"V{k}", chi, chibar), (pi, k)
            assert ham == closed_form(rs, k, chi.values, chibar.values), (
                pi, k)


def _chained_modules(monkeypatch, name, side, i):
    """Make uqalg.rep_matrices give the module name with a chain r -> c ->
    r added to its side-ladder i, after the module's own checks."""
    real = uqalg.rep_matrices

    def chained(alg, rep_name, *covectors):
        rep = real(alg, rep_name, *covectors)
        if rep_name == name:
            ladder = (rep.e_mats if side == "e" else rep.f_mats)[i]
            r, (c, _) = next(iter(ladder.items()))
            ladder[c] = (r, 0)
        return rep

    monkeypatch.setattr(uqalg, "rep_matrices", chained)


@pytest.mark.parametrize("side,i", [("e", 1), ("f", 1), ("e", 0),
                                    ("f", 2)])
def test_a_ladder_with_a_chain_of_length_two_raises(monkeypatch, side, i):
    # exp_t(x) is 1 + x only when x^2 = 0, so a chained ladder must stop
    # the lowering with the module and the root it belongs to
    _chained_modules(monkeypatch, "V2", side, i)
    alg = algebra("A", 3)
    chi = uqalg.character("e", (2, -3, 5))
    chibar = uqalg.character("f", (1, 7, -1))
    assert _hamiltonian(alg, "V1", chi, chibar)
    message = rf"^V2: pi\({side}_{i}\) has a chain of length 2"
    with pytest.raises(RuntimeError, match=message):
        _hamiltonian(alg, "V2", chi, chibar)


def test_a_chained_ladder_exits_1_through_the_cli(monkeypatch, capsys):
    _chained_modules(monkeypatch, "V3", "f", 0)
    assert cli.main(["toda", "--type", "A", "--rank", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "qwhit toda: invariant failure: V3: pi(f_0) has a chain of length "
        "2, so its R-matrix factor is not 1 + x"]


def _assert_every_hamiltonian_is_its_closed_form(rank, pi, chi, chibar):
    rs = rootsys.build_root_system("A", rank)
    alg = uqalg.Algebra(rootsys.coxeter_context(rs, pi))
    system = toda.build_toda_system(alg, chi, chibar)
    for k, ham in enumerate(system.hamiltonians, 1):
        assert ham == closed_form(rs, k, system.chi.values,
                                  system.chibar.values), (pi, k)
        # one term per (I, J): sum over the k-subsets I of 2^|boundary(I)|
        assert sum(map(len, ham.terms.values())) == sum(
            2 ** sum(j <= rank and j + 1 not in subset for j in subset)
            for subset in itertools.combinations(range(1, rank + 2), k))


def test_every_hamiltonian_is_its_closed_form():
    # H_1..H_n on drawn orderings of A1-A4 with drawn rational characters
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                         st.integers(1, 5))

    @hypothesis.settings(max_examples=30, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        rank = data.draw(st.integers(1, 4))
        pi = data.draw(st.permutations(range(1, rank + 1)))
        chi, chibar = (data.draw(st.lists(rational, min_size=rank,
                                          max_size=rank)) for _ in "ab")
        _assert_every_hamiltonian_is_its_closed_form(rank, tuple(pi), chi,
                                                     chibar)

    check()


@pytest.mark.parametrize("rank,pi", [
    (5, (1, 2, 3, 4, 5)), (5, (3, 5, 1, 4, 2)), (6, (1, 2, 3, 4, 5, 6)),
    (6, (6, 4, 2, 1, 3, 5))])
def test_every_hamiltonian_is_its_closed_form_at_higher_rank(rank, pi):
    chi = [Fraction(3, 2), -2, Fraction(1, 3), 5, -1, Fraction(-7, 4)][:rank]
    chibar = [2, Fraction(-1, 2), 3, Fraction(5, 3), 1, -4][:rank]
    _assert_every_hamiltonian_is_its_closed_form(rank, pi, chi, chibar)


@pytest.mark.parametrize("mutation", ["drop boundary", "flip alpha",
                                      "first power"])
def test_a_spoiled_closed_form_misses_every_hamiltonian(mutation):
    alg = algebra("A", 3)
    system = toda.build_toda_system(alg, (2, Fraction(-1, 3), 5),
                                    (Fraction(3, 4), 1, -2))
    for k, ham in enumerate(system.hamiltonians, 1):
        assert ham == closed_form(alg.rs, k, system.chi.values,
                                  system.chibar.values)
        assert ham != closed_form(alg.rs, k, system.chi.values,
                                  system.chibar.values, mutation), k


def test_closed_form_degenerates_to_free_hamiltonian():
    alg = algebra("A", 2)
    free = toda.closed_form_M1(alg, (ZERO, ZERO), (ZERO, ZERO))
    rep = uqalg.rep_matrices(alg, "V1")
    want = DifferenceOperator(alg.rs)
    for mu in rep.weights:
        want = want + DifferenceOperator.shift(alg.rs, tuple(2 * x for x in mu))
    assert free == want


def test_closed_form_rejects_other_series():
    alg = algebra("B", 2)
    with pytest.raises(ValueError):
        toda.closed_form_M1(alg, (ONE, ONE), (ONE, ONE))


@pytest.mark.parametrize("rank,pairs", [
    (2, [(0, 1)]),
    (3, [(0, 1), (0, 2), (1, 2)]),
])
def test_hamiltonians_commute(rank, pairs):
    alg = algebra("A", rank)
    system = toda.build_toda_system(alg, (1,) * rank, (1,) * rank)
    for i, j in pairs:
        assert not toda.commutator(system.hamiltonians[i], system.hamiltonians[j])


def test_the_toda_path_hashes_no_fraction(monkeypatch):
    # weights, PBW keys and shifts are int tuples, so building and checking
    # the Hamiltonians never hashes a Fraction; serialisation is not counted
    rs = rootsys.build_root_system("A", 3)
    alg = uqalg.Algebra(rootsys.coxeter_context(rs))
    calls = []
    real = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    system = toda.build_toda_system(alg, (2, -3, 5), (1, 7, -1))
    commute = toda.commutes(*system.hamiltonians)
    monkeypatch.undo()
    assert commute
    assert calls == []


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_the_toda_path_completes_no_serre_rule(rank):
    # the Hamiltonians are lowered factor by factor and reduce no PBW word,
    # so the algebra never starts its Serre completion
    rs = rootsys.build_root_system("A", rank)
    alg = uqalg.Algebra(rootsys.coxeter_context(rs))
    system = toda.build_toda_system(alg, (2, -3, 5)[:rank], (1, 7, -1)[:rank])
    assert toda.closed_form_holds(system)
    assert toda.commutes(*system.hamiltonians)
    assert alg.rules == []
    assert not hasattr(alg, "_steps")


def test_hamiltonians_commute_generic_characters():
    alg = algebra("A", 2)
    system = toda.build_toda_system(alg, (2, -3), (7, 5))
    m1, m2 = system.hamiltonians
    assert not toda.commutator(m1, m2)


# ---------------------------------------------------------------------------
# quasiclassical limit


def test_eps_series_of_coupling():
    sq = (qpow(1) - qpow(-1)) * (qpow(1) - qpow(-1))
    assert acceptance.eps_series(sq, 2) == [0, 0, 4]
    inv = (qpow(1) + qpow(-1)).inverse()
    assert acceptance.eps_series(inv, 0) == [Fraction(1, 2)]


@pytest.mark.parametrize("rank,chi_vals,chibar_vals", [
    (1, (1,), (1,)),
    (1, (3,), (-2,)),
    (2, (1, 1), (1, 1)),
])
def test_quasiclassical_check_passes(rank, chi_vals, chibar_vals):
    alg = algebra("A", rank)
    system = toda.build_toda_system(alg, chi_vals, chibar_vals)
    report = acceptance.quasiclassical_potential_check(system)
    assert report["ok"]
    rho = weight_coords(alg.rs.rho)
    assert report["ignored_constant"] == str(fraction_pair(alg.rs, rho, rho))
    assert all(item["ok"] for item in report["kinetic"])
    assert all(item["ok"] for item in report["potential"])


def test_quasiclassical_check_guards_its_domain():
    alg = algebra("A", 3)
    system = toda.build_toda_system(alg, (1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        acceptance.quasiclassical_potential_check(system)


def test_simple_root_legs_are_the_module_f_legs():
    # the ladder leg K_{T alpha_i} pi(f_i) with the shared scale
    # q_i - q_i^{-1} (unit characters leave chi(e_i) times it the scale),
    # against the leg evaluated from PBW root vectors with the scale read
    # off [pi(e_i), pi(f_i)], on every ordering of A1-A5; the shared chibar
    # leg is the lowered scale times K_{T alpha_i} f_i
    for rank in range(1, 6):
        rs = rootsys.build_root_system("A", rank)
        chi = uqalg.character("e", (1,) * rank)
        chibar = uqalg.character("f", (1,) * rank)
        for pi in itertools.permutations(range(1, rank + 1)):
            alg = pbw.PBWAlgebra(rootsys.coxeter_context(rs, pi))
            factors = toda._simple_factors(alg, chi, chibar)
            assert sorted(i for i, *_ in factors) == list(range(rank))
            for i, t_alpha, scale, f_leg in factors:
                assert f_leg == toda.lower_rep(alg.rs, (
                    alg.k(t_alpha) * alg.f(i)).scale(scale).terms, chibar)
            for k in range(rank):
                rep = uqalg.rep_matrices(alg, f"V{k + 1}")
                for i, t_alpha, scale, _ in factors:
                    leg = rep.k_times(t_alpha, ladder_rows(rep.f_mats[i]))
                    alpha = rs.simple_root(i)
                    want_scale = pbw._root_constants(alg, rep, alpha)[0]
                    want_leg = module_f_leg(alg, rep, alpha)
                    assert (scale, leg) == (want_scale, want_leg)


def test_the_shared_legs_are_built_once_per_system(monkeypatch):
    # an A3 system lowers 3 chibar legs, one per simple root and not one per
    # module and root, and every system, even one with the same characters,
    # lowers its own
    alg = uqalg.Algebra(rootsys.coxeter_context(
        rootsys.build_root_system("A", 3)))
    lowered = []
    real = toda.lower_rep

    def counting(rs, terms, chibar):
        lowered.append(terms)
        return real(rs, terms, chibar)

    monkeypatch.setattr(toda, "lower_rep", counting)
    system = toda.build_toda_system(alg, (2, -1, 3), (1, 5, -3))
    assert len(lowered) == 3
    again = toda.build_toda_system(alg, (2, -1, 3), (1, 5, -3))
    assert len(lowered) == 6 and again.hamiltonians == system.hamiltonians
    other = toda.build_toda_system(alg, (1, 1, 1), (1, 5, -3))
    assert len(lowered) == 9 and other.hamiltonians != system.hamiltonians


# What the PBW engine keeps on a pbw.PBWAlgebra and not on the datum.
_ENGINE_TABLES = ("_steps", "_budget", "_reduce_cache", "_etf_cache",
                  "_root_vector_cache", "_scale_cache", "_pending", "_degree",
                  "letter_rank", "zero_weight")


@pytest.mark.parametrize("pi", [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
def test_the_toda_system_does_no_pbw_work(pi):
    # no root vector is built, no scale derived, no word reduced: the datum
    # has none of the engine's tables, and no rule
    rs = rootsys.build_root_system("A", 3)
    ctx = rootsys.coxeter_context(rs, pi)
    alg = uqalg.Algebra(ctx)
    system = toda.build_toda_system(alg, (2, -1, Fraction(1, 3)), (1, 5, -3))
    assert toda.commutes(*system.hamiltonians)
    assert [name for name in _ENGINE_TABLES if hasattr(alg, name)] == []
    assert alg.rules == []
    engine = pbw.PBWAlgebra(ctx)
    assert all(hasattr(engine, name) for name in _ENGINE_TABLES)


def test_a_toda_call_computes_each_covector_once(monkeypatch):
    # the Hamiltonians, their products, rho's pairings, the commutation
    # check and the modules of one call share one covector table
    seen = []
    real = rootsys.RootSystemData.covector

    def counting(self, x):
        seen.append(tuple(x))
        return real(self, x)

    monkeypatch.setattr(rootsys.RootSystemData, "covector", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["toda", "--type", "A", "--rank", "3",
                             "--check-commute"])
    assert code == 0
    assert seen and len(seen) == len(set(seen))
