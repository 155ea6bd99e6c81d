import math
import random
from fractions import Fraction

import pytest

from qwhit import qarith, ratmat, rootsys
from qwhit.qarith import EXP_UNIT, ONE, ZERO, LaurentScalar, q_binom, q_int, qpow


def random_scalar(rng, allow_den=True):
    num = {}
    for _ in range(rng.randint(1, 4)):
        e = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2]))
        num[e] = num.get(e, Fraction(0)) + Fraction(rng.randint(-5, 5))
    if not allow_den or rng.random() < 0.5:
        return LaurentScalar(num)
    den = {Fraction(0): Fraction(1)}
    for _ in range(rng.randint(0, 2)):
        e = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
        den[e] = den.get(e, Fraction(0)) + Fraction(rng.randint(-3, 3))
    try:
        return LaurentScalar(num, den)
    except ZeroDivisionError:
        return LaurentScalar(num)


def test_field_axioms_on_random_samples():
    rng = random.Random(20240817)
    for _ in range(60):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (ONE / a) * a == ONE


def test_canonical_form_cancels_common_factors():
    q = qpow(1)
    assert (q * q - 1) / (q - 1) == q + 1
    assert (q - 1) / (qpow(Fraction(1, 2)) - 1) == qpow(Fraction(1, 2)) + 1
    x = (q ** 3 - q ** -3) / (q - q ** -1)
    assert x == q ** 2 + 1 + q ** -2
    assert x.is_polynomial()


def test_zero_and_equality_are_structural():
    q = qpow(1)
    assert ((q + 1) * (q - 1) - (q * q - 1)).is_zero()
    assert not (q - 1).is_zero()
    assert LaurentScalar.from_rational(Fraction(3, 4)).as_rational() == Fraction(3, 4)
    with pytest.raises(ValueError):
        (q + 1).as_rational()


def test_bar_is_a_multiplicative_involution():
    rng = random.Random(7)
    assert qpow(3).bar() == qpow(-3)
    for _ in range(30):
        a = random_scalar(rng)
        b = random_scalar(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_q_int_small_values():
    q = qpow(1)
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(2) == q + q ** -1
    assert q_int(3) == q ** 2 + 1 + q ** -2
    assert q_int(-3) == -q_int(3)
    # base q^d is the substitution q -> q^d
    assert q_int(2, 3) == qpow(3) + qpow(-3)
    assert q_int(4, Fraction(1, 2)) == (qpow(2) - qpow(-2)) / (qpow(Fraction(1, 2)) - qpow(Fraction(-1, 2)))


def test_q_int_is_the_defining_ratio():
    for n in range(1, 7):
        for d in (1, 2, 3):
            lhs = q_int(n, d) * (qpow(d) - qpow(-d))
            assert lhs == qpow(d * n) - qpow(-d * n)


def test_q_binom_polynomial_bar_invariant_and_classical_limit():
    for m in range(6):
        for k in range(m + 1):
            v = q_binom(m, k)
            assert v.is_polynomial()
            assert v.bar() == v
            assert v.eps_series(0)[0] == math.comb(m, k)


def test_q_binom_pascal_rule():
    for m in range(1, 6):
        for k in range(m + 1):
            lhs = q_binom(m, k)
            rhs = qpow(k) * q_binom(m - 1, k) + qpow(k - m) * q_binom(m - 1, k - 1)
            assert lhs == rhs


def test_q_binom_times_factorials_is_the_factorial():
    def factorial(n, d):
        out = ONE
        for k in range(2, n + 1):
            out = out * q_int(k, d)
        return out

    for d in (1, 2, 3, Fraction(1, 2)):
        for m in range(7):
            for k in range(m + 1):
                lhs = q_binom(m, k, d) * factorial(k, d) * factorial(m - k, d)
                assert lhs == factorial(m, d)
    assert q_binom(3, 4) == ZERO
    assert q_binom(3, -1) == ZERO


def test_alternating_sum_factors_and_vanishing_set():
    # gauss_product_check raises if the closed product form ever disagrees
    for m in range(1, 6):
        for c in range(-(m + 2), m + 3):
            qarith.gauss_product_check(m, c)
        expected = [c for c in range(-(m + 2), m + 3)
                    if abs(c) <= m - 1 and (c - (m - 1)) % 2 == 0]
        assert qarith.qbinom_root_scan(m) == expected


def test_eps_series_expansion_around_one():
    assert qpow(1).eps_series(2) == [1, 1, 0]
    assert qpow(2).eps_series(2) == [1, 2, 1]
    assert qpow(Fraction(1, 2)).eps_series(2) == [1, Fraction(1, 2), Fraction(-1, 8)]
    assert (qpow(1) - qpow(-1)).eps_series(2) == [0, 2, -1]
    assert q_int(3).eps_series(0) == [3]


def test_q_exp_nilpotent_matches_truncated_series():
    q = qpow(1)
    t = q * q
    x = ((ZERO, ONE, ZERO), (ZERO, ZERO, ONE), (ZERO, ZERO, ZERO))
    got = qarith.q_exp_nilpotent(x, t, ONE, ZERO)
    two_t = ONE + t
    expect = (
        (ONE, ONE, two_t.inverse()),
        (ZERO, ONE, ONE),
        (ZERO, ZERO, ONE),
    )
    assert got == expect
    with pytest.raises(ArithmeticError):
        qarith.q_exp_nilpotent(((ONE,),), t, ONE, ZERO)


def test_mat_inv_unipotent_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 4)
        x = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    x[i][j] = random_scalar(rng, allow_den=False)
        inv = ratmat.inv_unipotent(x, ONE, ZERO)
        one = ratmat.eye(n, ONE, ZERO)
        assert ratmat.mmul(x, inv, ZERO) == one
        assert ratmat.mmul(inv, x, ZERO) == one


def test_kron_and_trace_helpers():
    a = [[ONE, qpow(1)], [ZERO, ONE]]
    b = [[qpow(-1), ZERO], [ZERO, qpow(1)]]
    k = ratmat.kron(a, b, ZERO)
    assert len(k) == 4
    # block (0,1) of the product is a[0][1] * b
    assert k[0][2] == qpow(1) * qpow(-1)
    assert k[1][3] == qpow(1) * qpow(1)


def _orderings(rank):
    ident = tuple(range(1, rank + 1))
    return dict.fromkeys([ident, ident[::-1], (ident[1:2] + ident[:1] + ident[2:])])


def _supported_types():
    for series in rootsys.SUPPORTED_SERIES:
        for rank in range(1, rootsys.MAX_RANK + 1):
            try:
                yield rootsys.build_root_system(series, rank)
            except rootsys.UnsupportedTypeError:
                pass


def test_weight_and_cayley_pairings_are_multiples_of_the_exponent_unit():
    # every q-exponent the engine forms is an integer combination of these
    checked = 0
    for rs in _supported_types():
        omegas = [rs.fundamental_weight(i) for i in range(rs.rank)]
        for pi in _orderings(rs.rank):
            t = rootsys.cayley_transform(rootsys.coxeter_context(rs, pi))
            vecs = omegas + [ratmat.mvec(t, w) for w in omegas]
            for x in vecs:
                for y in vecs:
                    assert (rs.pair(x, y) * EXP_UNIT).denominator == 1
                    checked += 1
    assert checked > 1000


def test_exponent_outside_the_unit_lattice_raises():
    with pytest.raises(ArithmeticError):
        qpow(Fraction(1, 7 * EXP_UNIT))
    with pytest.raises(ArithmeticError):
        LaurentScalar({Fraction(1, 7 * EXP_UNIT): Fraction(1)})
    assert qpow(Fraction(1, EXP_UNIT)) * qpow(Fraction(-1, EXP_UNIT)) == ONE
    assert str(qpow(Fraction(-3, 2))) == "q^(-3/2)"


def test_canonical_form_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    # the samples use exponents in (1/2)Z, so q = t^2 gives polynomials in t
    scale = Fraction(2, EXP_UNIT)

    def poly(d):
        total = sympy.Integer(0)
        for u, c in d.items():
            e = u * scale
            assert e.denominator == 1
            total += sympy.Rational(c.numerator, c.denominator) * t ** int(e)
        return total

    def as_sympy(s):
        return poly(s.num) / poly(s.den)

    rng = random.Random(4242)
    for _ in range(25):
        a, b = random_scalar(rng), random_scalar(rng)
        results = [a + b, a * b, a - b]
        expected = [as_sympy(a) + as_sympy(b), as_sympy(a) * as_sympy(b),
                    as_sympy(a) - as_sympy(b)]
        if not b.is_zero():
            results.append(a / b)
            expected.append(as_sympy(a) / as_sympy(b))
        for got, want in zip(results, expected):
            assert sympy.cancel(as_sympy(got) - want) == 0
            assert got.den.get(0) == 1 and min(got.den) == 0
            if got.is_zero():
                assert got.den == {0: 1}
                continue
            # num shifted to a polynomial is coprime to den
            num = sympy.expand(poly(got.num) * t ** -int(min(got.num) * scale))
            assert sympy.degree(sympy.gcd(num, poly(got.den)), t) == 0
            n, d = sympy.fraction(sympy.cancel(want))
            assert sympy.cancel(n * poly(got.den) - d * poly(got.num)) == 0
