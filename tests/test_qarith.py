import math
import random
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest

from oracles import (as_rational, bar, cayley_transform, dense, dense_add,
                     dense_mul, dense_scale, fraction_pair, is_polynomial,
                     mvec, q_binom, q_exp_nilpotent, q_int, q_paren,
                     times_q_exp, weight_coords)
from qwhit import acceptance, qarith, ratmat, rootsys
from qwhit.qarith import EXP_UNIT, ONE, ZERO, LaurentScalar, qpow
from qwhit.toda import DifferenceOperator


def random_scalar(rng):
    num = {}
    for _ in range(rng.randint(1, 4)):
        e = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2]))
        num[e] = num.get(e, Fraction(0)) + Fraction(rng.randint(-5, 5))
    if rng.random() < 0.5:
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
        if a:
            assert a * a.inverse() == ONE
            assert (ONE / a) * a == ONE


def test_canonical_form_cancels_common_factors():
    q = qpow(1)
    assert (q * q - ONE) / (q - ONE) == q + ONE
    assert (q - ONE) / (qpow(Fraction(1, 2)) - ONE) == qpow(Fraction(1, 2)) + ONE
    x = (qpow(3) - qpow(-3)) / (q - qpow(-1))
    assert x == qpow(2) + ONE + qpow(-2)
    assert is_polynomial(x)


def test_zero_and_equality_are_structural():
    q = qpow(1)
    assert not ((q + ONE) * (q - ONE) - (q * q - ONE))
    assert q - ONE
    assert as_rational(LaurentScalar.from_rational(Fraction(3, 4))) == Fraction(3, 4)
    with pytest.raises(ValueError):
        as_rational(q + ONE)


def test_bar_is_a_multiplicative_involution():
    rng = random.Random(7)
    assert bar(qpow(3)) == qpow(-3)
    for _ in range(30):
        a = random_scalar(rng)
        b = random_scalar(rng)
        assert bar(bar(a)) == a
        assert bar(a * b) == bar(a) * bar(b)
        assert bar(a + b) == bar(a) + bar(b)


def test_q_int_small_values():
    q = qpow(1)
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(2) == q + qpow(-1)
    assert q_int(3) == qpow(2) + ONE + qpow(-2)
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
            assert is_polynomial(v)
            assert bar(v) == v
            assert acceptance.eps_series(v, 0)[0] == math.comb(m, k)


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
            acceptance.gauss_product_check(m, c)
        expected = [c for c in range(-(m + 2), m + 3)
                    if abs(c) <= m - 1 and (c - (m - 1)) % 2 == 0]
        assert acceptance.qbinom_root_scan(m) == expected


def test_alternating_terms_match_the_q_binomial_times_a_q_power():
    # the one Pascal pass with the exponent shift against the q-binomial
    # multiplied by q^{kc}, part by part: content, numerator, denominator
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cs = st.integers(-6 * EXP_UNIT, 6 * EXP_UNIT).map(
        lambda u: Fraction(u, EXP_UNIT))

    @hypothesis.settings(max_examples=80, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.integers(0, 6),
                      st.sampled_from((1, 2, 3, Fraction(1, 2))),
                      st.one_of(st.integers(-4, 4), cs))
    def check(m, d, c):
        got = qarith.alternating_qbinom_terms(m, d, c)
        assert len(got) == m + 1
        for k, term in enumerate(got):
            want = q_binom(m, k, d) * qpow(k * c)
            if k % 2:
                want = -want
            assert (term.c, term.n, term.d) == (want.c, want.n, want.d)
            assert type(term.c) is Fraction

    check()


def test_eps_series_expansion_around_one():
    eps_series = acceptance.eps_series
    assert eps_series(qpow(1), 2) == [1, 1, 0]
    assert eps_series(qpow(2), 2) == [1, 2, 1]
    assert eps_series(qpow(Fraction(1, 2)), 2) == [1, Fraction(1, 2), Fraction(-1, 8)]
    assert eps_series(qpow(1) - qpow(-1), 2) == [0, 2, -1]
    assert eps_series(q_int(3), 0) == [3]


def test_q_exp_nilpotent_matches_truncated_series():
    q = qpow(1)
    t = q * q
    x = {0: {1: ONE}, 1: {2: ONE}}
    got = q_exp_nilpotent(x, 3, t, ONE)
    two_t = ONE + t
    expect = {
        0: {0: ONE, 1: ONE, 2: two_t.inverse()},
        1: {1: ONE, 2: ONE},
        2: {2: ONE},
    }
    assert got == expect
    with pytest.raises(ArithmeticError):
        q_exp_nilpotent({0: {0: ONE}}, 1, t, ONE)


def test_q_exp_nilpotent_of_difference_operators_matches_the_dense_series():
    # strictly upper triangular matrices of difference operators with
    # half-unit shifts, against sum_k x^k / (k)_t! by dense products
    rs = rootsys.build_root_system("A", 2)
    zero, one = DifferenceOperator(rs), DifferenceOperator.shift(rs, (0, 0))
    rng = random.Random(5)
    n, t = 4, qpow(-2)

    def operator():
        lam = rootsys.weight(Fraction(rng.randrange(-2, 3), 2) for _ in range(2))
        zexp = tuple(rng.randrange(0, 2) for _ in range(2))
        coeff = qpow(rng.randrange(-2, 3)) * LaurentScalar.from_rational(
            rng.randrange(1, 4))
        return DifferenceOperator(rs, {lam: {zexp: coeff}})

    for _ in range(5):
        rows = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    rows.setdefault(i, {})[j] = operator()
        x = dense(rows, n, zero)
        want = term = dense({r: {r: one} for r in range(n)}, n, zero)
        fact = ONE
        for k in range(1, n):
            term = dense_mul(term, x, zero)
            fact = fact * q_paren(k, t)
            want = dense_add(want, dense_scale(term, fact.inverse()))
        got = q_exp_nilpotent(rows, n, t, one)
        assert all(v for row in got.values() for v in row.values())
        assert dense(got, n, zero) == want


def test_times_q_exp_is_rows_times_the_q_exponential():
    # rows exp_t(x) without the identity, against the product of rows with
    # the series that has it, over q-scalars and over difference operators;
    # x is conjugated strictly upper triangular, so nilpotent, and a diagonal
    # x over invertible rows is refused
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rs = rootsys.build_root_system("A", 2)
    exps = st.integers(-2, 2)

    def scalar(data):
        return qpow(data.draw(exps)) * LaurentScalar.from_rational(
            data.draw(st.sampled_from((1, -1, 2, Fraction(-3, 2)))))

    def operator(data):
        lam = rootsys.weight(Fraction(data.draw(exps), 2) for _ in range(2))
        zexp = tuple(data.draw(st.integers(0, 1)) for _ in range(2))
        return DifferenceOperator(rs, {lam: {zexp: scalar(data)}})

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        over_operators = data.draw(st.booleans())
        entry = operator if over_operators else scalar
        one = (DifferenceOperator.shift(rs, (0, 0)) if over_operators
               else ONE)
        n = data.draw(st.integers(1, 4))
        t = qpow(data.draw(st.sampled_from((-2, -1, 1, Fraction(1, 2)))))
        p = data.draw(st.permutations(range(n)))
        x, rows = {}, {}
        for i in range(n):
            for j in range(n):
                if i < j and data.draw(st.booleans()):
                    x.setdefault(p[i], {})[p[j]] = entry(data)
                if i == j or data.draw(st.booleans()):
                    rows.setdefault(i, {})[j] = entry(data)
        want = ratmat.sparse_mul(rows, q_exp_nilpotent(x, n, t, one))
        assert times_q_exp(rows, x, n, t) == want
        diagonal = {r: {r: (one if over_operators else scalar(data))}
                    for r in range(n)}
        invertible = {r: {r: entry(data)} for r in range(n)}
        with pytest.raises(ArithmeticError, match="not nilpotent"):
            times_q_exp(invertible, diagonal, n, t)

    check()


def test_kron_and_trace_helpers():
    a = {0: {0: ONE, 1: qpow(1)}, 1: {1: ONE}}
    b = {0: {0: qpow(-1)}, 1: {1: qpow(1)}}
    k = dense(ratmat.kron(a, b, 2), 4, ZERO)
    # block (0,1) of the product is a[0][1] * b
    assert k[0][2] == qpow(1) * qpow(-1)
    assert k[1][3] == qpow(1) * qpow(1)
    assert k[2][0] == ZERO and k[0][1] == ZERO


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
    # in rational coordinates; the Cayley images of the fundamental weights
    # and of the simple roots are themselves weights in units of 1/EXP_UNIT
    checked = 0
    for rs in _supported_types():
        omegas = [weight_coords(w) for w in rs.fundamental_weights]
        for pi in _orderings(rs.rank):
            t = cayley_transform(rootsys.coxeter_context(rs, pi))
            vecs = omegas + [mvec(t, w) for w in omegas]
            for i in range(rs.rank):
                rootsys.weight(mvec(t, rs.simple_root(i)))
            for x in vecs:
                rootsys.weight(x)
                for y in vecs:
                    assert (fraction_pair(rs, x, y) * EXP_UNIT).denominator == 1
                    checked += 1
    assert checked > 1000


def test_exponent_outside_the_unit_lattice_raises():
    with pytest.raises(ArithmeticError):
        qpow(Fraction(1, 7 * EXP_UNIT))
    with pytest.raises(ArithmeticError):
        LaurentScalar({Fraction(1, 7 * EXP_UNIT): Fraction(1)})
    assert qpow(Fraction(1, EXP_UNIT)) * qpow(Fraction(-1, EXP_UNIT)) == ONE
    assert str(qpow(Fraction(-3, 2))) == "q^(-3/2)"


def test_times_q_is_the_product_with_a_q_power():
    rng = random.Random(5)
    assert ZERO.times_q(7) == ZERO
    for _ in range(60):
        num = {Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))):
               rng.randint(-3, 3) for _ in range(3)}
        den = {Fraction(rng.randint(-4, 4), rng.choice((1, 2))):
               rng.randint(1, 3) for _ in range(2)}
        x = LaurentScalar(num, den)
        u = rng.randint(-3 * EXP_UNIT, 3 * EXP_UNIT)
        assert x.times_q(u) == x * qpow(Fraction(u, EXP_UNIT))


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
        if b:
            results.append(a / b)
            expected.append(as_sympy(a) / as_sympy(b))
        for got, want in zip(results, expected):
            assert sympy.cancel(as_sympy(got) - want) == 0
            assert got.den.get(0) == 1 and min(got.den) == 0
            if not got:
                assert got.den == {0: 1}
                continue
            # num shifted to a polynomial is coprime to den
            num = sympy.expand(poly(got.num) * t ** -int(min(got.num) * scale))
            assert sympy.degree(sympy.gcd(num, poly(got.den)), t) == 0
            n, d = sympy.fraction(sympy.cancel(want))
            assert sympy.cancel(n * poly(got.den) - d * poly(got.num)) == 0


def test_equal_scalars_hash_equal():
    # one value built three ways: as num / den with a rational content
    # spread over both sides, as a * f / f and as a + f - f
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fracs = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                      st.integers(1, 3))
    polys = st.dictionaries(
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2])),
        fracs, min_size=1, max_size=3)

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(polys, polys, polys, fracs)
    def check(num, den, f, k):
        a = LaurentScalar(num, den)
        f = LaurentScalar(f)
        scaled = LaurentScalar({e: k * v for e, v in num.items()},
                               {e: k * v for e, v in den.items()})
        for b in (scaled, a * f / f, a + f - f):
            assert b == a
            assert hash(b) == hash(a)
            assert {a: "x"}.get(b) == "x"

    check()


def test_scalars_meet_only_scalars():
    # an int or Fraction enters through the constructor, from_rational or
    # qpow; as an operand it is a TypeError, and no scalar equals a number
    for op in (add, sub, mul, truediv):
        with pytest.raises(TypeError):
            op(2, ONE)
        with pytest.raises(TypeError):
            op(ONE, Fraction(1, 2))
    assert ONE != 1 and ZERO != 0 and ONE != Fraction(1)
    assert ONE == LaurentScalar.from_rational(1) == qpow(0)


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        LaurentScalar({0: 0.5, 1: 1})
    with pytest.raises(TypeError):
        LaurentScalar({1: 1}, {0: 1, 1: 0.25})
    with pytest.raises(TypeError):
        LaurentScalar({0.5: 1})


def assert_canonical(s):
    """The stored form: c * n / d with n, d primitive int polynomials, d with
    lowest exponent 0 and a positive constant term, n with a positive lowest
    coefficient; zero is 0 * {} / {0: 1}.  (The sympy oracles below check
    that n and d are coprime.)"""
    assert isinstance(s.c, Fraction)
    if not s:
        assert (s.c, s.n, s.d) == (0, {}, {0: 1})
        return
    assert s.c != 0
    for p in (s.n, s.d):
        assert p and all(type(v) is int and v for v in p.values())
        assert math.gcd(*p.values()) == 1
    assert min(s.d) == 0 and s.d[0] > 0
    assert s.n[min(s.n)] > 0


def test_polynomial_product_drops_cancelled_terms():
    # (1 - q^-2)(1 - q^-4)(1 - q^-6) = 1 - q^-2 - q^-4 + q^-8 + q^-10 - q^-12:
    # the q^-6 terms cancel, and a stored zero would break equality
    prod = ONE
    for j in (2, 4, 6):
        prod = prod * (ONE - qpow(-j))
    expanded = LaurentScalar({0: 1, -2: -1, -4: -1, -8: 1, -10: 1, -12: -1})
    assert -6 * EXP_UNIT not in prod.n
    assert prod == expanded
    assert_canonical(prod)
    acceptance.gauss_product_check(3, -4)


def test_non_monic_common_factor_cancels():
    q = qpow(1)
    # (2q+1)(q-3) / ((2q+1)(q+5)) = (q-3)/(q+5)
    built = LaurentScalar({2: 2, 1: -5, 0: -3}, {2: 2, 1: 11, 0: 5})
    two, three, five = (LaurentScalar.from_rational(k) for k in (2, 3, 5))
    computed = ((two * q + ONE) * (q - three)) / ((two * q + ONE) * (q + five))
    want = (q - three) / (q + five)
    for s in (built, computed):
        assert s == want
        assert_canonical(s)
        assert s.num == {0: Fraction(-3, 5), EXP_UNIT: Fraction(1, 5)}
        assert s.den == {0: 1, EXP_UNIT: Fraction(1, 5)}


def test_sum_cancels_the_shared_factor_of_the_denominators():
    q = qpow(1)
    two, three = LaurentScalar.from_rational(2), LaurentScalar.from_rational(3)
    h = two * q + ONE
    # 1/(h(q+1)) - 3/(h(q+2)) = -h/(h(q+1)(q+2)): the shared factor h of the
    # denominators divides the numerator of the sum too
    got = ONE / (h * (q + ONE)) - three / (h * (q + two))
    assert_canonical(got)
    assert got == -ONE / ((q + ONE) * (q + two))
    assert got.den == {0: 1, EXP_UNIT: Fraction(3, 2), 2 * EXP_UNIT: Fraction(1, 2)}


def test_content_and_sign_normalisation():
    # -2q / (-4 - 6q) = (q/2) / (1 + 3q/2)
    s = LaurentScalar({1: -2}, {0: -4, 1: -6})
    assert s == LaurentScalar({1: Fraction(1, 2)}, {0: 1, 1: Fraction(3, 2)})
    assert s == qpow(1) / (LaurentScalar.from_rational(2)
                           + LaurentScalar.from_rational(3) * qpow(1))
    assert_canonical(s)
    assert s.num == {EXP_UNIT: Fraction(1, 2)}
    assert s.den == {0: 1, EXP_UNIT: Fraction(3, 2)}
    # 1 / (-2q^-1 + 4 + 6q) = (-q/2) / (1 - 2q - 3q^2)
    x = LaurentScalar({-1: -2, 0: 4, 1: 6})
    inv = x.inverse()
    assert_canonical(inv)
    assert inv.num == {EXP_UNIT: Fraction(-1, 2)}
    assert inv.den == {0: 1, EXP_UNIT: -2, 2 * EXP_UNIT: -3}
    assert inv.inverse() == x
    assert inv * x == ONE
    assert_canonical(-inv)
    assert_canonical(bar(inv))
    assert_canonical(bar(x))
    assert bar(x) == LaurentScalar({1: -2, 0: 4, -1: 6})


def _sympy_poly(d, t):
    # exponents in (1/2)Z, so q = t^2 gives integer powers of t
    sympy = pytest.importorskip("sympy")
    total = sympy.Integer(0)
    for u, c in d.items():
        e = Fraction(2 * u, EXP_UNIT)
        assert e.denominator == 1
        total += sympy.Rational(c.numerator, c.denominator) * t ** int(e)
    return total


def _assert_views_match(got, want, t):
    """got equals the sympy expression want, and its Fraction views are in
    the canonical form: den has lowest exponent 0 and constant term 1, and
    num shifted to a polynomial is coprime to den."""
    sympy = pytest.importorskip("sympy")
    assert_canonical(got)
    num, den = got.num, got.den
    assert min(den) == 0 and den[0] == 1
    assert sympy.cancel(_sympy_poly(num, t) / _sympy_poly(den, t) - want) == 0
    if num:
        shifted = sympy.expand(_sympy_poly(num, t) * t ** -int(Fraction(2 * min(num), EXP_UNIT)))
        assert sympy.degree(sympy.gcd(shifted, _sympy_poly(den, t)), t) == 0


def test_q_binom_matches_the_product_formula():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for d in (1, 2, Fraction(1, 2)):
        v = t ** int(2 * d)  # v = q^d with q = t^2

        def bracket(n):
            return (v ** n - v ** -n) / (v - v ** -1)

        for m in range(7):
            for k in range(m + 1):
                want = sympy.Integer(1)
                for i in range(1, k + 1):
                    want *= bracket(m - i + 1) / bracket(i)
                _assert_views_match(q_binom(m, k, d), sympy.cancel(want), t)


def test_scalar_ops_match_sympy_cancel_on_drawn_samples():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    t = sympy.Symbol("t")
    halves = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
    polys = st.dictionaries(halves, st.integers(-5, 5), min_size=1, max_size=3)

    def value(d):
        return sum((c * t ** int(2 * e) for e, c in d.items()), sympy.Integer(0))

    def expand(factors):
        out = {0: 1}
        for f in factors:
            prod = {}
            for e1, c1 in out.items():
                for e2, c2 in f.items():
                    prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
            out = prod
        return out

    @hypothesis.settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        # numerators and denominators are products drawn from one pool of
        # factors, so the pairs share factors and cancel inside
        pool = st.sampled_from(data.draw(st.lists(polys, min_size=1, max_size=3)))

        def scalar():
            num = expand(data.draw(st.lists(pool, min_size=1, max_size=3)))
            if not data.draw(st.booleans()):
                return LaurentScalar(num), value(num)
            den = expand(data.draw(st.lists(pool, min_size=1, max_size=2)))
            hypothesis.assume(any(den.values()))
            return LaurentScalar(num, den), value(num) / value(den)

        (a, sa), (b, sb) = scalar(), scalar()
        cases = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                 (bar(a), sa.subs(t, 1 / t))]
        if b:
            cases += [(a / b, sa / sb), (b.inverse(), 1 / sb)]
        for got, want in cases:
            _assert_views_match(got, want, t)

    check()
