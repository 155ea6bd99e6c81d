"""Exact arithmetic in the quantum parameter.

Scalars live in the field of fractions of Laurent polynomials in rational
powers of q, with rational coefficients.  Every value is kept in a canonical
reduced form, so equality testing is literal dictionary comparison and a zero
test never needs numerics.

A q-exponent e is stored as the int e * EXP_UNIT.  Every exponent the engine
forms is an integer combination of pairings between fundamental weights and
their Cayley images; over the supported types (rank up to ``rootsys.MAX_RANK``)
their denominators have lcm 1260, which divides EXP_UNIT.  An exponent outside
(1/EXP_UNIT)Z raises ``ArithmeticError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import ratmat

F0 = Fraction(0)
F1 = Fraction(1)

EXP_UNIT = 2520


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _exp(e) -> int:
    """The q-exponent e in units of 1/EXP_UNIT."""
    if isinstance(e, int):
        return e * EXP_UNIT
    e = _as_fraction(e)
    u, r = divmod(e.numerator * EXP_UNIT, e.denominator)
    if r:
        raise ArithmeticError(f"q-exponent {e} is not a multiple of 1/{EXP_UNIT}")
    return u


# ---------------------------------------------------------------------------
# dense polynomial helpers (index = exponent, Fraction coefficients)

def _trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _dense_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [F0] * (max(len(a) - len(b) + 1, 0))
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv_lead
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                a[k + i] -= c * bc
    return q, _trim(a)


def _dense_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = a[:], b[:]
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    # monic normalisation
    inv = 1 / a[-1]
    return [c * inv for c in a]


def _canonical(num: dict, den: dict):
    """Reduce num/den so den is a polynomial in q with constant term 1 and
    gcd(num shifted to a polynomial, den) = 1.

    The dense layout uses step g, the gcd of every exponent's offset from the
    minimum of its side.  Coprimality in q^g implies coprimality in any root
    of it, so the reduced form does not depend on g."""
    num = {e: c for e, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("laurent scalar with zero denominator")
    if not num:
        return {}, {0: F1}
    if len(den) == 1:
        (e0, c0), = den.items()
        if e0 == 0 and c0 == 1:
            return num, {0: F1}
        return {e - e0: c / c0 for e, c in num.items()}, {0: F1}
    mn, md = min(num), min(den)
    g = gcd(*(e - mn for e in num), *(e - md for e in den))
    a = [F0] * ((max(num) - mn) // g + 1)
    for e, c in num.items():
        a[(e - mn) // g] = c
    b = [F0] * ((max(den) - md) // g + 1)
    for e, c in den.items():
        b[(e - md) // g] = c
    h = _dense_gcd(a, b)
    if len(h) > 1:
        a, _ = _dense_divmod(a, h)
        b, _ = _dense_divmod(b, h)
    scale = 1 / b[0]
    shift = mn - md
    num_out = {shift + g * i: c * scale for i, c in enumerate(a) if c}
    den_out = {g * i: c * scale for i, c in enumerate(b) if c}
    if len(den_out) == 1:
        return _canonical(num_out, den_out)
    return num_out, den_out


class LaurentScalar:
    """Canonical rational function in q (fractional exponents allowed).

    ``num`` and ``den`` map exponents, as ints in units of 1/EXP_UNIT, to
    Fraction coefficients.  The constructor takes int or Fraction exponents.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict | None = None):
        num = {_exp(e): c for e, c in num.items()}
        den = {0: F1} if den is None else {_exp(e): c for e, c in den.items()}
        self.num, self.den = _canonical(num, den)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls) -> "LaurentScalar":
        return _scalar({}, {0: F1})

    @classmethod
    def one(cls) -> "LaurentScalar":
        return _scalar({0: F1}, {0: F1})

    @classmethod
    def from_rational(cls, r) -> "LaurentScalar":
        r = _as_fraction(r)
        if not r:
            return cls.zero()
        return _scalar({0: r}, {0: F1})

    @classmethod
    def q_power(cls, e) -> "LaurentScalar":
        return _scalar({_exp(e): F1}, {0: F1})

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den == {0: F1}

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, LaurentScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentScalar.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            num = dict(self.num)
            for e, c in o.num.items():
                num[e] = num.get(e, F0) + c
            return _reduced(num, self.den)
        num = _dict_mul(self.num, o.den)
        for e, c in _dict_mul(o.num, self.den).items():
            num[e] = num.get(e, F0) + c
        return _reduced(num, _dict_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return _scalar({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return LaurentScalar.zero()
        return _reduced(_dict_mul(self.num, o.num), _dict_mul(self.den, o.den))

    __rmul__ = __mul__

    def inverse(self) -> "LaurentScalar":
        if not self.num:
            raise ZeroDivisionError("inverting zero laurent scalar")
        return _reduced(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return LaurentScalar.one()
        base = self if n > 0 else self.inverse()
        out = LaurentScalar.one()
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- involutions and expansions ----------------------------------------
    def bar(self) -> "LaurentScalar":
        """The substitution q -> q^{-1}."""
        return _reduced({-e: c for e, c in self.num.items()},
                        {-e: c for e, c in self.den.items()})

    def as_rational(self) -> Fraction:
        if not self.num:
            return F0
        if self.num.keys() == {0} and self.den == {0: F1}:
            return self.num[0]
        raise ValueError(f"{self} is not a constant")

    def eps_series(self, order: int) -> list[Fraction]:
        """Coefficients of eps^0..eps^order after substituting q = 1 + eps.

        Fractional exponents are handled by the generalised binomial series;
        the denominator is inverted as a power series, so it must not
        vanish at q = 1.
        """

        def expand(d):
            out = [F0] * (order + 1)
            for u, c in d.items():
                e = Fraction(u, EXP_UNIT)
                binom = F1
                for k in range(order + 1):
                    out[k] += c * binom
                    binom = binom * (e - k) / (k + 1)
            return out

        num = expand(self.num)
        den = expand(self.den)
        if den[0] == 0:
            raise ZeroDivisionError("coefficient has a pole at q = 1")
        inv = [F0] * (order + 1)
        inv[0] = 1 / den[0]
        for k in range(1, order + 1):
            acc = sum(den[j] * inv[k - j] for j in range(1, k + 1))
            inv[k] = -acc / den[0]
        return [
            sum(num[j] * inv[k - j] for j in range(k + 1))
            for k in range(order + 1)
        ]

    # -- formatting ---------------------------------------------------------
    @staticmethod
    def _poly_str(p: dict, var: str) -> str:
        if not p:
            return "0"
        parts = []
        for u in sorted(p):
            c = p[u]
            if u == 0:
                parts.append(str(c))
            else:
                e = Fraction(u, EXP_UNIT)
                es = str(e) if e.denominator == 1 else f"({e})"
                head = f"{var}^{es}" if e != 1 else var
                parts.append(head if c == 1 else f"{c}*{head}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_str(self, var: str = "q") -> str:
        ns = self._poly_str(self.num, var)
        if self.den == {0: F1}:
            return ns
        return f"({ns})/({self._poly_str(self.den, var)})"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"LaurentScalar({self.to_str()})"


def _scalar(num: dict, den: dict) -> LaurentScalar:
    """A LaurentScalar from int-keyed dicts already in canonical form."""
    s = object.__new__(LaurentScalar)
    s.num, s.den = num, den
    return s


def _reduced(num: dict, den: dict) -> LaurentScalar:
    """A LaurentScalar from int-keyed dicts, canonicalised."""
    return _scalar(*_canonical(num, den))


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, F0) + ca * cb
    return out


ZERO = LaurentScalar.zero()
ONE = LaurentScalar.one()
Q = LaurentScalar.q_power(1)


def qpow(e) -> LaurentScalar:
    return LaurentScalar.q_power(e)


# ---------------------------------------------------------------------------
# balanced q-numbers: [n] = (q^n - q^-n)/(q - q^-1), in base q^d

def q_int(n: int, d=1) -> LaurentScalar:
    step = _exp(d)
    if n < 0:
        return -q_int(-n, d)
    num = {}
    for k in range(n):
        e = step * (n - 1 - 2 * k)
        num[e] = num.get(e, F0) + 1
    return _reduced(num, {0: F1})


def q_binom(m: int, k: int, d=1) -> LaurentScalar:
    """Balanced q-binomial [m choose k] in base v = q^d, by the Pascal rule
    [n j] = v^{-j} [n-1 j] + v^{n-j} [n-1 j-1], which needs no division."""
    if k < 0 or k > m:
        return ZERO
    step = _exp(d)
    row = [{0: F1}]  # row[j] = [n j] for j <= min(n, k)
    for n in range(1, m + 1):
        nxt = []
        for j in range(min(n, k) + 1):
            p = {e - j * step: c for e, c in row[j].items()} if j < n else {}
            if j:
                shift = (n - j) * step
                for e, c in row[j - 1].items():
                    p[e + shift] = p.get(e + shift, F0) + c
            nxt.append(p)
        row = nxt
    # the coefficients are positive integers, so no term cancels
    return _scalar(row[k], {0: F1})


# unbalanced q-numbers (n)_t = (t^n - 1)/(t - 1), used by the q-exponential

def q_paren(n: int, t: LaurentScalar) -> LaurentScalar:
    out = ZERO
    p = ONE
    for _ in range(n):
        out = out + p
        p = p * t
    return out


def alternating_qbinom_terms(m: int, d, c) -> list[LaurentScalar]:
    """Terms (-1)^k [m choose k]_{q^d} q^{kc}, k = 0..m, of the alternating
    Gauss sum.  With m = 1 - a_ij, d = d_i and c the Cayley pairing c_ij they
    are the coefficients of the deformed Serre relator."""
    out = []
    for k in range(m + 1):
        term = q_binom(m, k, d) * qpow(k * c)
        out.append(-term if k % 2 else term)
    return out


def gauss_product_check(m: int, c: int) -> LaurentScalar:
    """Return sum_k (-1)^k [m choose k] q^{kc} after checking it equals the
    factored form prod_{p=0}^{m-1} (1 - q^{m-1-2p+c})."""
    total = sum(alternating_qbinom_terms(m, 1, c), ZERO)
    prod = ONE
    for p in range(m):
        prod = prod * (ONE - qpow(m - 1 - 2 * p + c))
    if total != prod:
        raise ArithmeticError(f"q-binomial sum failed product identity (m={m}, c={c})")
    return total


def qbinom_root_scan(m: int, c_range=None) -> list[int]:
    """Integer exponents c within c_range where the alternating q-binomial sum
    vanishes identically.  The factored form shows these are exactly
    m-1-2p for p = 0..m-1."""
    if c_range is None:
        c_range = range(-(m + 2), m + 3)
    return [c for c in c_range if gauss_product_check(m, c).is_zero()]


def q_exp_nilpotent(x, t: LaurentScalar, one, zero):
    """exp_t(x) = sum_k x^k / (k)_t! for a nilpotent matrix x.

    The factorial uses the unbalanced (k)_t = (t^k - 1)/(t - 1).  Raises if x
    fails to be nilpotent within dim(x) + 1 steps.
    """
    n = len(x)
    out = term = ratmat.eye(n, one, zero)
    fact = ONE
    for k in range(1, n + 2):
        term = ratmat.mmul(term, x, zero)
        if ratmat.is_zero(term):
            return out
        fact = fact * q_paren(k, t)
        out = ratmat.madd(out, ratmat.mscale(term, fact.inverse()))
    raise ArithmeticError("q_exp_nilpotent: matrix is not nilpotent")
