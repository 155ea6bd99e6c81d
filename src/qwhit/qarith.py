"""Exact arithmetic in the quantum parameter.

Scalars live in the field of fractions of Laurent polynomials in rational
powers of q, with rational coefficients.  Every value is kept in a canonical
reduced form, so equality testing is literal dictionary comparison and a zero
test never needs numerics.

A value is stored as a rational content times a quotient of coprime
primitive polynomials with int coefficients, so the hot loop runs on ints
rather than Fractions.  Common factors are found by the primitive polynomial
remainder sequence over Z (Knuth, TAOCP vol. 2, 4.6.1), and the quotients by
exact integer division.  Products of polynomials need no gcd at all (Gauss's
lemma), and sums over a shared denominator add the numerators directly.

A q-exponent e is stored as the int e * EXP_UNIT.  Every exponent the engine
forms is an integer combination of pairings between fundamental weights and
their Cayley images; over the supported types (rank up to ``rootsys.MAX_RANK``)
their denominators have lcm 1260, which divides EXP_UNIT.  An exponent outside
(1/EXP_UNIT)Z raises ``ArithmeticError``.

Weights share the unit: ``rootsys`` keeps every weight as an int tuple in
units of 1/EXP_UNIT, so the pairing of a weight with an integer root or
z-exponent is already a q-exponent in these units, and ``times_q`` applies
it as a shift of the numerator's exponents.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .ratmat import rat_text

F0 = Fraction(0)
F1 = Fraction(1)

EXP_UNIT = 2520


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def to_units(e) -> int:
    """The rational e (a q-exponent or a weight coordinate) as an int in
    units of 1/EXP_UNIT; ArithmeticError when e is not a multiple of it."""
    if isinstance(e, int):
        return e * EXP_UNIT
    e = _as_fraction(e)
    u, r = divmod(e.numerator * EXP_UNIT, e.denominator)
    if r:
        raise ArithmeticError(f"{e} is not a multiple of 1/{EXP_UNIT}")
    return u


# ---------------------------------------------------------------------------
# integer polynomial helpers
#
# A sparse polynomial is a dict from exponent (in units of 1/EXP_UNIT) to a
# nonzero int; a dense one is a list of ints indexed by exponent/step from the
# lowest exponent.  A polynomial is primitive when the gcd of its
# coefficients is 1.

_UNIT = {0: 1}  # shared by every polynomial scalar: never mutated


def _content(p: dict) -> int:
    """The gcd of p's coefficients, signed like its lowest coefficient."""
    k = gcd(*p.values())
    return k if p[min(p)] > 0 else -k


def _primitive(p: dict):
    """(k, p / k) for k = ``_content(p)``."""
    k = _content(p)
    if k == 1:
        return 1, p
    return k, {e: c // k for e, c in p.items()}


def _split(p: dict):
    """(content, primitive part) of a dict of nonzero Fraction coefficients."""
    den = lcm(*(c.denominator for c in p.values()))
    k, p = _primitive({e: c.numerator * (den // c.denominator)
                       for e, c in p.items()})
    return Fraction(k, den), p


def _poly_mul(a: dict, b: dict) -> dict:
    if len(b) == 1:
        (eb, cb), = b.items()
        return {e + eb: c * cb for e, c in a.items()}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    # a product of nonzero polynomials can still cancel inside
    return {e: c for e, c in out.items() if c}


def _prem(a: list, b: list) -> list:
    """A nonzero integer multiple of the remainder of a by b (len(a) >=
    len(b) >= 2), by pseudo-division that strips the common factor of the
    two leading coefficients at each step."""
    r = a[:]
    lead, db = b[-1], len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        t = r.pop()
        if t:
            g = gcd(t, lead)
            u, t = lead // g, t // g
            if u != 1:
                r = [u * c for c in r]
            for i in range(db):
                r[k + i] -= t * b[i]
    while r and not r[-1]:
        r.pop()
    return r


def _prs_gcd(a: list, b: list) -> list:
    """gcd of two primitive polynomials by the primitive PRS over Z: the
    primitive part of each pseudo-remainder replaces the divisor."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        k = gcd(*r)
        a, b = b, [c // k for c in r]
    return [1]


def _exact_div(a: list, h: list) -> list:
    """a / h where the primitive h divides a, so the quotient is integral."""
    a = a[:]
    lead, dh = h[-1], len(h) - 1
    quo = [0] * (len(a) - dh)
    for k in range(len(quo) - 1, -1, -1):
        c = a[k + dh] // lead
        if c:
            quo[k] = c
            for i in range(dh):
                a[k + i] -= c * h[i]
    return quo


def _cancel(a: dict, b: dict):
    """(a / h, b / h) for h = gcd(a, b) of primitive Laurent polynomials, or
    None when they are coprime.  The quotients keep each side's lowest
    exponent, so their ratio is exactly a / b.

    The dense layout uses step g, the gcd of every exponent's offset from the
    lowest exponent of its side.  Coprimality in q^g implies coprimality in
    any root of it, so the reduced form does not depend on g."""
    if len(a) == 1 or len(b) == 1:  # a monomial is a unit
        return None
    ma, mb = min(a), min(b)
    g = gcd(*(e - ma for e in a), *(e - mb for e in b))
    da = [0] * ((max(a) - ma) // g + 1)
    for e, c in a.items():
        da[(e - ma) // g] = c
    db = [0] * ((max(b) - mb) // g + 1)
    for e, c in b.items():
        db[(e - mb) // g] = c
    h = _prs_gcd(da, db)
    if len(h) == 1:
        return None
    return ({ma + g * i: c for i, c in enumerate(_exact_div(da, h)) if c},
            {mb + g * i: c for i, c in enumerate(_exact_div(db, h)) if c})


class LaurentScalar:
    """Canonical rational function in q (fractional exponents allowed).

    A nonzero value is c * n(q) / d(q): c is a Fraction, and n and d are
    coprime primitive polynomials with int coefficients, keyed by exponents
    as ints in units of 1/EXP_UNIT.  d has lowest exponent 0 and a positive
    constant term, and n has a positive lowest coefficient, so each value has
    exactly one form and equality is literal comparison.  Zero is
    c = 0, n = {}, d = {0: 1}.  ``num`` and ``den`` give the same value with
    Fraction coefficients and den's constant term 1.

    The constructor takes int or Fraction exponents and coefficients.
    """

    __slots__ = ("c", "n", "d")

    def __init__(self, num: dict, den: dict | None = None):
        num = {to_units(e): _as_fraction(c) for e, c in num.items()}
        den = {0: F1} if den is None else {
            to_units(e): _as_fraction(c) for e, c in den.items()}
        num = {e: c for e, c in num.items() if c}
        den = {e: c for e, c in den.items() if c}
        if not den:
            raise ZeroDivisionError("laurent scalar with zero denominator")
        if not num:
            self.c, self.n, self.d = F0, {}, _UNIT
            return
        cn, n = _split(num)
        cd, d = _split(den)
        s = _normalised(cn / cd, *(_cancel(n, d) or (n, d)))
        self.c, self.n, self.d = s.c, s.n, s.d

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_rational(cls, r) -> "LaurentScalar":
        r = _as_fraction(r)
        if not r:
            return ZERO
        return _scalar(r, _UNIT, _UNIT)

    # -- Fraction views -----------------------------------------------------
    @property
    def num(self) -> dict:
        """The numerator with Fraction coefficients, over ``den``."""
        c = self.c / self.d[0]
        return {e: c * v for e, v in self.n.items()}

    @property
    def den(self) -> dict:
        """The denominator with Fraction coefficients and constant term 1."""
        d0 = self.d[0]
        return {e: Fraction(v, d0) for e, v in self.d.items()}

    # -- predicates ---------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.n)

    def times_q(self, u: int) -> "LaurentScalar":
        """self * q^(u / EXP_UNIT) for an int u.  A monomial is a unit, so
        shifting the numerator's exponents keeps the canonical form: no gcd
        and no product."""
        if not u or not self.n:
            return self
        return _scalar(self.c, {e + u: v for e, v in self.n.items()}, self.d)

    # -- arithmetic ---------------------------------------------------------
    # Scalars meet only scalars: an int or Fraction enters through the
    # constructor, ``from_rational`` or ``qpow``, and any other operand gets
    # NotImplemented, so a PBW element or operator handles s * x itself.
    def __add__(self, o):
        if not isinstance(o, LaurentScalar):
            return NotImplemented
        if not o.n:
            return self
        if not self.n:
            return o
        d1, d2 = self.d, o.d
        if d1 == d2:
            c, t = _combine(self.c, self.n, o.c, o.n)
            if not t:
                return ZERO
            if len(d1) == 1:
                return _scalar(c, t, _UNIT)
            return _normalised(c, *(_cancel(t, d1) or (t, d1)))
        # with d1 = h*r1 and d2 = h*r2 for h = gcd(d1, d2), the sum is
        # t / (d2*r1) for t = c1*n1*r2 + c2*n2*r1, and t is coprime to r1
        # and r2, so only h can cancel from it
        cancelled = _cancel(d1, d2)
        r1, r2 = cancelled or (d1, d2)
        c, t = _combine(self.c, _poly_mul(self.n, r2), o.c, _poly_mul(o.n, r1))
        if not t:
            return ZERO
        if cancelled:
            t, d2 = _cancel(t, d2) or (t, d2)
        return _normalised(c, t, _poly_mul(d2, r1))

    def __neg__(self):
        return _scalar(-self.c, self.n, self.d)

    def __sub__(self, o):
        if not isinstance(o, LaurentScalar):
            return NotImplemented
        return self + (-o)

    def __mul__(self, o):
        if not isinstance(o, LaurentScalar):
            return NotImplemented
        if not self.n or not o.n:
            return ZERO
        c1, c2 = self.c, o.c
        c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
        n1, d1, n2, d2 = self.n, self.d, o.n, o.d
        if len(d1) == 1 and len(d2) == 1:
            # Gauss's lemma: the product of primitive polynomials is
            # primitive, and its lowest coefficient is the product of theirs
            return _scalar(c, _poly_mul(n1, n2), _UNIT)
        n1, d2 = _cancel(n1, d2) or (n1, d2)
        n2, d1 = _cancel(n2, d1) or (n2, d1)
        return _normalised(c, _poly_mul(n1, n2), _poly_mul(d1, d2))

    def inverse(self) -> "LaurentScalar":
        if not self.n:
            raise ZeroDivisionError("inverting zero laurent scalar")
        return _normalised(1 / self.c, self.d, self.n)

    def __truediv__(self, o):
        if not isinstance(o, LaurentScalar):
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, o):
        if not isinstance(o, LaurentScalar):
            return NotImplemented
        return self.n == o.n and self.d == o.d and self.c == o.c

    def __hash__(self):
        return hash((self.c, frozenset(self.n.items()), frozenset(self.d.items())))

    # -- expansions ---------------------------------------------------------
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
    def _poly_str(p: dict, c: int, den: int) -> str:
        """The sum of (c * p[u] / den) q^(u / EXP_UNIT), printed from the
        ints by ``rat_text``."""
        if not p:
            return "0"
        parts = []
        for u in sorted(p):
            v = c * p[u]
            if u == 0:
                parts.append(rat_text(v, den))
                continue
            e = rat_text(u, EXP_UNIT)
            head = ("q" if u == EXP_UNIT
                    else f"q^({e})" if "/" in e else f"q^{e}")
            parts.append(head if v == den else f"{rat_text(v, den)}*{head}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        d0 = self.d[0]
        ns = self._poly_str(self.n, self.c.numerator, self.c.denominator * d0)
        if len(self.d) == 1:
            return ns
        return f"({ns})/({self._poly_str(self.d, 1, d0)})"

    def __repr__(self):
        return f"LaurentScalar({self})"


def _scalar(c: Fraction, n: dict, d: dict) -> LaurentScalar:
    """A LaurentScalar from parts already in canonical form."""
    s = object.__new__(LaurentScalar)
    s.c, s.n, s.d = c, n, d
    return s


def _normalised(c: Fraction, n: dict, d: dict) -> LaurentScalar:
    """c * n / d for coprime primitive polynomials n and d, shifted so d has
    lowest exponent 0 and signed so d's constant term and n's lowest
    coefficient are positive."""
    md = min(d)
    if md:
        n = {e - md: v for e, v in n.items()}
        d = {e - md: v for e, v in d.items()}
    if d[0] < 0:
        c, d = -c, {e: -v for e, v in d.items()}
    if n[min(n)] < 0:
        c, n = -c, {e: -v for e, v in n.items()}
    return _scalar(c, n, d)


def _combine(c1: Fraction, p1: dict, c2: Fraction, p2: dict):
    """(c, p) with c * p = c1 * p1 + c2 * p2 for nonzero c1, c2, where p is
    primitive with a positive lowest coefficient, or (0, {}) if the sum is 0."""
    m1, m2 = c1.denominator, c2.denominator
    g = gcd(m1, m2)
    k1, k2 = c1.numerator * (m2 // g), c2.numerator * (m1 // g)
    h = gcd(k1, k2)
    k1, k2 = k1 // h, k2 // h
    out = {e: k1 * v for e, v in p1.items()}
    for e, v in p2.items():
        out[e] = out.get(e, 0) + k2 * v
    out = {e: v for e, v in out.items() if v}
    if not out:
        return F0, out
    k, out = _primitive(out)
    return Fraction(h * k, m1 // g * m2), out


ZERO = _scalar(F0, {}, _UNIT)
ONE = _scalar(F1, _UNIT, _UNIT)


# ---------------------------------------------------------------------------
# integer images: exact zero tests by Kronecker substitution


def kronecker_bits(bound: int) -> int:
    """K = bitlen(2B) + 2 for an l1 bound B, so that 2^K > 8B > B, as the
    proof in ``IntegerImage`` needs."""
    return (2 * bound).bit_length() + 2


class IntegerImage:
    """Laurent polynomials in q as Python ints, for exact zero tests.

    Built by ``integer_image`` from the scalars in play.  One lcm L of
    their contents clears them to int coefficients, and ``norms[k]`` is
    the l1 norm of the k-th scalar times L.  The exponents of the scalars
    lie in origin + gZ and the shifts the caller applies in gZ, g (``step``)
    the gcd of their offsets, so L q^{-origin} s is an int polynomial in
    x = q^(g/EXP_UNIT).  ``values(B)`` evaluates each at x = 2^K for
    K = ``kronecker_bits(B)``, and ``exponent(u)`` is the power of 2 that
    q^(u/EXP_UNIT) becomes.

    A caller forms an expression from the scalars by +, - and products in
    which every term has the same number d of scalar factors, times
    q-powers q^u with u >= 0 that it applies as left shifts by
    ``exponent(u)`` bits.  The same operations on the ints give the value
    at x = 2^K of the int polynomial p = L^d q^{-d origin} times the
    expression.  If every coefficient of p is at most B in absolute value
    (an l1 bound on p will do), that int is 0 exactly when the expression
    is 0, because 2^K > B and:

    Let p = sum c_i x^i have int coefficients with |c_i| < 2^K.  If
    p(2^K) = 0, then c_0 = -2^K sum_{i>0} c_i 2^{K(i-1)} is a multiple of
    2^K smaller than 2^K in absolute value, so c_0 = 0.  Then p(x) / x has
    the same property and a lower degree, and by induction p = 0.
    """

    __slots__ = ("parts", "norms", "origin", "step", "bits")

    def __init__(self, parts, origin, step):
        self.parts = parts  # (int factor k, numerator n): L s = k n
        self.norms = [abs(k) * sum(map(abs, n.values())) for k, n in parts]
        self.origin, self.step = origin, step
        self.bits = None

    def values(self, bound: int) -> list[int]:
        """Each cleared scalar times q^{-origin} at x = 2^K, K =
        ``kronecker_bits(bound)`` for an l1 bound on the result."""
        self.bits = k_bits = kronecker_bits(bound)
        o, g = self.origin, self.step
        return [sum((k * v) << (k_bits * ((e - o) // g))
                    for e, v in n.items()) for k, n in self.parts]

    def exponent(self, u: int) -> int:
        """The power of 2 that q^(u/EXP_UNIT) becomes, u a multiple of g."""
        return self.bits * (u // self.step)


def integer_image(scalars, shifts=()) -> IntegerImage | None:
    """The ``IntegerImage`` of the scalars, whose step also divides the
    offsets between the shifts (ints in units of 1/EXP_UNIT), or None when
    a scalar has a non-unit denominator."""
    den = 1
    for s in scalars:
        if len(s.d) != 1:
            return None
        if den % s.c.denominator:
            den = lcm(den, s.c.denominator)
    parts = [(s.c.numerator * (den // s.c.denominator), s.n) for s in scalars]
    exps = [e for _, n in parts for e in n]
    origin = min(exps, default=0)
    shifts = list(shifts)
    step = gcd(*(e - origin for e in exps),
               *(u - shifts[0] for u in shifts[1:])) or 1
    return IntegerImage(parts, origin, step)


def qpow(e) -> LaurentScalar:
    return _scalar(F1, {to_units(e): 1}, _UNIT)


def alternating_qbinom_terms(m: int, d, c) -> list[LaurentScalar]:
    """Terms (-1)^k [m choose k]_{q^d} q^{kc}, k = 0..m, of the alternating
    Gauss sum.  With m = 1 - a_ij, d = d_i and c the Cayley pairing c_ij they
    are the coefficients of the deformed Serre relator.

    The balanced q-binomials [m k] in base v = q^d come from one Pascal pass
    over int polynomials, [n k] = v^{-k} [n-1 k] + v^{n-k} [n-1 k-1], and
    q^{kc} shifts their exponents.  Each has positive coefficients, the
    lowest of them 1, so it is primitive and every term is built in
    canonical form, with no product and no gcd."""
    step, shift = to_units(d), to_units(c)
    row = [{0: 1}]  # row[k] = [n k], k = 0..n
    for n in range(1, m + 1):
        nxt = [{e - k * step: v for e, v in p.items()}
               for k, p in enumerate(row)] + [{}]
        for k, p in enumerate(row, 1):
            slot, u = nxt[k], (n - k) * step
            for e, v in p.items():
                slot[e + u] = slot.get(e + u, 0) + v
        row = nxt
    signs = F1, -F1
    return [_scalar(signs[k % 2], {e + k * shift: v for e, v in p.items()},
                    _UNIT) for k, p in enumerate(row)]


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


def qbinom_root_scan(m: int) -> list[int]:
    """Integer exponents c in -(m+2)..m+2 where the alternating q-binomial
    sum vanishes identically.  The factored form shows these are exactly
    m-1-2p for p = 0..m-1."""
    return [c for c in range(-(m + 2), m + 3)
            if not gauss_product_check(m, c)]
