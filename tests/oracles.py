"""Reference forms the tests check the engine against.

The engine keeps weights as int tuples in units of 1/EXP_UNIT;
``fraction_pair`` works on rational simple-root coordinates instead, the
way the engine computed before weights became integers.  The q-scalar
views and the action of a difference operator on torus functions are
operations only the tests use, so they live here rather than in the
package.
"""

from fractions import Fraction

from qwhit.qarith import _normalised


def fraction_pair(rs, x, y):
    """The bilinear form sum x_i b_ij y_j on rational coordinate vectors."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += Fraction(xi) * rs.bform[i][j] * yj
    return total


def is_polynomial(x):
    """Whether the q-scalar x is a Laurent polynomial (unit denominator)."""
    return len(x.d) == 1


def bar(x):
    """The substitution q -> q^{-1} on a q-scalar."""
    if not x.n:
        return x
    return _normalised(x.c, {-e: v for e, v in x.n.items()},
                       {-e: v for e, v in x.d.items()})


def as_rational(x):
    """The value of a constant q-scalar; ValueError when it is not one."""
    if not x.n:
        return Fraction(0)
    if x.n == {0: 1} and len(x.d) == 1:
        return x.c
    raise ValueError(f"{x} is not a constant")


def operator_apply(d, func):
    """The difference operator d acting on a torus function given as
    {z-exponent -> scalar}: T_lam z^b = q^{-(lam, b)} z^b, in the engine's
    integer units."""
    out = {}
    for lam, zpart in d.terms.items():
        blam = d.rs.covector(lam)
        for b, v in func.items():
            shifted = v.times_q(-sum(x * y for x, y in zip(blam, b)))
            for a, c in zpart.items():
                z = tuple(x + y for x, y in zip(a, b))
                out[z] = out[z] + c * shifted if z in out else c * shifted
    return {z: c for z, c in out.items() if c}
