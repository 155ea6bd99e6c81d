"""Reference forms the tests check the engine against.

The engine keeps weights as int tuples in units of 1/EXP_UNIT; these
oracles work on rational simple-root coordinates instead, the way the
engine computed before weights became integers.
"""

from fractions import Fraction


def fraction_pair(rs, x, y):
    """The bilinear form sum x_i b_ij y_j on rational coordinate vectors."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += Fraction(xi) * rs.bform[i][j] * yj
    return total
