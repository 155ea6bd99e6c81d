"""Reference forms the tests check the engine against.

The engine keeps weights as int tuples in units of 1/EXP_UNIT;
``fraction_pair`` works on rational simple-root coordinates instead, the
way the engine computed before weights became integers.  The q-scalar
views and the action of a difference operator on torus functions are
operations only the tests use, so they live here rather than in the
package.  So are dense matrices over rings other than the rationals
(tuples of row tuples): the package keeps those as sparse rows {row:
{column: entry}}, and the dense forms here are what it is checked against.
The per-root search for minimal segments and the q-scalar recursion for the
vanishing of non-simple R-matrix factors are the forms the engine used
before the normal ordering kept a segments table.  The Fraction reflection
matrices and Cayley transform are the rational forms of what the engine
keeps as integer columns and as ints over one denominator.  The dense
tuple-matrix sum, scaling and product over any ring, and the matrix-vector
product, are the forms ``ratmat`` had before its dense matrices became int
rows over one denominator.  The q-exponential with its identity term is
the form the R-matrix factors were multiplied in before ``times_q_exp``
multiplied the series into rows without forming the identity, and
``times_q_exp``, dividing by the q-numbers (k)_t, is the form every factor
took before the package applied each as 1 + x (``uqalg.times_one_plus``).
The Toda lowering, (id x pi_V) R and R_21 in the module, and the numeric
(pi_V x pi_V) R, each through ``times_q_exp`` with the base
q^{-(beta, beta)} of its factors, are the forms ``toda_hamiltonian``,
``pbw._r_in_rep`` and ``pbw.r_matrix_vv`` took before that.  The
discriminant by the Sylvester resultant is the general regularity test the
cross-section report used before it read the diagonal of the torus
element.  The balanced q-binomial as a q-scalar of its own, one
coefficient at a time, is the form the Serre coefficients were multiplied
out from before ``qarith.alternating_qbinom_terms`` built each term in
canonical form from one Pascal row.  The closed form of every type-A Toda
Hamiltonian is a reference the package does not compute: it builds them by
the trace pipeline and checks only the first against a closed form.
Weight coordinates as Fractions, the matrix flag parser that read every
entry through a Fraction, and the printers that wrote an entry as
str(Fraction(x, den)) and a q-scalar through its Fraction views are the
forms the command line used before reports were read and written from ints.
A module ladder as sparse rows of q-scalars, and a difference operator
scaled by a q-scalar, are the forms the module matrices and
``DifferenceOperator.scale`` had before the modules became ladders of int
exponents.
"""

import itertools
import json
from fractions import Fraction
from operator import add

from qwhit import cli, pbw, toda, uqalg
from qwhit.crosssec import coxeter_rep
from qwhit.qarith import (_UNIT, EXP_UNIT, ONE, ZERO, LaurentScalar,
                          _normalised, _primitive, _scalar, qpow, to_units)
from qwhit.ratmat import (det, kron, madd, mat, sparse, sparse_mul,
                          sparse_scale)
from qwhit.rootsys import weight, weight_pairing
from qwhit.toda import DifferenceOperator
from qwhit.uqalg import module_basis



def pair_weights(rs, x, y):
    """(x, y) for two weights, in units of 1/EXP_UNIT."""
    return weight_pairing(rs.covector(x), y)


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


def ladder_rows(ladder):
    """The sparse rows of a module ladder {row: (column, u)}: each entry the
    q-scalar q^(u/EXP_UNIT), built by the scalar's constructor from the
    exponent alone, with no ``qpow`` or ``times_q``."""
    return {r: {c: LaurentScalar({Fraction(u, EXP_UNIT): 1})}
            for r, (c, u) in ladder.items()}


def scaled(x, s):
    """x times the q-scalar s: a difference operator coefficient by
    coefficient, as ``DifferenceOperator.scale`` gave it before the package
    stopped scaling operators by scalars, and a q-scalar or PBW element by
    its own product."""
    if not isinstance(x, DifferenceOperator):
        return x * s
    return DifferenceOperator(x.rs, {lam: {z: c * s for z, c in zpart.items()}
                                     for lam, zpart in x.terms.items()})


def dense(rows, n, zero):
    """The n x n tuple matrix with the sparse rows rows."""
    return tuple(tuple(rows.get(r, {}).get(c, zero) for c in range(n))
                 for r in range(n))


def sparse_rows(m):
    """The sparse rows of the nonzero entries of a tuple matrix."""
    out = {}
    for r, row in enumerate(m):
        nonzero = {c: x for c, x in enumerate(row) if x}
        if nonzero:
            out[r] = nonzero
    return out


def dense_mul(a, b, zero):
    """The product of tuple matrices over any ring, accumulated row by row
    from zero over the nonzero entries."""
    width = len(b[0])
    out = []
    for row in a:
        acc = [zero] * width
        for c, brow in zip(row, b):
            if not c:
                continue
            for j, d in enumerate(brow):
                if d:
                    acc[j] = acc[j] + c * d
        out.append(tuple(acc))
    return tuple(out)


def dense_add(a, b):
    """The entrywise sum of tuple matrices over any ring."""
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_sub(a, b):
    """The entrywise difference of tuple matrices over any ring."""
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_scale(a, s):
    """The tuple matrix a with every entry times s on the right."""
    return tuple(tuple(scaled(x, s) for x in row) for row in a)


def q_paren(n, t):
    """The unbalanced q-number (n)_t = (t^n - 1)/(t - 1), as the sum of
    t^k over k < n."""
    out = ZERO
    p = ONE
    for _ in range(n):
        out = out + p
        p = p * t
    return out


def times_q_exp(rows, x, n, t):
    """rows exp_t(x) = rows + sum_k rows x^k / (k)_t!, with the unbalanced
    (k)_t = (t^k - 1)/(t - 1), for a nilpotent n x n matrix x over a ring the
    q-scalars act on, as sparse rows: one R-matrix factor applied without
    forming the identity.  The rows are invertible where this is used, so
    rows x^(n+1) is 0 exactly when x^(n+1) is; raises if it is not."""
    out = {r: dict(row) for r, row in rows.items()}
    term = rows  # rows x^k / (k)_t!
    for k in range(1, n + 2):
        term = sparse_mul(term, x)
        if not term:
            break
        if k > n:
            raise ArithmeticError("times_q_exp: matrix is not nilpotent")
        inv = q_paren(k, t).inverse()
        if inv != ONE:  # (1)_t = 1 leaves the term as it is
            term = {r: {c: scaled(v, inv) for c, v in row.items()}
                    for r, row in term.items()}
        for r, row in term.items():
            slot = out.setdefault(r, {})
            for c, v in row.items():
                slot[c] = slot[c] + v if c in slot else v
    out = {r: {c: v for c, v in row.items() if v} for r, row in out.items()}
    return {r: row for r, row in out.items() if row}


def q_exp_base(alg, beta):
    """The base q^{-(beta, beta)} of the q-exponential R-matrix factor for
    the root beta."""
    return qpow(-alg.rs.pair(beta, beta))


def module_f_leg(alg, rep, beta):
    """The sparse rows of K_{T beta} pi(f_beta) in the module rep, the
    module leg of the R-matrix factor for beta."""
    return rep.k_times(alg.ctx.cayley_apply(weight(beta)), pbw.evaluate(
        rep, pbw.root_vector(alg, beta, "-")))


def r_in_rep_by_q_exp(alg, rep, flipped):
    """``pbw._r_in_rep`` as it was before each factor became 1 + x: the
    Cartan diagonal, with each root's factor multiplied in by
    ``times_q_exp`` with its base q^{-(beta, beta)}."""
    out = {k: {k: alg.k(lam)} for k, lam in
           enumerate(uqalg.cartan_weights(alg, rep, -1 if flipped else 1))}
    for beta in alg.ordering.ordering:
        scale, t_beta = pbw._root_constants(alg, rep, beta)
        e_beta = pbw.root_vector(alg, beta, "+")
        if flipped:
            first = (alg.k(t_beta) * pbw.root_vector(alg, beta, "-")).scale(
                scale)
            second = pbw.evaluate(rep, e_beta)
        else:
            first, second = e_beta.scale(scale), module_f_leg(alg, rep, beta)
        out = times_q_exp(out, sparse_scale(second, first), rep.dim,
                          q_exp_base(alg, beta))
    return out


def r_matrix_vv_by_q_exp(alg, rep):
    """``pbw.r_matrix_vv`` as it was before it became pi_V of each entry
    of ``pbw._r_in_rep``: the Cartan diagonal q^{(mu, lam)} on V x V,
    with each root's factor multiplied in by ``times_q_exp`` on the
    Kronecker product of its two legs."""
    lams = uqalg.cartan_weights(alg, rep, 1)
    d = rep.dim
    out = {p: {p: ONE.times_q(pair_weights(alg.rs, mu, lam))}
           for p, (mu, lam) in enumerate(itertools.product(rep.weights, lams))}
    for beta in alg.ordering.ordering:
        scale = pbw._root_constants(alg, rep, beta)[0]
        first = sparse_scale(
            pbw.evaluate(rep, pbw.root_vector(alg, beta, "+")), scale)
        out = times_q_exp(out, kron(first, module_f_leg(alg, rep, beta), d),
                          d * d, q_exp_base(alg, beta))
    return out


def casimir_by_q_exp(alg, rep):
    """``uqalg.casimir_CV``, the trace of R_21 R (1 x K_{2 rho}) over the
    module, from the R_21 and R of ``r_in_rep_by_q_exp``."""
    r21 = r_in_rep_by_q_exp(alg, rep, True)
    rmat = r_in_rep_by_q_exp(alg, rep, False)
    two_rho = tuple(2 * x for x in alg.rs.rho)
    out = alg.zero()
    for j, mu in enumerate(rep.weights):
        twist = ONE.times_q(pair_weights(alg.rs, two_rho, mu))
        for k, x in r21.get(j, {}).items():
            y = rmat.get(k, {}).get(j)
            if y is not None:
                out = out + (x * y).scale(twist)
    return out


def q_exp_nilpotent(x, n, t, one):
    """exp_t(x) = sum_k x^k / (k)_t! for a nilpotent n x n matrix x over a
    ring whose unit is one, given and returned as sparse rows: the series
    with its identity term, which ``times_q_exp`` multiplies into rows
    without forming.  The factorial uses the unbalanced
    (k)_t = (t^k - 1)/(t - 1).  Raises if x fails to be nilpotent within
    n + 1 steps."""
    out = {r: {r: one} for r in range(n)}
    term, fact = x, ONE
    for k in range(1, n + 1):
        if not term:
            break
        fact = fact * q_paren(k, t)
        inv = fact.inverse()
        for r, row in term.items():
            slot = out[r]
            for c, v in row.items():
                v = scaled(v, inv)
                slot[c] = slot[c] + v if c in slot else v
        term = sparse_mul(term, x)
    if term:
        raise ArithmeticError("q_exp_nilpotent: matrix is not nilpotent")
    out = {r: {c: v for c, v in row.items() if v} for r, row in out.items()}
    return {r: row for r, row in out.items() if row}


def toda_hamiltonian_by_q_exp(alg, rep_name, chi, chibar):
    """The Hamiltonian of the module rep_name as ``toda.toda_hamiltonian``
    lowered it before each simple-root factor became 1 + x: chi(U) and R_21
    start at the identity and the Cartan shifts, and each factor is
    multiplied in by ``times_q_exp`` with its base
    q^{-(alpha_i, alpha_i)}, its chi(U) leg chi_i (q_i - q_i^{-1})
    K_{T alpha_i} pi(f_i) and its R_21 leg pi(e_i) times the lowered
    (q_i - q_i^{-1}) K_{T alpha_i} f_i."""
    rs = alg.rs
    rep = uqalg.rep_matrices(alg, rep_name)
    r21 = {k: {k: DifferenceOperator.shift(rs, lam)}
           for k, lam in enumerate(uqalg.cartan_weights(alg, rep, -1))}
    chi_u = {k: {k: ONE} for k in range(rep.dim)}
    for beta in alg.ordering.ordering:
        if sum(beta) != 1:
            continue
        i = beta.index(1)
        scale = qpow(rs.d[i]) - qpow(-rs.d[i])
        base = qpow(-rs.bform[i][i])
        t_beta = alg.ctx.cayley_apply(weight(beta))
        f_leg = toda.lower_rep(rs, {
            ((i,), t_beta, ()): scale.times_q(-rs.pair(t_beta, beta))}, chibar)
        chi_u = times_q_exp(chi_u, sparse_scale(
            rep.k_times(t_beta, ladder_rows(rep.f_mats[i])),
            chi.values[i] * scale), rep.dim, base)
        r21 = times_q_exp(r21, {
            r: {c: scaled(f_leg, x) for c, x in row.items()}
            for r, row in ladder_rows(rep.e_mats[i]).items()}, rep.dim, base)
    lams = uqalg.cartan_weights(alg, rep, 1)
    two_rho = tuple(2 * x for x in rs.rho)
    out = DifferenceOperator(rs)
    for j, row in r21.items():
        for k, x in row.items():
            y = chi_u.get(k, {}).get(j)
            if y:
                y = y.times_q(pair_weights(rs, two_rho, rep.weights[j]))
                out = out + DifferenceOperator(rs, {
                    tuple(map(add, lam, lams[k])): {
                        z: c * y for z, c in zpart.items()}
                    for lam, zpart in x.terms.items()})
    return toda.phi_conjugate(out)


def mvec(a, v):
    """The matrix a, rows of rationals or a ratmat Matrix, times the vector
    v, as a tuple of its entries."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dense_kron(a, b, zero):
    """The Kronecker product of tuple matrices: block (i, j) is a[i][j] b."""
    m = len(b)
    out = [[zero] * (len(a) * m) for _ in range(len(a) * m)]
    for i, arow in enumerate(a):
        for j, c in enumerate(arow):
            for k, brow in enumerate(b):
                for l, d in enumerate(brow):
                    out[i * m + k][j * m + l] = c * d
    return tuple(tuple(row) for row in out)


def k_matrix(rep, lam):
    """pi(K_lam) in the module rep as a dense q-scalar diagonal:
    q^{(lam, mu)} at each basis vector of weight mu."""
    rs = rep.alg.rs
    return tuple(tuple(ONE.times_q(pair_weights(rs, lam, mu)) if r == c else ZERO
                       for c in range(rep.dim))
                 for r, mu in enumerate(rep.weights))


def slice_point(params):
    """The point of N_+' s with the given n-1 first-row coordinates."""
    params = [Fraction(p) for p in params]
    n = len(params) + 1
    return madd(coxeter_rep(n), sparse(n, {(0, j): p
                                          for j, p in enumerate(params)}))


def q_int(n, d=1):
    """The balanced q-number [n] = (q^n - q^-n)/(q - q^-1) in base q^d, as
    the sum of q^{d(n-1-2k)} over k < n."""
    if n < 0:
        return -q_int(-n, d)
    return sum((qpow(d * (n - 1 - 2 * k)) for k in range(n)), ZERO)


def _polynomial(p):
    """The q-scalar of the polynomial with int coefficients p."""
    p = {e: v for e, v in p.items() if v}
    if not p:
        return ZERO
    k, p = _primitive(p)
    return _scalar(Fraction(k), p, _UNIT)


def q_binom(m, k, d=1):
    """Balanced q-binomial [m choose k] in base v = q^d, by the Pascal rule
    [n j] = v^{-j} [n-1 j] + v^{n-j} [n-1 j-1], which needs no division."""
    if k < 0 or k > m:
        return ZERO
    step = to_units(d)
    row = [{0: 1}]  # row[j] = [n j] for j <= min(n, k)
    for n in range(1, m + 1):
        nxt = []
        for j in range(min(n, k) + 1):
            p = {e - j * step: c for e, c in row[j].items()} if j < n else {}
            if j:
                shift = (n - j) * step
                for e, c in row[j - 1].items():
                    p[e + shift] = p.get(e + shift, 0) + c
            nxt.append(p)
        row = nxt
    return _polynomial(row[k])


def minimal_segment(ordering, gamma_pos):
    """Positions (p, r) of the minimal segment of the root at gamma_pos,
    by a search over every pair around it."""
    ordering = list(ordering)
    gamma = ordering[gamma_pos]
    candidates = []
    for p in range(gamma_pos):
        for r in range(gamma_pos + 1, len(ordering)):
            if tuple(a + b for a, b in zip(ordering[p], ordering[r])) == gamma:
                candidates.append((p, r))
    if not candidates:
        raise ValueError(f"root {gamma} admits no two-term decomposition")
    best = min(candidates, key=lambda pr: pr[1] - pr[0])
    for p, r in candidates:
        if (p, r) != best and best[0] <= p and r <= best[1]:
            raise RuntimeError("minimal segment is not unique")
    return best


def reflection_matrix(rs, i):
    """Fraction matrix of the simple reflection s_i in the simple-root basis:
    s_i(alpha_j) = alpha_j - a_ij alpha_i."""
    l = rs.rank
    return mat([[(1 if r == j else 0) - (rs.cartan[i][j] if r == i else 0)
                 for j in range(l)] for r in range(l)])


def cayley_transform(ctx):
    """The Cayley transform (1+s)/(1-s) of a Coxeter context as a Fraction
    matrix, from its ints over one denominator."""
    return tuple(tuple(Fraction(x, ctx.cayley_den) for x in row)
                 for row in ctx.cayley_num)


def commutator_exponent(ctx, a, b):
    """w = (a + T a, b) in units of 1/EXP_UNIT for roots a and b, through the
    Fraction Cayley transform and the rational pairing."""
    t_a = mvec(cayley_transform(ctx), a)
    return fraction_pair(ctx.rs, [x + t for x, t in zip(a, t_a)], b) * EXP_UNIT


def surviving_root(normal_ordering, chi, chibar):
    """The first root, by height, whose R-matrix factor survives the
    Whittaker projection, or None: the q-scalar recursion chi(e_beta) =
    (1 - q^w) chi(e_a) chi(e_b), chibar(f_beta) = (1 - q^{-w}) chibar(f_a)
    chibar(f_b) over the segments (a, b, w) of a normal ordering."""
    e_val, f_val = {}, {}
    for beta in sorted(normal_ordering.ordering, key=sum):
        if sum(beta) == 1:
            i = beta.index(1)
            e_val[beta], f_val[beta] = chi.values[i], chibar.values[i]
            continue
        a, b, w = normal_ordering.segments[beta]
        e_val[beta] = (ONE - ONE.times_q(w)) * e_val[a] * e_val[b]
        f_val[beta] = (ONE - ONE.times_q(-w)) * f_val[a] * f_val[b]
        if e_val[beta] or f_val[beta]:
            return beta
    return None


def shift_exponents(normal_ordering, shifts):
    """The normal ordering with shifts[beta] added to the q-commutator
    exponent w of each root beta in shifts."""
    return normal_ordering._replace(segments={
        beta: (a, b, w + shifts.get(beta, 0))
        for beta, (a, b, w) in normal_ordering.segments.items()})


def poly_discriminant(coeffs):
    """Discriminant of a monic polynomial given as [c_0..c_n], via the
    Sylvester resultant with the derivative."""
    coeffs = [Fraction(c) for c in coeffs]
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] != 1:
        raise ValueError("need a monic polynomial of positive degree")
    deriv = [k * coeffs[k] for k in range(1, n + 1)]
    size = 2 * n - 1
    rows = []
    for shift in range(n - 1):
        row = [0] * size
        for k, c in enumerate(reversed(coeffs)):
            row[shift + k] = c
        rows.append(tuple(row))
    for shift in range(n):
        row = [0] * size
        for k, c in enumerate(reversed(deriv)):
            row[shift + k] = c
        rows.append(tuple(row))
    res = det(mat(rows))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def closed_form(rs, k, chi, chibar, mutation=None):
    """The type-A Toda Hamiltonian H_k in closed form, for q-scalar
    character values chi and chibar: the sum over the k-subsets I of
    {1..n+1}, and over the subsets J of the boundary
    {j in I : j + 1 not in I, j <= n}, of

        prod_{j in J} (q - q^{-1})^2 chi_j chibar_j z_j
        * T_{2 omega_I - sum_{j in J} alpha_j},

    omega_I the sum of the V1 weights eps_i for i in I, and
    alpha_j = eps_j - eps_{j+1}.  It has sum_I 2^{|boundary(I)|} terms,
    and H_1 is ``toda.closed_form_M1``.  This is the shape of the
    relativistic Toda chain (Ruijsenaars, "Relativistic Toda systems",
    Comm. Math. Phys. 133, 1990); the q-Toda operators are those of
    Etingof, "Whittaker functions on quantum groups and q-deformed Toda
    operators", 1999.  That it does not depend on the ordering is observed,
    not proved.

    A mutation spoils it for the tests that it must fail: "drop boundary"
    leaves out the last index of each boundary, "flip alpha" adds alpha_j
    where it subtracts, "first power" takes q - q^{-1} once."""
    n = rs.rank
    _, eps = module_basis(rs, 1)
    step = qpow(1) - qpow(-1)
    coupling = step if mutation == "first power" else step * step
    sign = 1 if mutation == "flip alpha" else -1
    terms = {}
    for subset in itertools.combinations(range(1, n + 2), k):
        boundary = [j for j in subset if j <= n and j + 1 not in subset]
        if mutation == "drop boundary":
            boundary = boundary[:-1]
        omega = [2 * sum(eps[i - 1][c] for i in subset) for c in range(n)]
        for size in range(len(boundary) + 1):
            for js in itertools.combinations(boundary, size):
                shift, z, coef = list(omega), [0] * n, ONE
                for j in js:
                    shift = [s + sign * (a - b) for s, a, b
                             in zip(shift, eps[j - 1], eps[j])]
                    z[j - 1] = 1
                    coef = coef * coupling * chi[j - 1] * chibar[j - 1]
                slot = terms.setdefault(tuple(shift), {})
                z = tuple(z)
                slot[z] = slot[z] + coef if z in slot else coef
    return DifferenceOperator(rs, terms)


def weight_coords(lam):
    """Simple-root coordinates of the int weight lam, as Fractions."""
    return tuple(Fraction(x, EXP_UNIT) for x in lam)


def parse_matrix(text):
    """The --matrix parser with a Fraction per entry, through
    ``cli._parse_rational``, and ``mat``."""
    try:
        rows = json.loads(text, parse_float=str, parse_int=str)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError("matrix JSON is nested too deeply")
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) for r in rows)):
        raise ValueError("matrix JSON must be a list of rows")
    try:
        return mat([[cli._parse_rational(str(x)) for x in row]
                    for row in rows])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"matrix entries must be rational strings: {exc}")


def fraction_text(x, den):
    """The entry x / den as the report printed it through a Fraction."""
    return str(Fraction(x, den))


def scalar_text(x):
    """A q-scalar as text, through its Fraction views num and den."""
    def poly(p):
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
                head = f"q^{es}" if e != 1 else "q"
                parts.append(head if c == 1 else f"{c}*{head}")
        return " + ".join(parts).replace("+ -", "- ")

    ns = poly(x.num)
    if len(x.d) == 1:
        return ns
    return f"({ns})/({poly(x.den)})"
