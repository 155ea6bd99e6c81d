"""Quantized enveloping algebras presented on a Coxeter element.

The algebra has generators e_i, f_i and group-likes K_lam for rational weights
lam (int tuples in units of 1/EXP_UNIT, see ``rootsys``), subject to the
cross relation e_i f_j - q^{c_ji} f_j e_i =
delta_ij (K_i - K_i^{-1})/(q_i - q_i^{-1}) and deformed Serre relations whose
coefficients carry the Cayley pairing c_ij of the chosen Coxeter element.
The relative orientation of the cross and Serre exponents is forced: with
both Serre sides at q^{r c_ij}, only the c_ji cross closes the diamond on
words like e_1 f_2 f_1 f_1, and it is the one the realization map produces.

This module holds the algebra datum, the characters and the fundamental
modules with their relation checks.  Products of elements, and all that is
built from them, are the PBW engine of ``pbw``: ``casimir_CV`` and
``rho_chi`` import it when called, so the Toda path, which needs neither,
never loads it.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import namedtuple

from . import qarith, rootsys
from .qarith import EXP_UNIT, ONE, LaurentScalar, to_units



def step_budget():
    """The rewriting-step cap per Algebra: QWHIT_STEP_BUDGET (default
    5000000), which must be a positive integer; ValueError names the
    variable otherwise."""
    raw = os.environ.get("QWHIT_STEP_BUDGET", "5000000")
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(
            f"QWHIT_STEP_BUDGET must be a positive integer, got {raw!r}")
    return budget


def serre_coefficients(ctx, i, j):
    """Coefficients coef_r, r = 0..m with m = 1 - a_ij, of the deformed Serre
    relator sum_r coef_r x_i^{m-r} x_j x_i^r; the same on the e and f sides."""
    rs = ctx.rs
    return qarith.alternating_qbinom_terms(1 - rs.cartan[i][j], rs.d[i],
                                           ctx.cayley[i][j])


class Algebra:
    """Coxeter presentation of the quantized enveloping algebra for ctx.

    Holds the adapted normal ordering of the positive roots, the Serre
    coefficients, and the tables the PBW engine (``pbw.PBWAlgebra``) fills:
    the straightening rules for one-sided words and the memo tables of the
    cross-relation rewriting.  A new algebra has no rules and no completion
    queue: the queue of Serre relators is built by the first completion, so
    a caller that reduces no word (``toda``) never builds it.
    """

    def __init__(self, ctx: rootsys.CoxeterContext):
        self.ctx = ctx
        self.rs = ctx.rs
        self.rank = ctx.rs.rank
        self.zero_weight = (0,) * self.rank
        # letters are 0-based generator indices ordered by their pi position
        pos = {v - 1: k for k, v in enumerate(ctx.pi)}
        self.letter_rank = [pos[i] for i in range(self.rank)]
        self.ordering = rootsys.normal_ordering(ctx)
        # the relator coefficients, of the Serre rules and relation checks
        self.serre_coefs = {(i, j): serre_coefficients(ctx, i, j)
                            for i in range(self.rank)
                            for j in range(self.rank) if i != j}
        self._steps = 0
        self._budget = step_budget()
        self._reduce_cache: dict = {}
        self._etf_cache: dict = {}
        self._root_vector_cache: dict = {}
        self._scale_cache: dict = {}
        self._relation_cache = None  # built by the first module check
        self._toda_cache: list = []
        self.rules = []
        self._pending = None  # the completion queue, built by _complete
        self._degree = 0


# ---------------------------------------------------------------------------
# characters


class Character(namedtuple("Character", ("side", "values"))):
    """Non-singular character of a one-sided subalgebra: generator i maps to
    values[i], all nonzero."""

    __slots__ = ()

    def __new__(cls, side, values):
        if side not in ("e", "f"):
            raise ValueError("side must be 'e' or 'f'")
        if not all(values):
            raise ValueError("non-singular characters need nonzero values")
        return super().__new__(cls, side, values)


def character(side, values):
    vals = tuple(
        v if isinstance(v, LaurentScalar) else LaurentScalar.from_rational(v)
        for v in values
    )
    return Character(side=side, values=vals)



# ---------------------------------------------------------------------------
# representations


def module_basis(rs, k_index):
    """Basis of the k-th fundamental module of type A: the k-subsets s of
    1..rank+1 in order of (sum, s), and the weight of each,
    sum_i ([i in s] - [i + 1 in s]) omega_i."""
    n = rs.rank
    basis = sorted(itertools.combinations(range(1, n + 2), k_index),
                   key=lambda s: (sum(s), s))
    weights = tuple(
        _combination(rs, [(i + 1 in s) - (i + 2 in s) for i in range(n)])
        for s in basis)
    return basis, weights


def _combination(rs, coefs):
    """The weight sum_i coefs[i] omega_i, for int coefs."""
    return tuple(sum(c * o[k] for c, o in zip(coefs, rs.fundamental_weights))
                 for k in range(rs.rank))


class RepMatrices:
    """Exact matrices for a fundamental module, twisted into the Coxeter
    presentation; every defining relation is checked at build time.

    The module is minuscule, so pi(e_i) and pi(f_i) are ladders: at most one
    entry per row and per column, each a bare q-power.  A ladder is kept as
    {row: (column, u)}, the entry q^(u/EXP_UNIT), and ``compose`` multiplies
    two of them.  pi(e_i) is the ladder times K_nu, nu the twist of alpha_i,
    and pi(f_i) is K_{-nu} times the opposite ladder, so each entry carries
    u = (nu, mu), mu the weight of its source for e_i and of its image for
    f_i."""

    def __init__(self, alg, name, k_index, covectors):
        rs = alg.rs
        n = rs.rank
        self.alg = alg
        self.name = name
        basis, self.weights = module_basis(rs, k_index)
        self.dim = len(basis)
        index = {s: p for p, s in enumerate(basis)}
        # B mu for each basis weight mu, from the rootsys.Covectors table
        # covectors: a pairing with a module weight is one dot product with
        # it (``pairing``)
        self.weight_covectors = [covectors[mu] for mu in self.weights]

        def ladder(a, b, nu, at_source):
            # sends the basis vector s holding b but not a to s - {b} + {a},
            # times q^{(nu, mu)} for the weight mu of s or of its image
            rows = {}
            for s in basis:
                if b in s and a not in s:
                    r, c = index[tuple(sorted(set(s) - {b} | {a}))], index[s]
                    rows[r] = (c, self.pairing(nu, c if at_source else r))
            return rows

        self.e_mats = []
        self.f_mats = []
        for i in range(n):
            nu = _combination(rs, alg.ctx.twist[i])
            self.e_mats.append(ladder(i + 1, i + 2, nu, True))
            self.f_mats.append(ladder(i + 2, i + 1, tuple(-x for x in nu),
                                      False))
        self._check_relations()

    def pairing(self, lam, r):
        """(lam, mu) for the weight mu of basis vector r, in units of
        1/EXP_UNIT, from its covector."""
        return rootsys.weight_pairing(self.weight_covectors[r], lam)

    def k_times(self, lam, rows):
        """pi(K_lam) rows: q^{(lam, mu)} times each row of weight mu."""
        return {r: {c: x.times_q(self.pairing(lam, r))
                    for c, x in row.items()} for r, row in rows.items()}

    def _check_relations(self):
        """Check every defining relation on the ladders: the K-e and K-f
        relations entry by entry against the weights, the cross and Serre
        relations as int sums over the words of each relation
        (``_vanishes``).  The cross relation at (i, i) is multiplied through
        by q_i - q_i^{-1} to keep its coefficients polynomials, and its
        right side, moved over as K_i^{-1} - K_i, is two diagonal ladders
        with coefficients 1 and -1.  A failure raises one RuntimeError
        naming each kind of relation that fails, at its first failing
        (i, j)."""
        rs = self.alg.rs
        n = rs.rank
        # kexp[r][i] = (alpha_i, mu_r): pi(K_{alpha_i}) is q to it at r
        kexp = self.weight_covectors
        failures = dict.fromkeys(("K-e relation", "K-f relation",
                                  "cross relation", "e-Serre", "f-Serre"))

        def check(kind, i, j, ok):
            if not ok and failures[kind] is None:
                failures[kind] = (i, j)

        for i, j in itertools.product(range(n), repeat=2):
            # K_i x_j K_i^-1 = q^{(alpha_i, +-alpha_j)} x_j holds entry by
            # entry exactly where the weights differ by +-alpha_j
            for kind, x, b in (("K-e relation", self.e_mats[j], 1),
                               ("K-f relation", self.f_mats[j], -1)):
                b *= EXP_UNIT * rs.bform[i][j]
                check(kind, i, j, all(kexp[r][i] - kexp[c][i] == b
                                      for r, (c, _) in x.items()))
        e, f = self.e_mats, self.f_mats
        cross, serre = _relation_terms(self.alg)
        # e_i f_j - q^{c_ji} f_j e_i = delta_ij (K_i - K_i^-1)/(q_i - q_i^-1)
        for (i, j), (c_ef, c_fe) in cross.items():
            words = [(c_ef, [e[i], f[j]]), (c_fe, [f[j], e[i]])]
            if i == j:  # K_i^-1 and -K_i, each q^{+-(alpha_i, mu_r)} at r
                words += [(((0, -sign),), [{r: (r, sign * k[i])
                                            for r, k in enumerate(kexp)
                                            if k[i]}]) for sign in (-1, 1)]
            check("cross relation", i, j, _vanishes(words))
        for side, x in (("e", e), ("f", f)):
            for (i, j), coefs in serre.items():
                m = len(coefs) - 1  # coef_r x_i^{m-r} x_j x_i^r
                check(f"{side}-Serre", i, j, _vanishes([
                    (coef, [x[i]] * (m - r) + [x[j]] + [x[i]] * r)
                    for r, coef in enumerate(coefs)]))
        failed = [f"{kind} fails at ({at[0]},{at[1]})"
                  for kind, at in failures.items() if at]
        if failed:
            raise RuntimeError(f"{self.name}: " + "; ".join(failed))

    def cartan_difference(self, lam):
        """pi(K_lam) - pi(K_lam)^{-1}, a diagonal of sparse rows."""
        out = {}
        for r in range(self.dim):
            x = self.pairing(lam, r)
            if x:
                out[r] = {r: ONE.times_q(x) - ONE.times_q(-x)}
        return out


def compose(a, b):
    """The ladder a b: each row's entry in a, followed into b, ends in a
    column of b with the exponents summed, or the row drops out."""
    out = {}
    for r, (k, u) in a.items():
        step = b.get(k)
        if step is not None:
            out[r] = (step[0], u + step[1])
    return out


def _vanishes(relation):
    """Whether sum coef * word over the (coef, word) in relation is zero,
    each coef int (q-exponent, coefficient) terms and each word a list of
    ladders composed left to right: the coefficients summed at each (row,
    column, exponent) are all 0."""
    total = {}
    for coef, word in relation:
        for r, (c, u) in functools.reduce(compose, word).items():
            for w, y in coef:
                key = (r, c, u + w)
                total[key] = total.get(key, 0) + y
    return not any(total.values())


def _relation_terms(alg):
    """The coefficients of e_i f_j and f_j e_i in the cross relation at each
    (i, j), s and -s q^{c_ji} with s = q_i - q_i^{-1} at i = j and 1 else,
    and of each Serre relator, read off its polynomial of content +-1, as
    int (q-exponent, coefficient) terms, memoized on alg."""
    if alg._relation_cache is None:
        ctx, cross = alg.ctx, {}
        for i, j in itertools.product(range(alg.rank), repeat=2):
            d = to_units(alg.rs.d[i])
            s = ((d, 1), (-d, -1)) if i == j else ((0, 1),)
            c = to_units(ctx.cayley[j][i])
            cross[i, j] = s, tuple((u + c, -y) for u, y in s)
        alg._relation_cache = cross, {
            ij: [[(u, x.c.numerator * v) for u, v in x.n.items()]
                 for x in coefs]
            for ij, coefs in alg.serre_coefs.items()}
    return alg._relation_cache


def rep_matrices(alg, name, covectors=None):
    """Named module catalogue: 'V1'..'Vl' are the fundamental modules.  The
    covectors of the module's weights are read from covectors, a
    ``rootsys.Covectors`` table, or from a new one."""
    return RepMatrices(alg, name, alg.rs.module_index(name),
                       rootsys.Covectors(alg.rs) if covectors is None
                       else covectors)


# ---------------------------------------------------------------------------
# R-matrix factors


def cartan_weights(alg, rep, sign):
    """The weight mu + sign * T mu of the Cartan factor at each basis vector
    of weight mu: sign = 1 in (id x pi_V) R, sign = -1 in R_21."""
    return [tuple(m + sign * t for m, t in zip(mu, alg.ctx.cayley_apply(mu)))
            for mu in rep.weights]


def times_one_plus(rows, x, what):
    """rows (1 + x) in place, for sparse rows x with no chain of length 2.

    Every catalogue module is minuscule, pi(e_beta)^2 = pi(f_beta)^2 = 0,
    so an R-matrix factor exp_t(x) with a module leg is 1 + x whatever its
    base t.  That x^2 = 0 is checked by its shape: no column of x may be a
    row of x, or RuntimeError names what.  Then no entry read is one
    written, and each row adds its entry in column k times x_kc to column
    c, in that order, as PBW entries do not commute.  Entries that cancel
    stay, as zeros."""
    if any(c in x for xrow in x.values() for c in xrow):
        raise RuntimeError(f"{what} has a chain of length 2, so its R-matrix "
                           f"factor is not 1 + x")
    for row in rows.values():
        for k, xrow in x.items():
            v = row.get(k)
            if v:
                for c, y in xrow.items():
                    w = v * y
                    row[c] = row[c] + w if c in row else w


def casimir_CV(alg, rep):
    """Central element (id x tr_V)(R_21 R (1 x K_{2 rho})) for the module, of
    a ``pbw.PBWAlgebra`` (``pbw.central_element``)."""
    from . import pbw

    return pbw.central_element(alg, rep)


def rho_chi(x, chi):
    """Projection of a PBW element onto the lower Borel part along the
    character ideal (``pbw.whittaker_projection``)."""
    from . import pbw

    return pbw.whittaker_projection(x, chi)
