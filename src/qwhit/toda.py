"""Deformed quantum Toda Hamiltonians as exact difference operators.

Torus functions are Laurent polynomials in z_1..z_l, where z_i stands for the
exponential e^{-h(y, alpha_i)}.  A difference operator is a finite sum of
terms coeff(z) * T_lam with rational-weight shifts lam, composed through the
exact rule T_lam z_i = q^{-(lam, alpha_i)} z_i T_lam.  Shifts are weights in
the int format of ``rootsys``, so (lam, b) for a z-exponent b is one integer
dot product with the covector B lam, applied as an exponent shift.  The
Hamiltonians are the Whittaker images of the central elements C_V =
(id x tr_V)(R_21 R K_{2 rho}), sent to difference operators by
f_i -> chibar(f_i) z_i and K_lam -> T_lam and conjugated by the half-sum
twist q^{-(rho, lam)}.

That lowering is an algebra map on the lower Borel part (the shift rule
mirrors K_lam f_i = q^{-(lam, alpha_i)} f_i K_lam, and the z_i commute), so
R_21 is lowered factor by factor and never multiplied out in the algebra.
For a non-simple root the lowered factor and its chi(U) counterpart are the
identity, so each generator is a product of one factor per simple root, in
the order of the adapted normal ordering, which each system checks by an
integer test on the segments table's q-commutator exponents.  The modules
are minuscule, so each factor exp_t(x) is 1 + x, applied in one pass over
the module's own ladders (``uqalg.times_one_plus``); no PBW element is
multiplied.

Sign note: the potential of the closed-form type-A Hamiltonian is
+(q - q^{-1})^2 chi_i chibar_i z_i, the sign the trace pipeline produces and
the one whose quasiclassical limit matches the classical operator with
potential +sum_i chi_i chibar_i e^{-alpha_i(y)}.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from operator import add, mul

from . import qarith, uqalg
from .qarith import EXP_UNIT, ONE, qpow
from .rootsys import Covectors, weight, weight_pairing


def _clean(terms):
    """terms without zero coefficients or empty shifts."""
    out = {}
    for lam, zpart in terms.items():
        zpart = {z: c for z, c in zpart.items() if c}
        if zpart:
            out[lam] = zpart
    return out


def _operator(rs, terms, covectors):
    """The operator with terms that are already clean and the given
    covector table."""
    op = object.__new__(DifferenceOperator)
    op.rs, op.terms, op.covectors = rs, terms, covectors
    return op


class DifferenceOperator:
    """Finite map {shift lam -> {z-exponent -> scalar}} over a root system,
    each shift a weight (an int tuple in units of 1/EXP_UNIT).  An operator
    keeps the ``Covectors`` table of its shifts, which the operators made
    from it share."""

    __slots__ = ("rs", "terms", "covectors")

    def __init__(self, rs, terms=None):
        self.rs = rs
        self.terms = _clean(terms or {})
        self.covectors = Covectors(rs)

    # -- constructors --------------------------------------------------------
    @classmethod
    def shift(cls, rs, lam, covectors=None):
        """T_lam, with a new covector table or the one given."""
        return _operator(rs, {tuple(lam): {(0,) * rs.rank: ONE}},
                         Covectors(rs) if covectors is None else covectors)

    # -- ring structure ------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, DifferenceOperator) and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        out = {lam: dict(zp) for lam, zp in self.terms.items()}
        for lam, zpart in other.terms.items():
            slot = out.setdefault(lam, {})
            for z, c in zpart.items():
                slot[z] = slot[z] + c if z in slot else c
        return _operator(self.rs, _clean(out), self.covectors)

    def __neg__(self):
        return _operator(self.rs, {
            lam: {z: -c for z, c in zpart.items()}
            for lam, zpart in self.terms.items()}, self.covectors)

    def __sub__(self, other):
        return self + (-other)

    def times_q(self, u):
        """self * q^(u / EXP_UNIT) for an int u, each coefficient shifted
        (``LaurentScalar.times_q``): no product."""
        return _operator(self.rs, {
            lam: {z: c.times_q(u) for z, c in zpart.items()}
            for lam, zpart in self.terms.items()}, self.covectors)

    def __mul__(self, other):
        """Operator composition: self after other."""
        if not isinstance(other, DifferenceOperator):
            return NotImplemented
        out = {}
        covectors = self.covectors
        for lam1, zp1 in self.terms.items():
            # T_{lam1} z^b = q^{-(lam1, b)} z^b T_{lam1}, with (lam1, b) the
            # dot product of b with B lam1, in units of 1/EXP_UNIT
            blam = covectors[lam1]
            for lam2, zp2 in other.terms.items():
                slot = out.setdefault(tuple(map(add, lam1, lam2)), {})
                for b, c2 in zp2.items():
                    c2 = c2.times_q(-sum(map(mul, blam, b)))
                    for a, c1 in zp1.items():
                        z = tuple(map(add, a, b))
                        c = c1 * c2
                        slot[z] = slot[z] + c if z in slot else c
        return _operator(self.rs, _clean(out), covectors)

    def __repr__(self):
        return f"DifferenceOperator({self.terms!r})"


def commutator(d1, d2):
    """[d1, d2] = d1 d2 - d2 d1 in one pass over the pairs of terms: for
    c1 z^a T_lam1 in d1 and c2 z^b T_lam2 in d2 it is

        c1 c2 (q^{-(lam1, b)} - q^{-(lam2, a)}) z^{a+b} T_{lam1+lam2},

    so a pair whose two exponents agree drops out before any product.  The
    difference of q-powers is formed once per pair of exponents."""
    covectors = d1.covectors
    right = [(lam2, zp2, covectors[lam2]) for lam2, zp2 in d2.terms.items()]
    diffs = {}
    out = {}
    for lam1, zp1 in d1.terms.items():
        blam1 = covectors[lam1]
        for lam2, zp2, blam2 in right:
            bs = [(b, c2, sum(map(mul, blam1, b))) for b, c2 in zp2.items()]
            slot = out.setdefault(tuple(map(add, lam1, lam2)), {})
            for a, c1 in zp1.items():
                u2 = sum(map(mul, blam2, a))
                for b, c2, u1 in bs:
                    if u1 == u2:
                        continue
                    diff = diffs.get((u1, u2))
                    if diff is None:
                        diff = diffs[u1, u2] = (ONE.times_q(-u1)
                                                - ONE.times_q(-u2))
                    c = c1 * c2 * diff
                    z = tuple(map(add, a, b))
                    slot[z] = slot[z] + c if z in slot else c
    return _operator(d1.rs, _clean(out), covectors)


def commutes(*ops):
    """Whether the difference operators commute pairwise, decided in Python
    ints on one integer image of them all: commutes(d1, d2) is [d1, d2] = 0.

    The pairs of terms are those of ``commutator``: c1 z^a T_lam1 of d1 and
    c2 z^b T_lam2 of d2 give c1 c2 (q^{-u1} - q^{-u2}) z^{a+b} T_{lam1+lam2}
    with u1 = (lam1, b) and u2 = (lam2, a).  ``qarith.integer_image`` takes
    every coefficient and every pairing of a shift with a z-exponent, so
    values V and shift bits are formed once per operator.  With u_max the
    largest pairing, a pair of terms adds V1 V2 shifted by K (u_max - u1)/g
    bits minus the same shifted by K (u_max - u2)/g bits to the total of
    its key (lam1 + lam2, a + b), packed into an int by ``_sum_codes``.
    Each total is the image of L^2 q^{u_max - 2 origin} times a coefficient
    of [d1, d2], of l1 norm at most 2 N1 N2 (N the summed norms of an
    operator's cleared coefficients); K is for B = max 2 N_a N_b over the
    pairs, so 2^K > B for every pair and a total is 0 exactly when its
    coefficient is.  A non-unit denominator leaves each pair to
    ``commutator``."""
    ops = [d for d in ops if d]
    if len(ops) < 2:
        return True
    covectors = ops[0].covectors
    terms = [[(lam, z, c) for lam, zp in d.terms.items()
              for z, c in zp.items()] for d in ops]
    zs = list({z: None for ts in terms for _, z, _ in ts})
    # (lam, z) for each shift lam of each operator and each z-exponent z
    pairings = [{lam: [sum(map(mul, covectors[lam], z)) for z in zs]
                 for lam in d.terms} for d in ops]
    shifts = [u for us in pairings for row in us.values() for u in row]
    image = qarith.integer_image([c for ts in terms for _, _, c in ts], shifts)
    if image is None:
        return all(not commutator(d1, d2) for d1, d2 in combinations(ops, 2))
    norms = iter(image.norms)
    sizes = [sum(next(norms) for _ in ts) for ts in terms]
    values = iter(image.values(max(2 * na * nb for na, nb
                                   in combinations(sizes, 2))))
    u_max = max(shifts)
    codes = _sum_codes([[lam + z for lam, z, _ in ts] for ts in terms])
    index = {z: k for k, z in enumerate(zs)}
    sides = []
    for ts, us, code in zip(terms, pairings, codes):
        bits = {lam: [image.exponent(u_max - u) for u in row]
                for lam, row in us.items()}
        sides.append([(k, next(values), index[z], bits[lam])
                      for k, (lam, z, _) in zip(code, ts)])
    for left, right in combinations(sides, 2):
        out = {}
        for k1, v1, a, shifts1 in left:
            for k2, v2, b, shifts2 in right:
                s1, s2 = shifts1[b], shifts2[a]
                if s1 != s2:
                    p = v1 * v2
                    k = k1 + k2
                    out[k] = out.get(k, 0) + (p << s1) - (p << s2)
        if any(out.values()):
            return False
    return True


def hamiltonians_commute(hams):
    """Whether the Hamiltonians of a system commute pairwise: ``commutes``
    of them all, on one integer image with K for the largest pair bound."""
    return commutes(*hams)


def _sum_codes(vss):
    """Int codes of the lists of int vectors vss such that the sum of the
    codes of two vectors, from any two lists, determines their sum: each
    coordinate is a digit offset by its least value over all the lists,
    in a radix wider than the range of the sums."""
    codes = [[0] * len(vs) for vs in vss]
    radix = 1
    for col in zip(*(v for vs in vss for v in vs)):
        lo = min(col)
        digits = iter(col)
        codes = [[k + (next(digits) - lo) * radix for k in code]
                 for code in codes]
        radix *= 2 * (max(col) - lo) + 1
    return codes


def lower_rep(rs, terms, chibar):
    """Difference operator of a lower-Borel element, given by its terms
    {(f-word, lam, e-word): coefficient} in normal form: f_i becomes the
    multiplication operator chibar(f_i) z_i and K_lam becomes the shift T_lam.

    Opposite combinations of f-letters that add up to a non-simple root
    vector cancel on the nose, because the z_i commute.
    """
    if chibar.side != "f":
        raise ValueError("lower_rep needs an f-side character")
    rank = rs.rank
    out = {}
    for (fw, lam, ew), c in terms.items():
        if ew:
            raise ValueError("lower_rep applies to elements without e-letters")
        zexp = [0] * rank
        coeff = c
        for i in fw:
            zexp[i] += 1
            coeff = coeff * chibar.values[i]
        slot = out.setdefault(lam, {})
        z = tuple(zexp)
        slot[z] = slot[z] + coeff if z in slot else coeff
    return DifferenceOperator(rs, out)


def phi_conjugate(op):
    """Conjugate by multiplication with the rho-exponential: each shift T_lam
    picks up the scalar q^{-(rho, lam)}."""
    brho = op.covectors[op.rs.rho]
    out = {}
    for lam, zpart in op.terms.items():
        u = -weight_pairing(brho, lam)
        out[lam] = {z: c.times_q(u) for z, c in zpart.items()}
    return _operator(op.rs, out, op.covectors)


def _check_non_simple_factors_vanish(alg):
    """Raise RuntimeError unless the R-matrix factor of every non-simple
    root drops out of the Whittaker image.

    With (a, b, w) the segment of beta, so e_beta = e_a e_b - q^w e_b e_a,
    the characters give chi(e_beta) = (1 - q^w) chi(e_a) chi(e_b), and
    since the z_i commute the lowered f_beta is chibar(f_beta) z^beta with
    chibar(f_beta) = (1 - q^{-w}) chibar(f_a) chibar(f_b).  Both must
    vanish, and that is decided on w alone: a non-singular character has
    no zero value, q-scalars have no zero divisors, and 1 - q^{+-w} is zero
    exactly when w = 0.  Walking the roots by height, a root whose segment
    is two simple roots survives exactly when w != 0; while none has, every
    higher root has a vanishing end of its segment and vanishes too.  So
    the first root to survive is the first of the walk whose segment is two
    simple roots and whose w is nonzero, the root this check names."""
    segments = alg.ordering.segments
    # segments follows the ordering and sorted is stable, so this walk is
    # sorted(ordering, key=sum) without the simple roots
    for beta in sorted(segments, key=sum):
        a, b, w = segments[beta]
        if w and sum(a) == sum(b) == 1:
            raise RuntimeError(
                f"the R-matrix factor of the non-simple root {beta} survives "
                f"the Whittaker projection for the ordering "
                f"{','.join(map(str, alg.ctx.pi))}: e_beta = e_a e_b - "
                f"q^w e_b e_a with a = {a}, b = {b} simple and "
                f"w = {Fraction(w, EXP_UNIT)} != 0")


def _simple_factors(alg, chi, chibar):
    """Of each simple-root factor, what no module changes, memoized on alg
    (found by equality, which hashes no Fraction): i, T alpha_i, chi(e_i)
    times the scale q_i - q_i^{-1} (the (i, i) cross relation
    ``RepMatrices`` checks, as c_ii = 0), and the lowered chibar leg."""
    for known, factors in alg._toda_cache:
        if known == (chi, chibar):
            return factors
    _check_non_simple_factors_vanish(alg)
    rs = alg.rs
    factors = []
    for beta in (b for b in alg.ordering.ordering if sum(b) == 1):
        i = beta.index(1)
        scale = qpow(rs.d[i]) - qpow(-rs.d[i])
        t_beta = alg.ctx.cayley_apply(weight(beta))
        # K_{T alpha_i} f_i = q^{-(T alpha_i, alpha_i)} f_i K_{T alpha_i},
        # the pairing read off B alpha_i, as the form is symmetric
        f_leg = lower_rep(rs, {
            ((i,), t_beta, ()): scale.times_q(-rs.pair(beta, t_beta))}, chibar)
        factors.append((i, t_beta, chi.values[i] * scale, f_leg))
    alg._toda_cache.append(((chi, chibar), factors))
    return factors


def toda_hamiltonian(alg, rep_name, chi, chibar, covectors):
    """Hamiltonian of one fundamental representation V: the Whittaker image
    of C_V, lowered and conjugated by rho, without a product in the algebra.

    (id x pi_V) R = diag(K_{lam_k}) U with lam_k = mu_k + T mu_k, where U
    is the ordered product of the q-exponentials of e_beta (x) K_{T beta}
    pi(f_beta); the projection replaces each e_beta by chi(e_beta), so U
    becomes a numeric matrix chi(U).  R_21 is diag(K_{mu_k - T mu_k}) times
    the q-exponentials of K_{T beta} f_beta (x) pi(e_beta), and is lowered
    factor by factor.  Only simple roots contribute, and a module adds only
    pi(e_i) and K_{T alpha_i} pi(f_i) to ``_simple_factors``.  A catalogue
    module is minuscule, pi(e_i)^2 = pi(f_i)^2 = 0, so each factor exp_t(x)
    is 1 + x whatever its base t, applied to R_21 and chi(U) in place by
    ``uqalg.times_one_plus``; a ladder with a chain of length 2 raises
    RuntimeError instead.  H_V is

        sum_j q^{(2 rho, mu_j)} sum_k R21low[j][k] T_{lam_k} chi(U)[k][j].

    Its operators and its module share the ``rootsys.Covectors`` table
    covectors.
    """
    if chi.side != "e" or chibar.side != "f":
        raise ValueError("the Toda Hamiltonians take an e-side character chi "
                         "and an f-side character chibar")
    factors = _simple_factors(alg, chi, chibar)
    rs = alg.rs
    rep = uqalg.rep_matrices(alg, rep_name, covectors)
    r21 = {k: {k: DifferenceOperator.shift(rs, lam, covectors)}
           for k, lam in enumerate(uqalg.cartan_weights(alg, rep, -1))}
    chi_u = {k: {k: ONE} for k in range(rep.dim)}
    for i, t_alpha, chi_scale, f_leg in factors:
        # pi(e_i) times the chibar leg, and chi_i scale K_{T alpha_i} pi(f_i)
        uqalg.times_one_plus(r21, {
            k: {c: f_leg.times_q(u)} for k, (c, u) in rep.e_mats[i].items()},
            f"{rep.name}: pi(e_{i})")
        uqalg.times_one_plus(chi_u, {
            k: {c: chi_scale.times_q(u + rep.pairing(t_alpha, k))}
            for k, (c, u) in rep.f_mats[i].items()}, f"{rep.name}: pi(f_{i})")
    lams = uqalg.cartan_weights(alg, rep, 1)
    two_rho = tuple(2 * x for x in rs.rho)
    out = {}
    for j, row in r21.items():
        u = rep.pairing(two_rho, j)
        for k, x in row.items():
            y = chi_u[k].get(j)
            if y:  # c z^a T_lam T_{lam_k} = c z^a T_{lam + lam_k}
                y = y.times_q(u)
                for lam, zpart in x.terms.items():
                    slot = out.setdefault(tuple(map(add, lam, lams[k])), {})
                    for z, c in zpart.items():
                        c = c * y
                        slot[z] = slot[z] + c if z in slot else c
    return phi_conjugate(_operator(rs, _clean(out), covectors))


def closed_form_M1(alg, chi_vals, chibar_vals):
    """Type-A first Hamiltonian in closed form: sum of squared weight shifts
    plus the nearest-neighbour potential.

    Takes the q-scalar values of the two characters, not ``Character``s, so
    the degenerate case (all couplings zero, free Hamiltonian) stays
    expressible; the pipeline itself needs non-singular characters.
    """
    rs = alg.rs
    if rs.series != "A":
        raise ValueError("the closed form is specific to type A")
    _, weights = uqalg.module_basis(rs, rs.module_index("V1"))
    kinetic = {tuple(2 * x for x in mu): {(0,) * rs.rank: ONE} for mu in weights}
    coupling = (qpow(1) - qpow(-1)) * (qpow(1) - qpow(-1))
    potential = {tuple(map(add, weights[i], weights[i + 1])): {
        rs.simple_root(i): coupling * chi_vals[i] * chibar_vals[i]}
        for i in range(rs.rank)}
    return DifferenceOperator(rs, kinetic) + DifferenceOperator(rs, potential)


class TodaSystem(namedtuple("TodaSystem",
                            ("alg", "chi", "chibar", "hamiltonians"))):
    """The Hamiltonians of one algebra, with the two characters behind
    them."""

    __slots__ = ()


def build_toda_system(alg, chi_vals, chibar_vals):
    """All fundamental-representation Hamiltonians for one type-A algebra."""
    chi = uqalg.character("e", chi_vals)
    chibar = uqalg.character("f", chibar_vals)
    covectors = Covectors(alg.rs)
    hams = tuple(
        toda_hamiltonian(alg, f"V{k + 1}", chi, chibar, covectors)
        for k in range(alg.rs.rank)
    )
    return TodaSystem(alg=alg, chi=chi, chibar=chibar, hamiltonians=hams)


def closed_form_holds(system):
    """Is the first Hamiltonian of a type-A Toda system its closed form?"""
    return system.hamiltonians[0] == closed_form_M1(
        system.alg, system.chi.values, system.chibar.values)
