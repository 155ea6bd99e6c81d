"""Quantized enveloping algebras presented on a Coxeter element.

The algebra has generators e_i, f_i and group-likes K_lam for rational weights
lam (int tuples in units of 1/EXP_UNIT, see ``rootsys``), subject to the
cross relation e_i f_j - q^{c_ji} f_j e_i =
delta_ij (K_i - K_i^{-1})/(q_i - q_i^{-1}) and deformed Serre relations whose
coefficients carry the Cayley pairing c_ij of the chosen Coxeter element.
The relative orientation of the cross and Serre exponents is forced: with
both Serre sides at q^{r c_ij}, only the c_ji cross closes the diamond on
words like e_1 f_2 f_1 f_1, and it is the one the realization map produces.
Elements are kept in a normal form f-word * K * e-word, with one-sided words
reduced by a Groebner-completed rewriting system, so equality and the zero
test are structural.  The rules are completed degree by degree, as words
need them: an algebra is built with no rules and no completion queue, the
first word it reduces queues the Serre relators, and a word longer than any
reduced before first resumes the completion up to its own length, so
orderings and ranks whose rule set is infinite still work.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import os
from collections import namedtuple

from . import qarith, rootsys
from .qarith import EXP_UNIT, ONE, ZERO, LaurentScalar, qpow
from .ratmat import kron, sparse_mul, sparse_scale


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


def _nonzero(terms):
    """The terms whose coefficients are not zero."""
    return {k: c for k, c in terms.items() if c}


def _word_key(rank_of, word):
    return (len(word), tuple(rank_of[x] for x in word))


def serre_coefficients(ctx, i, j):
    """Coefficients coef_r, r = 0..m with m = 1 - a_ij, of the deformed Serre
    relator sum_r coef_r x_i^{m-r} x_j x_i^r; the same on the e and f sides."""
    rs = ctx.rs
    return qarith.alternating_qbinom_terms(1 - rs.cartan[i][j], rs.d[i],
                                           ctx.cayley[i][j])


class Algebra:
    """Coxeter presentation of the quantized enveloping algebra for ctx.

    Holds the straightening rules for one-sided words (shared by the e and f
    sides, whose deformed Serre relations are identical in shape), the
    adapted normal ordering of the positive roots, and memo tables for the
    cross-relation rewriting.  A new algebra has the Serre coefficients but
    no rules and no completion queue: the queue of Serre relators is built
    by the first completion, so a caller that reduces no word (``toda``)
    never builds it.
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
        self._relation_cache: dict = {}
        self._toda_cache: list = []
        self.rules = []
        self._pending = None  # the completion queue, built by _complete
        self._degree = 0

    # -- bookkeeping ---------------------------------------------------------
    def _tick(self, word_len):
        """Charge one rewriting step; word_len is None inside the completion
        and the length of the word being reduced otherwise."""
        self._steps += 1
        if self._steps > self._budget:
            if word_len is None:
                longest = max((len(lead) for lead, _ in self.rules), default=0)
                stage = (f"completing the Serre rules to degree {self._target}"
                         f" ({len(self.rules)} rules, longest lead {longest})")
            else:
                stage = f"reducing a word of length {word_len}"
            raise ArithmeticError(
                f"rewriting exceeded the step budget ({self._budget}) while "
                f"{stage}; set QWHIT_STEP_BUDGET higher for larger "
                "computations")

    def word_weight(self, word):
        out = [0] * self.rank
        for i in word:
            out[i] += 1
        return tuple(out)

    # -- straightening rules for one-sided words ------------------------------
    def _serre_relators(self):
        relators = []
        for (i, j), coefs in self.serre_coefs.items():
            m = len(coefs) - 1
            poly = {}
            for r, coef in enumerate(coefs):
                word = (i,) * (m - r) + (j,) + (i,) * r
                poly[word] = poly.get(word, ZERO) + coef
            relators.append(_nonzero(poly))
        return relators

    def _normalize_rule(self, poly):
        lead = max(poly, key=lambda w: _word_key(self.letter_rank, w))
        inv = poly[lead].inverse()
        tail = {w: -(c * inv) for w, c in poly.items() if w != lead}
        return lead, tail

    def _reduce_poly(self, poly, word_len=None):
        """Fully reduce a word polynomial modulo the current rules."""
        out = {}
        work = dict(poly)
        while work:
            self._tick(word_len)
            word = max(work, key=lambda w: _word_key(self.letter_rank, w))
            coef = work.pop(word)
            if not coef:
                continue
            hit = None
            for lead, tail in self.rules:
                k = len(lead)
                for p in range(len(word) - k + 1):
                    if word[p:p + k] == lead:
                        hit = (p, lead, tail)
                        break
                if hit:
                    break
            if hit is None:
                out[word] = out.get(word, ZERO) + coef
                continue
            p, lead, tail = hit
            for v, c in tail.items():
                w2 = word[:p] + v + word[p + len(lead):]
                work[w2] = work.get(w2, ZERO) + coef * c
                if not work[w2]:
                    del work[w2]
        return _nonzero(out)

    # The completion queue is a heap of (length, seq, a, y, b, x), each
    # entry the homogeneous polynomial a*y - x*b of that word length: a
    # Serre relator (b = 0), or the two rewrites of a word x*m*y where the
    # leads x*m and m*y overlap.  The relators being homogeneous, an entry
    # reduces to a remainder of its own length, so rules appear in order of
    # lead length, each lead irreducible by the rules before it: no lead
    # contains another, and overlaps are the only ambiguities.  Once every
    # entry up to length D is resolved, the rules give the exact normal form
    # of every word of length <= D (Mora, TCS 134, 1994).

    def _queue_overlaps(self, rule1, rule2):
        """Queue each word where a suffix of lead1 is a prefix of lead2,
        with the difference of its two rewrites."""
        (lead1, tail1), (lead2, tail2) = rule1, rule2
        for k in range(1, min(len(lead1), len(lead2))):
            if lead1[-k:] == lead2[:k]:
                heapq.heappush(self._pending, (
                    len(lead1) + len(lead2) - k, next(self._seq),
                    tail1, lead2[k:], tail2, lead1[:-k]))

    def _complete(self, degree):
        """Resolve every queued polynomial of length <= degree; a nonzero
        remainder becomes a rule and queues its overlaps with every rule,
        itself included.  The first call builds the queue from the Serre
        relators."""
        self._target = degree
        if self._pending is None:
            self._pending = [(len(next(iter(rel))), seq, rel, (), {}, ())
                             for seq, rel in enumerate(self._serre_relators())]
            heapq.heapify(self._pending)
            self._seq = itertools.count(len(self._pending))
        pending = self._pending
        while pending and pending[0][0] <= degree:
            _, _, a, y, b, x = pending[0]
            poly = {}
            for w, c in a.items():
                poly[w + y] = poly.get(w + y, ZERO) + c
            for w, c in b.items():
                poly[x + w] = poly.get(x + w, ZERO) - c
            rem = self._reduce_poly(poly)
            # popped only once reduced, so a budget trip loses no entry
            heapq.heappop(pending)
            if rem:
                rule = self._normalize_rule(rem)
                for old in self.rules:
                    self._queue_overlaps(rule, old)
                    self._queue_overlaps(old, rule)
                self.rules.append(rule)
                self._queue_overlaps(rule, rule)
        self._degree = degree

    def reduce_word(self, word):
        """Expansion of a one-sided word in irreducible words; a word longer
        than any resolved so far first resumes the completion."""
        word = tuple(word)
        cached = self._reduce_cache.get(word)
        if cached is None:
            if len(word) > self._degree:
                self._complete(len(word))
            cached = self._reduce_poly({word: ONE}, len(word))
            self._reduce_cache[word] = cached
        return cached

    # -- element constructors -------------------------------------------------
    def zero(self):
        return PBWElement(self, {})

    def one(self):
        return PBWElement(self, {((), self.zero_weight, ()): ONE})

    def e(self, i):
        return PBWElement(self, {((), self.zero_weight, (i,)): ONE})

    def f(self, i):
        return PBWElement(self, {((i,), self.zero_weight, ()): ONE})

    def k(self, lam):
        """K_lam for a weight lam in the int format of ``rootsys``."""
        return PBWElement(self, {((), tuple(lam), ()): ONE})

    def word(self, tokens):
        """Product of generator tokens ('e', i), ('f', i) or ('k', lam), with
        lam in simple-root coordinates."""
        out = self.one()
        for kind, arg in tokens:
            if kind == "e":
                out = out * self.e(arg)
            elif kind == "f":
                out = out * self.f(arg)
            elif kind == "k":
                out = out * self.k(rootsys.weight(arg))
            else:
                raise ValueError(f"unknown generator token {kind!r}")
        return out

    # -- structured one-letter multiplications -------------------------------
    def _mul_e(self, terms, i):
        out = {}
        for (fw, lam, ew), c in terms.items():
            for ew2, s in self.reduce_word(ew + (i,)).items():
                key = (fw, lam, ew2)
                out[key] = out.get(key, ZERO) + c * s
        return _nonzero(out)

    def _mul_k(self, terms, mu):
        if all(x == 0 for x in mu):
            return dict(terms)
        # K_mu shifts lam injectively and scales by a q-power: no term merges
        out = {}
        bmu = self.rs.covector(mu)
        for (fw, lam, ew), c in terms.items():
            key = (fw, tuple(a + b for a, b in zip(lam, mu)), ew)
            out[key] = c.times_q(-sum(bmu[i] for i in ew))
        return out

    def _etf(self, ew, j):
        """Terms of e^{ew} f_j in normal form, memoized on the reduced word."""
        key = (ew, j)
        cached = self._etf_cache.get(key)
        if cached is not None:
            return cached
        if not ew:
            result = {((j,), self.zero_weight, ()): ONE}
        else:
            head, i = ew[:-1], ew[-1]
            result = {}
            # cross relation: e_i f_j = q^{c_ji} f_j e_i + delta_ij (...)
            lead = qpow(self.ctx.cayley[j][i])
            for (fw, lam, ew2), c in self._etf(head, j).items():
                for ew3, s in self.reduce_word(ew2 + (i,)).items():
                    k2 = (fw, lam, ew3)
                    result[k2] = result.get(k2, ZERO) + c * s * lead
            if i == j:
                denom = (qpow(self.rs.d[i]) - qpow(-self.rs.d[i])).inverse()
                alpha = rootsys.weight(self.rs.simple_root(i))
                minus_alpha = tuple(-x for x in alpha)
                shift = self.rs.pair(alpha, self.word_weight(head))
                for lamv, fac in ((alpha, denom.times_q(-shift)),
                                  (minus_alpha, -denom.times_q(shift))):
                    k2 = ((), lamv, head)
                    result[k2] = result.get(k2, ZERO) + fac
            result = _nonzero(result)
        self._etf_cache[key] = result
        return result

    def _mul_f(self, terms, j):
        out = {}
        alpha_j = self.rs.simple_root(j)
        for (fw, lam, ew), c in terms.items():
            for (fj, eta, ew2), s in self._etf(ew, j).items():
                if fj:
                    cs = (c * s).times_q(-self.rs.pair(lam, alpha_j))
                    for fw2, s2 in self.reduce_word(fw + (j,)).items():
                        key = (fw2, lam, ew2)
                        out[key] = out.get(key, ZERO) + cs * s2
                else:
                    key = (fw, tuple(a + b for a, b in zip(lam, eta)), ew2)
                    out[key] = out.get(key, ZERO) + c * s
        return _nonzero(out)

    def _mul_monomial(self, terms, mono, coef):
        fw, lam, ew = mono
        current = {m: c * coef for m, c in terms.items()}
        for j in fw:
            current = self._mul_f(current, j)
        current = self._mul_k(current, lam)
        for i in ew:
            current = self._mul_e(current, i)
        return current


class PBWElement:
    """Element in normal form: a finite sum of monomials f-word * K_lam * e-word."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return PBWElement(self.alg, _nonzero(out))

    def __neg__(self):
        return PBWElement(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self + (-other)

    def scale(self, s):
        if not s:
            return PBWElement(self.alg, {})
        return PBWElement(self.alg, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentScalar):
            return self.scale(other)
        if not isinstance(other, PBWElement):
            return NotImplemented
        out = {}
        for mono, coef in other.terms.items():
            for m, c in self.alg._mul_monomial(self.terms, mono, coef).items():
                out[m] = out.get(m, ZERO) + c
        return PBWElement(self.alg, _nonzero(out))

    def __rmul__(self, other):
        if isinstance(other, LaurentScalar):
            return self.scale(other)
        return NotImplemented

    def commutator(self, other):
        return self * other - other * self

    # -- structure queries ----------------------------------------------------
    def is_lower_borel(self):
        return all(not ew for (_, _, ew) in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: (mc[0][0], mc[0][2], mc[0][1]))

    def __repr__(self):
        return f"PBWElement({self.terms!r})"


# ---------------------------------------------------------------------------
# root vectors


def root_vector(alg, beta, sign="+"):
    """Root vector for a positive root, by the q-commutator recursion over the
    adapted normal ordering.  Simple roots return the bare generator."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    beta = tuple(int(x) for x in beta)
    key = (beta, sign)
    # the cache holds term dicts, not PBWElements, so that it keeps no
    # reference back to alg and a discarded algebra is freed at once
    cached = alg._root_vector_cache.get(key)
    if cached is not None:
        return PBWElement(alg, cached)
    ordering = alg.ordering.ordering
    if beta not in ordering:
        raise ValueError(f"{beta} is not a positive root here")
    if sum(beta) == 1:
        i = beta.index(1)
        result = alg.e(i) if sign == "+" else alg.f(i)
    else:
        a_root, b_root, w = alg.ordering.segments[beta]
        if sign == "+":
            ea = root_vector(alg, a_root, "+")
            eb = root_vector(alg, b_root, "+")
            result = ea * eb - (eb * ea).scale(ONE.times_q(w))
        else:
            fa = root_vector(alg, a_root, "-")
            fb = root_vector(alg, b_root, "-")
            result = fb * fa - (fa * fb).scale(ONE.times_q(-w))
    alg._root_vector_cache[key] = result.terms
    return result


# ---------------------------------------------------------------------------
# characters and the Whittaker projection


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


def apply_character(chi, x):
    """Value of the character on a one-sided element (pure e or pure f part)."""
    out = ZERO
    for (fw, lam, ew), c in x.terms.items():
        if any(lam):
            raise ValueError("character applies to one-sided elements only")
        if chi.side == "e":
            if fw:
                raise ValueError("e-side character applied to an f-word")
            word = ew
        else:
            if ew:
                raise ValueError("f-side character applied to an e-word")
            word = fw
        val = c
        for i in word:
            val = val * chi.values[i]
        out = out + val
    return out


def rho_chi(x, chi):
    """Projection onto the lower Borel part along the character ideal:
    f^t K_lam e^r maps to chi(e^r) f^t K_lam."""
    if chi.side != "e":
        raise ValueError("the Whittaker projection uses an e-side character")
    out = {}
    for (fw, lam, ew), c in x.terms.items():
        val = c
        for i in ew:
            val = val * chi.values[i]
        key = (fw, lam, ())
        out[key] = out.get(key, ZERO) + val
    return PBWElement(x.alg, _nonzero(out))


def whittaker_action(x, v, chi):
    """Action of an e-side element on the Whittaker model: project [x, v]."""
    return rho_chi(x.commutator(v), chi)


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

    Matrices are kept as sparse rows {row: {column: q-scalar}} with no zero
    entry (see ``ratmat``): pi(e_i) is the ladder times K_nu, nu the twist
    of alpha_i, and pi(f_i) is K_{-nu} times the opposite ladder, so each
    ladder entry carries q^{(nu, mu)}, mu the weight of its source for e_i
    and of its image for f_i.  A ladder has at most one entry per row and
    per column."""

    def __init__(self, alg, name, k_index):
        rs = alg.rs
        n = rs.rank
        self.alg = alg
        self.name = name
        basis, self.weights = module_basis(rs, k_index)
        self.dim = len(basis)
        index = {s: p for p, s in enumerate(basis)}
        pair = rs.pair_weights

        def ladder(a, b, nu, at_source):
            # sends the basis vector s holding b but not a to s - {b} + {a},
            # times q^{(nu, mu)} for the weight mu of s or of its image
            rows = {}
            for s in basis:
                if b in s and a not in s:
                    r, c = index[tuple(sorted(set(s) - {b} | {a}))], index[s]
                    mu = self.weights[c if at_source else r]
                    rows[r] = {c: ONE.times_q(pair(nu, mu))}
            return rows

        self.e_mats = []
        self.f_mats = []
        for i in range(n):
            nu = _combination(rs, alg.ctx.twist[i])
            self.e_mats.append(ladder(i + 1, i + 2, nu, True))
            self.f_mats.append(ladder(i + 2, i + 1, tuple(-x for x in nu),
                                      False))
        self._check_relations()

    def k_times(self, lam, rows):
        """pi(K_lam) rows: q^{(lam, mu)} times each row of weight mu."""
        pair = self.alg.rs.pair_weights
        return {r: {c: x.times_q(pair(lam, self.weights[r]))
                    for c, x in row.items()} for r, row in rows.items()}

    def _check_relations(self):
        """Check every defining relation on the matrices: the K-e and K-f
        relations entry by entry against the weights, the cross and Serre
        relations as sums of products of q-exponent terms (``_terms``,
        ``_vanishes``), in exact int or Fraction arithmetic, or in q-scalar
        arithmetic when an entry has a non-unit denominator.  The cross
        relation at (i, i) is multiplied through by q_i - q_i^{-1} to keep
        its scalars polynomials.  A failure raises one RuntimeError naming
        each kind of relation that fails, at its first failing (i, j)."""
        rs = self.alg.rs
        n = rs.rank
        # kexp[r][i] = (alpha_i, mu_r): pi(K_{alpha_i}) is q to it at r
        kexp = [rs.covector(mu) for mu in self.weights]
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
                                      for r, row in x.items() for c in row))
        exact = any(len(x.d) > 1 for m in self.e_mats + self.f_mats
                    for row in m.values() for x in row.values())
        e, f = ([{r: [(c, u, v) for c, x in row.items()
                      for u, v in _terms(x, exact)] for r, row in m.items()}
                 for m in mats] for mats in (self.e_mats, self.f_mats))
        cross, serre = _relation_terms(self.alg, exact)
        # e_i f_j - q^{c_ji} f_j e_i = delta_ij (K_i - K_i^-1)/(q_i - q_i^-1),
        # with K_i^-1 - K_i read off the same exponents, which take few values
        diffs = {x: _terms(ONE.times_q(-x) - ONE.times_q(x), exact)
                 for x in {x for k in kexp for x in k if x}}
        for (i, j), (c_ef, c_fe) in cross.items():
            words = [(c_ef, [e[i], f[j]]), (c_fe, [f[j], e[i]])]
            if i == j:
                words.append((_terms(ONE, exact), [{
                    r: [(r, u, v) for u, v in diffs[k[i]]]
                    for r, k in enumerate(kexp) if k[i]}]))
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
        pair = self.alg.rs.pair_weights
        out = {}
        for r, mu in enumerate(self.weights):
            x = pair(lam, mu)
            if x:
                out[r] = {r: ONE.times_q(x) - ONE.times_q(-x)}
        return out

    def evaluate(self, x):
        """The sparse rows of the matrix of a PBWElement in this module.  A
        term applies K_lam by ``k_times`` to its e-ladders' product, or to
        its f-ladders' product F, as F K_lam = q^{(lam, wt F)} K_lam F."""
        terms = []
        for (fw, lam, ew), c in x.terms.items():
            if not ew:
                c = c.times_q(self.alg.rs.pair(lam, self.alg.word_weight(fw)))
            word = [self.e_mats[i] for i in ew] or [self.f_mats[i] for i in fw]
            m = self.k_times(lam, functools.reduce(sparse_mul, word) if word
                             else {r: {r: ONE} for r in range(self.dim)})
            for i in reversed(fw if ew else ()):
                m = sparse_mul(self.f_mats[i], m)
            terms.append((c, m))
        return _sparse_combination(terms)


def _sparse_combination(terms):
    """The sparse rows of sum coef * a over the (coef, a) in terms, without
    the entries that cancel."""
    total = {}
    for coef, a in terms:
        for r, row in a.items():
            slot = total.setdefault(r, {})
            for c, x in row.items():
                v = coef * x
                slot[c] = slot[c] + v if c in slot else v
    out = {}
    for r, row in total.items():
        row = {c: v for c, v in row.items() if v}
        if row:
            out[r] = row
    return out


def _terms(x, exact):
    """The q-scalar x as (q-exponent, coefficient) terms: one per monomial,
    or x itself at exponent 0 when exact."""
    if exact:
        return [(0, x)]
    c = x.c.numerator if x.c.denominator == 1 else x.c
    return [(u, c * v) for u, v in x.n.items()]


def _vanishes(relation):
    """Whether sum coef * word over the (coef, word) in relation is zero,
    each word a list of matrices {row: [(column, exponent, coefficient)]}
    multiplied out (exponents add, coefficients multiply): the coefficients
    summed at each (row, column, exponent) are all 0."""
    total = {}
    for coef, word in relation:
        terms = [(r, c, u, x) for r, row in word[0].items() for c, u, x in row]
        for b in word[1:]:
            terms = [(r, c, u + w, x * y) for r, k, u, x in terms
                     for c, w, y in b.get(k, ())]
        for w, y in coef:
            for r, c, u, x in terms:
                key = (r, c, u + w)
                v = x * y
                total[key] = total[key] + v if key in total else v
    return not any(total.values())


def _relation_terms(alg, exact):
    """The coefficients of e_i f_j and f_j e_i in the cross relation at each
    (i, j), and of each Serre relator, as ``_terms`` memoized on alg."""
    if exact not in alg._relation_cache:
        rs, cross = alg.rs, {}
        for i, j in itertools.product(range(alg.rank), repeat=2):
            s = qpow(rs.d[i]) - qpow(-rs.d[i]) if i == j else ONE
            cross[i, j] = (_terms(s, exact),
                           _terms(-s * qpow(alg.ctx.cayley[j][i]), exact))
        alg._relation_cache[exact] = cross, {
            ij: [_terms(c, exact) for c in coefs]
            for ij, coefs in alg.serre_coefs.items()}
    return alg._relation_cache[exact]


def rep_matrices(alg, name):
    """Named module catalogue: 'V1'..'Vl' are the fundamental modules."""
    return RepMatrices(alg, name, alg.rs.module_index(name))


# ---------------------------------------------------------------------------
# R-matrix evaluations


def _root_constants(alg, rep, beta):
    """Per-root data of the R-matrix factor for beta: the scale
    (q - q^{-1})/a(beta) and T beta.  The factor is 1 + x, so its
    q-exponential base q^{-(beta, beta)} plays no part.

    a(beta) is defined by [e_beta, f_beta] = a(beta) (K_beta - K_beta^{-1})
    / (q - q^{-1}), and is read here off the module: the scale is the ratio
    of pi(K_beta) - pi(K_beta)^{-1} to [pi(e_beta), pi(f_beta)] at the
    first diagonal entry where the former is nonzero, and the whole
    commutator times the scale must give pi(K_beta) - pi(K_beta)^{-1}.  The
    scale is cached on the algebra by beta."""
    scale = alg._scale_cache.get(beta)
    if scale is None:
        e_b = rep.evaluate(root_vector(alg, beta, "+"))
        f_b = rep.evaluate(root_vector(alg, beta, "-"))
        comm = _sparse_combination([(ONE, sparse_mul(e_b, f_b)),
                                    (-ONE, sparse_mul(f_b, e_b))])
        cartan = rep.cartan_difference(rootsys.weight(beta))
        j = next(iter(cartan), None)
        pivot = comm.get(j, {}).get(j)
        if pivot is not None:
            scale = cartan[j][j] / pivot
        if scale is None or sparse_scale(comm, scale) != cartan:
            raise RuntimeError(
                f"{rep.name}: [e_beta, f_beta] is not a multiple of "
                f"K_beta - K_beta^-1 for beta = {beta}")
        alg._scale_cache[beta] = scale
    return scale, alg.ctx.cayley_apply(rootsys.weight(beta))


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


def _r_in_rep(alg, rep, flipped):
    """(id x pi_V) R, or R_21 when flipped, with the second leg evaluated in
    the module, as sparse rows of PBW elements with no zero entry: the
    Cartan diagonal times one factor 1 + x per root of the adapted ordering
    (``times_one_plus``).  The factor for beta pairs e_beta with
    K_{T beta} f_beta, scaled by (q - q^{-1})/a(beta); the flip puts
    K_{T beta} f_beta in the algebra leg."""
    out = {k: {k: alg.k(lam)} for k, lam in
           enumerate(cartan_weights(alg, rep, -1 if flipped else 1))}
    side = "e" if flipped else "f"
    for beta in alg.ordering.ordering:
        scale, t_beta = _root_constants(alg, rep, beta)
        e_beta = root_vector(alg, beta, "+")
        if flipped:
            first = (alg.k(t_beta) * root_vector(alg, beta, "-")).scale(scale)
            second = rep.evaluate(e_beta)
        else:
            first = e_beta.scale(scale)
            second = rep.k_times(t_beta, rep.evaluate(
                root_vector(alg, beta, "-")))
        times_one_plus(out, sparse_scale(second, first),
                       f"{rep.name}: pi({side}_beta) for beta = {beta}")
    out = {r: {c: v for c, v in row.items() if v} for r, row in out.items()}
    return {r: row for r, row in out.items() if row}


def r_matrix_vv(alg, rep):
    """Numeric R-matrix (pi_V x pi_V) R on V x V, as sparse rows: pi_V of
    each entry (k, j) of (id x pi_V) R, its entry (a, b) at row a d + k and
    column b d + j."""
    d = rep.dim
    out = {}
    for k, row in _r_in_rep(alg, rep, False).items():
        for j, x in row.items():
            for a, block in rep.evaluate(x).items():
                slot = out.setdefault(a * d + k, {})
                for b, v in block.items():
                    slot[b * d + j] = v
    return out


def yang_baxter_check(alg, rep):
    """Exact check of R12 R13 R23 = R23 R13 R12 on V x V x V."""
    r = r_matrix_vv(alg, rep)
    d = rep.dim
    one = {i: {i: ONE} for i in range(d)}
    r12 = kron(r, one, d)
    r23 = kron(one, r, d * d)
    # R13 is R12 conjugated by the flip of the last two legs
    flip = {i * d + j: {j * d + i: ONE} for i in range(d) for j in range(d)}
    p23 = kron(one, flip, d * d)
    r13 = sparse_mul(sparse_mul(p23, r12), p23)
    return (sparse_mul(sparse_mul(r12, r13), r23)
            == sparse_mul(sparse_mul(r23, r13), r12))


# ---------------------------------------------------------------------------
# central elements


def casimir_CV(alg, rep):
    """Central element (id x tr_V)(R_21 R (1 x K_{2 rho})) for the module,
    from R_21 and R with the second leg in the module (``_r_in_rep``), each
    R-matrix factor applied as 1 + x."""
    r21 = _r_in_rep(alg, rep, flipped=True)
    rmat = _r_in_rep(alg, rep, flipped=False)
    two_rho = tuple(2 * x for x in alg.rs.rho)
    out = alg.zero()
    for j in range(rep.dim):
        # only the diagonal of R_21 R enters the trace
        entry = alg.zero()
        for k, x in r21.get(j, {}).items():
            y = rmat.get(k, {}).get(j)
            if y is not None:
                entry = entry + x * y
        out = out + entry.scale(
            ONE.times_q(alg.rs.pair_weights(two_rho, rep.weights[j])))
    return out
