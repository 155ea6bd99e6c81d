"""The PBW engine: products in normal form and what is built from them.

Elements of the algebra of ``uqalg`` are kept in a normal form f-word * K *
e-word, with one-sided words reduced by a Groebner-completed rewriting
system, so equality and the zero test are structural.  The rules are
completed degree by degree, as words need them: an algebra is built with no
rules and no completion queue, the first word it reduces queues the Serre
relators, and a word longer than any reduced before first resumes the
completion up to its own length, so orderings and ranks whose rule set is
infinite still work.

Built on the products: root vectors, character values and the Whittaker
projection, the matrix of an element in a module, the R-matrix with a
module leg, the Yang-Baxter check and the central elements C_V.  The Toda
path needs none of it, and ``toda`` does not import this module.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from . import rootsys, uqalg
from .qarith import ONE, ZERO, LaurentScalar, qpow
from .ratmat import kron, sparse_mul, sparse_scale


def _nonzero(terms):
    """The terms whose coefficients are not zero."""
    return {k: c for k, c in terms.items() if c}


def _word_key(rank_of, word):
    return (len(word), tuple(rank_of[x] for x in word))


class PBWAlgebra(uqalg.Algebra):
    """The algebra of ``uqalg.Algebra`` with its rewriting engine.

    It is built as the datum is, and fills the datum's tables as words need
    them: the straightening rules for one-sided words (shared by the e and
    f sides, whose deformed Serre relations are identical in shape) and the
    memo tables of the cross-relation rewriting.
    """

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


def whittaker_projection(x, chi):
    """Projection onto the lower Borel part along the character ideal:
    f^t K_lam e^r maps to chi(e^r) f^t K_lam (``uqalg.rho_chi``)."""
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
    return whittaker_projection(x.commutator(v), chi)


# ---------------------------------------------------------------------------
# elements in a module


def evaluate(rep, x):
    """The sparse rows of the matrix of a PBWElement in the module rep.  A
    term f^t K_lam e^r is its letters' ladders composed into one ladder
    (``uqalg.compose``), with K_lam moved to the left, F K_lam = q^{(lam,
    wt F)} K_lam F, as one more exponent at each row; each entry is the
    coefficient times its one q-power."""
    total = {}
    for (fw, lam, ew), c in x.terms.items():
        word = [rep.f_mats[i] for i in fw] + [rep.e_mats[i] for i in ew]
        m = (functools.reduce(uqalg.compose, word) if word
             else {r: (r, 0) for r in range(rep.dim)})
        shift = x.alg.rs.pair(lam, x.alg.word_weight(fw)) if fw else 0
        for r, (col, u) in m.items():
            v = c.times_q(u + shift + rep.pairing(lam, r))
            slot = total.setdefault(r, {})
            slot[col] = slot[col] + v if col in slot else v
    return _without_zeros(total)


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
    return _without_zeros(total)


def _without_zeros(rows):
    """The sparse rows rows without their zero entries and empty rows."""
    out = {}
    for r, row in rows.items():
        row = {c: v for c, v in row.items() if v}
        if row:
            out[r] = row
    return out


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
        e_b = evaluate(rep, root_vector(alg, beta, "+"))
        f_b = evaluate(rep, root_vector(alg, beta, "-"))
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


def _r_in_rep(alg, rep, flipped):
    """(id x pi_V) R, or R_21 when flipped, with the second leg evaluated in
    the module, as sparse rows of PBW elements with no zero entry: the
    Cartan diagonal times one factor 1 + x per root of the adapted ordering
    (``uqalg.times_one_plus``).  The factor for beta pairs e_beta with
    K_{T beta} f_beta, scaled by (q - q^{-1})/a(beta); the flip puts
    K_{T beta} f_beta in the algebra leg."""
    out = {k: {k: alg.k(lam)} for k, lam in
           enumerate(uqalg.cartan_weights(alg, rep, -1 if flipped else 1))}
    side = "e" if flipped else "f"
    for beta in alg.ordering.ordering:
        scale, t_beta = _root_constants(alg, rep, beta)
        e_beta = root_vector(alg, beta, "+")
        if flipped:
            first = (alg.k(t_beta) * root_vector(alg, beta, "-")).scale(scale)
            second = evaluate(rep, e_beta)
        else:
            first = e_beta.scale(scale)
            second = rep.k_times(t_beta, evaluate(
                rep, root_vector(alg, beta, "-")))
        uqalg.times_one_plus(out, sparse_scale(second, first),
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
            for a, block in evaluate(rep, x).items():
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


def central_element(alg, rep):
    """Central element (id x tr_V)(R_21 R (1 x K_{2 rho})) for the module
    (``uqalg.casimir_CV``), from R_21 and R with the second leg in the
    module (``_r_in_rep``), each R-matrix factor applied as 1 + x."""
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
        out = out + entry.scale(ONE.times_q(rep.pairing(two_rho, j)))
    return out
