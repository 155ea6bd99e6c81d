"""Command line front end.

Every subcommand runs exact computations, validates the invariants it
advertises, and emits one JSON report on stdout (or to ``--out``).  Reports
carry ``"schema": "1"`` and are byte-identical for identical flags and seed;
wall-clock time goes to stderr so it never perturbs the payload.

Exit codes: 0 when every check in the report passed, 1 when a check or an
internal invariant failed (diagnostic on stderr), 2 for unknown commands,
malformed flag values, an unwritable ``--out`` path or a malformed
``QWHIT_STEP_BUDGET``.

The environment variable ``QWHIT_STEP_BUDGET`` caps rewriting steps in the
algebra engine; :mod:`qwhit.uqalg` reads it each time it builds an algebra.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import lcm

# acceptance and crosssec are imported by the handlers that use them, so a
# fresh process compiles and runs only the modules its command needs.
from . import rootsys, toda, uqalg
from .ratmat import Matrix, _canon, charpoly, eye, rat_text

F = Fraction


# -- flag parsing and serialization helpers -----------------------------------

def _parse_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma list of integers, got {text!r}")


# A decimal exponent makes Fraction build a power of ten: "1e-100000000"
# alone would allocate a 10^100000000 integer, so larger ones are refused.
MAX_DECIMAL_EXPONENT = 1000
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def _parse_rational(text):
    """One rational flag value; raises ValueError or ZeroDivisionError."""
    m = _DECIMAL_EXPONENT.search(text)
    if m and abs(int(m.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent above {MAX_DECIMAL_EXPONENT}")
    return F(text)


def _parse_rationals(text):
    try:
        return tuple(_parse_rational(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(
            f"expected a comma list of rationals, got {text!r}: {exc}")


# One decoder for every matrix flag: a JSON number keeps its text, so an
# entry is never read through a binary float.
_MATRIX_JSON = json.JSONDecoder(parse_float=str, parse_int=str)
# An entry of this form is read as ints; any other goes through
# _parse_rational, which accepts and refuses exactly what it did alone.
_INT_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")


def _parse_matrix(text):
    """A matrix given as JSON rows of rationals; a JSON number is read from
    its text, like a string entry, and never through a binary float."""
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        rows = _MATRIX_JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix is not valid JSON: {exc}")
    except RecursionError:
        raise ValueError("matrix JSON is nested too deeply")
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) for r in rows)):
        raise ValueError("matrix JSON must be a list of rows")
    try:
        rows = [[_parse_entry(x) for x in row] for row in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"matrix entries must be rational strings: {exc}")
    d = lcm(*(den for row in rows for _, den in row))
    return _canon(tuple(tuple(x * (d // den) for x, den in row)
                        for row in rows), d)


def _parse_entry(x):
    """(numerator, denominator > 0) of one decoded matrix entry."""
    if isinstance(x, str) and _INT_RATIONAL.fullmatch(x):
        num, _, den = x.partition("/")
        return int(num), int(den) if den else 1
    r = _parse_rational(str(x))
    return r.numerator, r.denominator


def _ser_mat(m):
    den = m.den
    return [[rat_text(x, den) for x in row] for row in m.rows]


def _ser_vec(v):
    return [str(x) for x in v]


def _ser_pbw(x):
    out = []
    for (fw, lam, ew), coeff in x.sorted_terms():
        out.append({
            "f": list(fw),
            "lambda": rootsys.weight_text(lam),
            "e": list(ew),
            "coeff": str(coeff),
        })
    return out


def _ser_diffop(op):
    out = []
    for lam, zpart in sorted(op.terms.items()):
        for zexp, coeff in sorted(zpart.items()):
            out.append({
                "shift": rootsys.weight_text(lam),
                "z": list(zexp),
                "coeff": str(coeff),
            })
    return out


_quote = json.encoder.encode_basestring_ascii


def _json_text(tree):
    """The text json.dumps(tree, indent=2) gives for a report tree of dicts
    with str keys, lists, tuples, strs, ints, bools and None; TypeError on
    anything else, a float included.  Strings go through the json module's
    C escaper."""
    out = []
    _write_json(tree, "\n", out.append)
    return "".join(out)


def _write_json(x, nl, put):
    """Put the pieces of x's text, nl being the line break and indent that
    x starts after."""
    if isinstance(x, str):
        put(_quote(x))
    elif isinstance(x, (dict, list, tuple)):
        if not x:
            put("{}" if isinstance(x, dict) else "[]")
            return
        inner = nl + "  "
        sep, comma = inner, "," + inner
        if isinstance(x, dict):
            put("{")
            for k, v in x.items():
                put(sep)
                put(_quote(k))  # TypeError unless k is a str
                put(": ")
                if isinstance(v, str):  # a leaf, most of a report
                    put(_quote(v))
                else:
                    _write_json(v, inner, put)
                sep = comma
            put(nl + "}")
        else:
            put("[")
            for v in x:
                put(sep)
                if isinstance(v, str):
                    put(_quote(v))
                else:
                    _write_json(v, inner, put)
                sep = comma
            put(nl + "]")
    elif x is None:
        put("null")
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    else:
        raise TypeError(f"a report holds no {type(x).__name__}")


def _root_system(args):
    return rootsys.build_root_system(args.type, args.rank)


def _context(args):
    rs = _root_system(args)
    pi = _parse_ints(args.pi) if args.pi else None
    return rootsys.coxeter_context(rs, pi)


def _character_values(text, rank):
    if text is None:
        return (F(1),) * rank
    vals = _parse_rationals(text)
    if len(vals) != rank:
        raise ValueError(f"expected {rank} character values, got {len(vals)}")
    return vals


# -- subcommand bodies ---------------------------------------------------------

def cmd_root_system(args):
    rs = _root_system(args)
    outputs = {
        "series": rs.series,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "d": [str(x) for x in rs.d],
        "bform": _ser_mat(Matrix(rs.bform)),
        "positive_roots": [list(r) for r in rs.positive_roots],
        "heights": list(rs.heights),
        "rho": rootsys.weight_text(rs.rho),
        "coxeter_number": rs.coxeter_number,
    }
    n = rs.rank
    checks = {
        "bform_symmetric": all(
            rs.bform[i][j] == rs.bform[j][i]
            for i in range(n) for j in range(n)),
        "bform_symmetrizes_cartan": all(
            rs.bform[i][j] == rs.d[i] * rs.cartan[i][j]
            for i in range(n) for j in range(n)),
    }
    return outputs, checks


def cmd_cayley(args):
    from . import acceptance

    ctx = _context(args)
    n = ctx.rs.rank
    outputs = {
        "pi": list(ctx.pi),
        "s_matrix": _ser_mat(Matrix(ctx.s_matrix)),
        "cayley": _ser_mat(Matrix(ctx.cayley)),
        "epsilon": [list(row) for row in ctx.epsilon],
        "twist": _ser_mat(Matrix(ctx.twist)),
        "coxeter_number": ctx.coxeter_number,
    }
    checks = {
        "cayley_identity": acceptance.cayley_identity(ctx),
        "antisymmetric": all(
            ctx.cayley[i][j] == -ctx.cayley[j][i]
            for i in range(n) for j in range(n)),
    }
    return outputs, checks


def cmd_orbits(args):
    ctx = _context(args)
    orbits = rootsys.coxeter_orbits(ctx)
    h = ctx.coxeter_number
    outputs = {
        "pi": list(ctx.pi),
        "coxeter_number": h,
        "orbit_sizes": [len(o) for o in orbits],
        "orbits": [[list(r) for r in o] for o in orbits],
    }
    checks = {
        "orbit_count_equals_rank": len(orbits) == ctx.rs.rank,
        "sizes_divide_coxeter_number": all(h % len(o) == 0 for o in orbits),
    }
    return outputs, checks


# qbinom-scan --m 16 takes about 1.6 s on a 2-vCPU VM (--m 20 4.8 s), and
# the time grows about as m^5, so a larger m is refused before any work.
MAX_QBINOM_M = 16


def cmd_qbinom_scan(args):
    from . import acceptance

    if args.m is not None and args.n is not None and args.m != args.n:
        raise ValueError("--m and --n disagree; give one of them")
    top = args.m if args.m is not None else args.n
    if top is None:
        top = 6
    if top < 1:
        raise ValueError("need --m >= 1")
    if top > MAX_QBINOM_M:
        raise ValueError(f"need --m <= {MAX_QBINOM_M}: the scan's time grows "
                         "about as m^5")
    scans = []
    all_ok = True
    for m in range(1, top + 1):
        got, want, edges = acceptance.qbinom_scan_row(m)
        scans.append({
            "m": m,
            "vanishing_c": got,
            "expected": want,
            "match": got == want,
            "contains_edges": edges,
        })
        all_ok = all_ok and got == want and edges
    outputs = {"max_m": top, "scans": scans}
    checks = {"vanishing_sets_match": all_ok}
    return outputs, checks


def cmd_serre_check(args):
    from . import acceptance

    rs = _root_system(args)
    if args.pi:
        orderings = [_parse_ints(args.pi)]
    else:
        orderings = list(permutations(range(1, rs.rank + 1)))
    checked, all_zero = acceptance.serre_sums(rs, orderings)
    outputs = {
        "orderings": [list(pi) for pi in orderings],
        "identities_checked": checked,
        "all_zero": all_zero,
    }
    checks = {"all_zero": all_zero}
    return outputs, checks


def cmd_casimir(args):
    from . import acceptance

    ctx = _context(args)
    alg = uqalg.Algebra(ctx)
    rep = uqalg.rep_matrices(alg, args.rep)
    c = uqalg.casimir_CV(alg, rep)
    central = acceptance.is_central(alg, c)
    outputs = {
        "rep": args.rep,
        "term_count": len(c.terms),
        "terms": _ser_pbw(c),
    }
    checks = {"central": central}
    return outputs, checks


def cmd_whittaker(args):
    from . import acceptance

    ctx = _context(args)
    rank = ctx.rs.rank
    chi = uqalg.character("e", _character_values(args.chi, rank))
    alg = uqalg.Algebra(ctx)
    rep = uqalg.rep_matrices(alg, args.rep)
    # the full central element is projected here, so that lower_borel is a
    # real check and not true by construction
    img = uqalg.rho_chi(uqalg.casimir_CV(alg, rep), chi)
    outputs = {
        "rep": args.rep,
        "chi": _ser_vec(chi.values),
        "term_count": len(img.terms),
        "terms": _ser_pbw(img),
    }
    checks = {
        "lower_borel": img.is_lower_borel(),
        "invariant_under_whittaker_action":
            acceptance.is_whittaker_invariant(alg, img, chi),
    }
    return outputs, checks


def cmd_toda(args):
    ctx = _context(args)
    rank = ctx.rs.rank
    chi_vals = _character_values(args.chi, rank)
    chibar_vals = _character_values(args.chibar, rank)
    alg = uqalg.Algebra(ctx)
    system = toda.build_toda_system(alg, chi_vals, chibar_vals)
    match = toda.closed_form_holds(system)
    outputs = {
        "chi": _ser_vec(chi_vals),
        "chibar": _ser_vec(chibar_vals),
        "hamiltonians": [_ser_diffop(h) for h in system.hamiltonians],
        "closed_form_match": match,
    }
    checks = {"closed_form_match": match}
    if args.check_commute:
        zero = toda.hamiltonians_commute(system.hamiltonians)
        outputs["commutators_zero"] = zero
        checks["commutators_zero"] = zero
    return outputs, checks


# cross-section --n 76 --trials 1 takes about 1.9-2.0 s on a 2-vCPU VM (--n 64
# 0.8 s, --n 80 2.3-2.7 s), and the time grows about as n^5, so a larger n
# is refused before any work; --trials grows linearly and is not capped.
MAX_CROSS_SECTION_N = 76


def cmd_cross_section(args):
    from . import crosssec

    if args.matrix is None and args.n is None:
        raise ValueError("give --matrix (with optional --n) or --n alone")
    if args.matrix is not None:
        m = _parse_matrix(args.matrix)
        if args.n is not None and args.n != len(m):
            raise ValueError(
                f"--n {args.n} disagrees with the {len(m)}-row matrix")
        if args.s_rep is not None:
            s_rep = _parse_matrix(args.s_rep)
            witness = crosssec.cell_witness(m, s_rep)
            outputs = {
                "matrix": _ser_mat(m),
                "s_rep": _ser_mat(s_rep),
                "in_cell": witness is not None,
            }
            if witness is not None:
                outputs["witness"] = [_ser_mat(witness[0]),
                                      _ser_mat(witness[1])]
            return outputs, {"in_cell": witness is not None}
        try:
            conj, point = crosssec.cross_section(m)
        except crosssec.NotInCell:
            return ({"matrix": _ser_mat(m), "in_cell": False},
                    {"in_cell": False})
        poly = charpoly(m)
        outputs = {
            "matrix": _ser_mat(m),
            "in_cell": True,
            "conjugator": _ser_mat(conj),
            "slice_point": _ser_mat(point),
            "slice_params": _ser_vec(crosssec.slice_params(point)),
            "char_poly": _ser_vec(poly),
        }
        checks = {
            "in_cell": True,
            "on_slice": crosssec.is_slice_point(point),
            "char_poly_preserved": poly == charpoly(point),
        }
        return outputs, checks
    from . import acceptance

    n = args.n
    if n < 2:
        raise ValueError("need --n >= 2")
    if n > MAX_CROSS_SECTION_N:
        raise ValueError(f"need --n <= {MAX_CROSS_SECTION_N}: the trials' "
                         "time grows about as n^5")
    good = acceptance.cross_section_trials(random.Random(args.seed), n,
                                           args.trials)
    outputs = {"n": n, "trials": args.trials, "successes": good}
    checks = {"all_trials_ok": good == args.trials}
    return outputs, checks


# kostant-section --n 160 --trials 1 takes 1.8-2.3 s on a 2-vCPU VM (--n 128
# 1.0 s, --n 176 2.9-3.3 s), and the time grows about as n^3, so a larger n
# is refused before any work; --trials grows linearly and is not capped.
MAX_KOSTANT_N = 160


def cmd_kostant_section(args):
    from . import acceptance

    if args.b is None and args.n is None:
        raise ValueError("give --b (with optional --n) or --n alone")
    if args.b is not None:
        b = _parse_matrix(args.b)
        n = len(b)
        if args.n is not None and args.n != n:
            raise ValueError(
                f"--n {args.n} disagrees with the {n}-row matrix")
        a, x, coords, poly, (conj_ok, poly_ok, coords_ok) = (
            acceptance.kostant_round_trip(b))
        outputs = {
            "b": _ser_mat(b),
            "conjugator": _ser_mat(a),
            "section_point": _ser_mat(x),
            "companion_coordinates": _ser_vec(coords),
            "char_poly": _ser_vec(poly),
        }
        checks = {
            "conjugation_identity": conj_ok,
            "char_poly_preserved": poly_ok,
            "coordinates_read_off_first_row": coords_ok,
        }
        return outputs, checks
    n = args.n
    if n < 2:
        raise ValueError("need --n >= 2")
    if n > MAX_KOSTANT_N:
        raise ValueError(f"need --n <= {MAX_KOSTANT_N}: the trials' time "
                         "grows about as n^3")
    good = acceptance.kostant_trials(random.Random(args.seed), n, args.trials)
    outputs = {"n": n, "trials": args.trials, "successes": good}
    checks = {"all_trials_ok": good == args.trials}
    return outputs, checks


# rmatrix-check --n 16 --trials 0 takes 2-2.5 s on a 2-vCPU VM, and the time
# grows about as n^4 to n^5, so a larger n is refused before any work.
MAX_RMATRIX_N = 16


def cmd_rmatrix_check(args):
    from . import acceptance

    # an omitted --n stays out of the report's inputs
    n = 3 if args.n is None else args.n
    if n < 2:
        raise ValueError("need --n >= 2")
    if n > MAX_RMATRIX_N:
        raise ValueError(f"need --n <= {MAX_RMATRIX_N}: the check's time "
                         f"grows about as n^5")
    good = acceptance.mcybe_trials(random.Random(args.seed), n, args.trials)
    half_ok = acceptance.rmatrix_subspaces(n)
    outputs = {
        "n": n,
        "trials": args.trials,
        "residual_zero": good,
        "half_operators_triangular": half_ok,
    }
    checks = {
        "mcybe_residual_zero": good == args.trials,
        "image_kernel_identities": half_ok,
    }
    return outputs, checks


def cmd_gstar(args):
    from . import crosssec

    if args.x is None or args.u_params is None:
        raise ValueError("--x and --u-params are both required")
    h_diag = list(_parse_rationals(args.x))
    c = list(_parse_rationals(args.u_params))
    n = len(h_diag)
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} disagrees with {n} entries in --x")
    if len(c) != n - 1:
        raise ValueError(f"expected {n - 1} u-coordinates, got {len(c)}")
    n_plus = _parse_matrix(args.matrix) if args.matrix else eye(n)
    if len(n_plus) != n or any(len(row) != n for row in n_plus.rows):
        raise ValueError(f"--matrix must be {n}x{n} to match the {n} "
                         f"entries in --x")
    if not crosssec.is_unitriangular(n_plus):
        raise ValueError("--matrix must be unipotent upper triangular")
    el = crosssec.mu_inverse_point(h_diag, n_plus, c)
    q = crosssec.q_map(el)
    report = crosssec.eq_character_report(el)
    outputs = {
        "h_plus": _ser_mat(el.h_plus),
        "n_plus": _ser_mat(el.n_plus),
        "u": _ser_mat(el.n_minus),
        "l_plus": _ser_mat(el.l_plus),
        "l_minus": _ser_mat(el.l_minus),
        "q_map": _ser_mat(q),
        "q_map_characters": _ser_vec(crosssec.fundamental_characters(q)),
        "slice_report": {
            "regular": report["regular"],
            "matches_torus_times_u": report["matches_torus_times_u"],
            "matches_torus": report["matches_torus"],
            "characters": _ser_vec(report["characters"]),
        },
    }
    checks = {
        "q_map_in_cell": crosssec.bruhat_cell_test(q),
        "character_identity": report["matches_torus_times_u"],
        "character_identity_under_guard": (not report["regular"]
                                           or report["matches_torus"]),
    }
    return outputs, checks


def cmd_acceptance(args):
    from . import acceptance

    suite = args.suite or "all"
    if suite == "all":
        report = acceptance.run_all(args.seed)
        outputs = report
        checks = {"all_passed": report["all_passed"]}
    else:
        try:
            k = int(suite)
        except ValueError:
            raise ValueError(f"--suite must be 'all' or 1..13, got {suite!r}")
        if not 1 <= k <= 13:
            raise ValueError(f"--suite must be 'all' or 1..13, got {suite!r}")
        rep = acceptance.CRITERIA[k - 1](args.seed)
        outputs = rep
        checks = {"passed": rep["passed"]}
    return outputs, checks


HANDLERS = {
    "root-system": cmd_root_system,
    "cayley": cmd_cayley,
    "orbits": cmd_orbits,
    "qbinom-scan": cmd_qbinom_scan,
    "serre-check": cmd_serre_check,
    "casimir": cmd_casimir,
    "whittaker": cmd_whittaker,
    "toda": cmd_toda,
    "cross-section": cmd_cross_section,
    "kostant-section": cmd_kostant_section,
    "rmatrix-check": cmd_rmatrix_check,
    "gstar": cmd_gstar,
    "acceptance": cmd_acceptance,
}


def _add_type_rank(p, pi=True):
    p.add_argument("--type", required=True, help="series letter, e.g. A, B, G")
    p.add_argument("--rank", type=int, required=True)
    if pi:
        p.add_argument("--pi", help="permutation as a comma list, e.g. 2,1")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="qwhit",
        description="Exact checks for Coxeter realizations, Whittaker "
                    "reduction, q-Toda operators and cross-sections.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root-system", parents=[common],
                       help="Cartan datum and positive roots")
    _add_type_rank(p, pi=False)

    p = sub.add_parser("cayley", parents=[common],
                       help="Coxeter element and Cayley transform")
    _add_type_rank(p)

    p = sub.add_parser("orbits", parents=[common],
                       help="root orbits of the Coxeter element")
    _add_type_rank(p)

    p = sub.add_parser("qbinom-scan", parents=[common],
                       help="vanishing set of the alternating Gauss sum")
    p.add_argument("--m", type=int, help="largest order to scan (default 6)")
    p.add_argument("--n", type=int, help="alias for --m")

    p = sub.add_parser("serre-check", parents=[common],
                       help="deformed Serre relator character sums")
    _add_type_rank(p)

    p = sub.add_parser("casimir", parents=[common],
                       help="central element of a representation")
    _add_type_rank(p)
    p.add_argument("--rep", default="V1")

    p = sub.add_parser("whittaker", parents=[common],
                       help="Whittaker projection of the central element")
    _add_type_rank(p)
    p.add_argument("--rep", default="V1")
    p.add_argument("--chi", help="character values, comma rationals")

    p = sub.add_parser("toda", parents=[common],
                       help="deformed Toda difference operators")
    _add_type_rank(p)
    p.add_argument("--chi", help="character values, comma rationals")
    p.add_argument("--chibar", help="opposite character values")
    p.add_argument("--check-commute", action="store_true")

    p = sub.add_parser("cross-section", parents=[common],
                       help="conjugate a cell element onto the slice")
    p.add_argument("--matrix", help="JSON rows of rational strings")
    p.add_argument("--s-rep",
                   help="alternative cell representative (JSON matrix); "
                        "reports the membership test only")
    p.add_argument("--n", type=int, help="random-trial mode: matrix size")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("kostant-section", parents=[common],
                       help="sweep a traceless upper-triangular matrix onto "
                            "the companion slice")
    p.add_argument("--b", help="JSON rows of rational strings")
    p.add_argument("--n", type=int, help="random-trial mode: matrix size")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("rmatrix-check", parents=[common],
                       help="modified classical Yang-Baxter residual")
    p.add_argument("--n", type=int, help="matrix size (default 3)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("gstar", parents=[common],
                       help="dressing-orbit point, q-map and characters")
    p.add_argument("--n", type=int, help="matrix size (checked against --x)")
    p.add_argument("--x", help="torus diagonal, comma rationals, product 1")
    p.add_argument("--u-params", dest="u_params",
                   help="subdiagonal coordinates, comma rationals")
    p.add_argument("--matrix", help="unipotent upper factor (JSON matrix)")

    p = sub.add_parser("acceptance", parents=[common],
                       help="run the acceptance criteria")
    p.add_argument("--suite", default="all",
                   help="'all' or a criterion number 1..13")
    p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = HANDLERS[args.command]
    started = time.monotonic()
    try:
        outputs, checks = handler(args)
    except ValueError as exc:
        print(f"qwhit {args.command}: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"qwhit {args.command}: invariant failure: {exc}",
              file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"qwhit {args.command}: {exc}", file=sys.stderr)
        return 1
    inputs = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command", "out") and v is not None
    }
    report = {
        "schema": "1",
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "checks": checks,
    }
    payload = _json_text(report) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"qwhit {args.command}: cannot write --out: {exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if all(checks.values()):
        return 0
    failed = sorted(k for k, v in checks.items() if not v)
    print(f"qwhit {args.command}: failed checks: {', '.join(failed)}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
