"""The handlers of every command but ``toda``.

``cli`` imports this module at the first call of one of these commands, so
a ``toda`` call compiles none of them.  Each handler takes the parsed flags
and returns the report's outputs and checks, as ``cli.cmd_toda`` does.
The flag parsers and report writers are ``cli``'s, and are called through
that module, where the benchmark wraps them.
"""

from __future__ import annotations

import random
from itertools import permutations

from . import cli, rootsys, uqalg
from .ratmat import Matrix, eye


def cmd_root_system(args):
    rs = cli._root_system(args)
    outputs = {
        "series": rs.series,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "d": [str(x) for x in rs.d],
        "bform": cli._ser_mat(Matrix(rs.bform)),
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

    ctx = cli._context(args)
    n = ctx.rs.rank
    outputs = {
        "pi": list(ctx.pi),
        "s_matrix": cli._ser_mat(Matrix(ctx.s_matrix)),
        "cayley": cli._ser_mat(Matrix(ctx.cayley)),
        "epsilon": [list(row) for row in ctx.epsilon],
        "twist": cli._ser_mat(Matrix(ctx.twist)),
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
    ctx = cli._context(args)
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

    rs = cli._root_system(args)
    if args.pi:
        orderings = [cli._parse_ints(args.pi)]
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
    from . import acceptance, pbw

    ctx = cli._context(args)
    alg = pbw.PBWAlgebra(ctx)
    rep = uqalg.rep_matrices(alg, args.rep)
    c = uqalg.casimir_CV(alg, rep)
    central = acceptance.is_central(alg, c)
    outputs = {
        "rep": args.rep,
        "term_count": len(c.terms),
        "terms": cli._ser_pbw(c),
    }
    checks = {"central": central}
    return outputs, checks


def cmd_whittaker(args):
    from . import acceptance, pbw

    ctx = cli._context(args)
    rank = ctx.rs.rank
    chi = uqalg.character("e", cli._character_values(args.chi, rank))
    alg = pbw.PBWAlgebra(ctx)
    rep = uqalg.rep_matrices(alg, args.rep)
    # the full central element is projected here, so that lower_borel is a
    # real check and not true by construction
    img = uqalg.rho_chi(uqalg.casimir_CV(alg, rep), chi)
    outputs = {
        "rep": args.rep,
        "chi": cli._ser_vec(chi.values),
        "term_count": len(img.terms),
        "terms": cli._ser_pbw(img),
    }
    checks = {
        "lower_borel": img.is_lower_borel(),
        "invariant_under_whittaker_action":
            acceptance.is_whittaker_invariant(alg, img, chi),
    }
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
        m = cli._parse_matrix(args.matrix)
        if args.n is not None and args.n != len(m):
            raise ValueError(
                f"--n {args.n} disagrees with the {len(m)}-row matrix")
        if args.s_rep is not None:
            s_rep = cli._parse_matrix(args.s_rep)
            witness = crosssec.cell_witness(m, s_rep)
            outputs = {
                "matrix": cli._ser_mat(m),
                "s_rep": cli._ser_mat(s_rep),
                "in_cell": witness is not None,
            }
            if witness is not None:
                outputs["witness"] = [cli._ser_mat(witness[0]),
                                      cli._ser_mat(witness[1])]
            return outputs, {"in_cell": witness is not None}
        try:
            conj, point = crosssec.cross_section(m)
        except crosssec.NotInCell:
            return ({"matrix": cli._ser_mat(m), "in_cell": False},
                    {"in_cell": False})
        poly = cli.charpoly(m)
        outputs = {
            "matrix": cli._ser_mat(m),
            "in_cell": True,
            "conjugator": cli._ser_mat(conj),
            "slice_point": cli._ser_mat(point),
            "slice_params": cli._ser_vec(crosssec.slice_params(point)),
            "char_poly": cli._ser_vec(poly),
        }
        checks = {
            "in_cell": True,
            "on_slice": crosssec.is_slice_point(point),
            "char_poly_preserved": poly == cli.charpoly(point),
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
        b = cli._parse_matrix(args.b)
        n = len(b)
        if args.n is not None and args.n != n:
            raise ValueError(
                f"--n {args.n} disagrees with the {n}-row matrix")
        a, x, coords, poly, (conj_ok, poly_ok, coords_ok) = (
            acceptance.kostant_round_trip(b))
        outputs = {
            "b": cli._ser_mat(b),
            "conjugator": cli._ser_mat(a),
            "section_point": cli._ser_mat(x),
            "companion_coordinates": cli._ser_vec(coords),
            "char_poly": cli._ser_vec(poly),
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
    h_diag = list(cli._parse_rationals(args.x))
    c = list(cli._parse_rationals(args.u_params))
    n = len(h_diag)
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} disagrees with {n} entries in --x")
    if len(c) != n - 1:
        raise ValueError(f"expected {n - 1} u-coordinates, got {len(c)}")
    n_plus = cli._parse_matrix(args.matrix) if args.matrix else eye(n)
    if len(n_plus) != n or any(len(row) != n for row in n_plus.rows):
        raise ValueError(f"--matrix must be {n}x{n} to match the {n} "
                         f"entries in --x")
    if not crosssec.is_unitriangular(n_plus):
        raise ValueError("--matrix must be unipotent upper triangular")
    el = crosssec.mu_inverse_point(h_diag, n_plus, c)
    q = crosssec.q_map(el)
    report = crosssec.eq_character_report(el)
    outputs = {
        "h_plus": cli._ser_mat(el.h_plus),
        "n_plus": cli._ser_mat(el.n_plus),
        "u": cli._ser_mat(el.n_minus),
        "l_plus": cli._ser_mat(el.l_plus),
        "l_minus": cli._ser_mat(el.l_minus),
        "q_map": cli._ser_mat(q),
        "q_map_characters": cli._ser_vec(crosssec.fundamental_characters(q)),
        "slice_report": {
            "regular": report["regular"],
            "matches_torus_times_u": report["matches_torus_times_u"],
            "matches_torus": report["matches_torus"],
            "characters": cli._ser_vec(report["characters"]),
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

    suite = args.suite
    if suite == "all":
        report = acceptance.run_all(args.seed)
        return report, {"all_passed": report["all_passed"]}
    # one spelling a criterion: ASCII digits, no sign, space or 0 first
    if suite not in [str(k) for k in range(1, 14)]:
        raise ValueError(f"--suite must be 'all' or 1..13, got {suite!r}")
    report = acceptance.CRITERIA[int(suite) - 1](args.seed)
    return report, {"passed": report["passed"]}


HANDLERS = {
    "root-system": cmd_root_system,
    "cayley": cmd_cayley,
    "orbits": cmd_orbits,
    "qbinom-scan": cmd_qbinom_scan,
    "serre-check": cmd_serre_check,
    "casimir": cmd_casimir,
    "whittaker": cmd_whittaker,
    "cross-section": cmd_cross_section,
    "kostant-section": cmd_kostant_section,
    "rmatrix-check": cmd_rmatrix_check,
    "gstar": cmd_gstar,
    "acceptance": cmd_acceptance,
}
