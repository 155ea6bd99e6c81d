import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from oracles import shift_exponents
from qwhit import (acceptance, cli, commands, crosssec, pbw, qarith, rootsys,
                   uqalg)
from qwhit.qarith import EXP_UNIT
from qwhit.ratmat import mat, mmul


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured


def test_serre_check_report_shape(capsys):
    code, report, _ = run_cli(capsys, "serre-check", "--type", "G",
                              "--rank", "2")
    assert code == 0
    assert report["schema"] == "1"
    assert report["outputs"]["identities_checked"] == 4
    assert report["outputs"]["all_zero"] is True


def test_toda_check_commute(capsys):
    code, report, _ = run_cli(capsys, "toda", "--type", "A", "--rank", "2",
                              "--check-commute")
    assert code == 0
    assert report["outputs"]["commutators_zero"] is True
    assert report["outputs"]["closed_form_match"] is True


@pytest.mark.parametrize("pi", ["1,2,3", "3,2,1", "1,3,2", "2,1,3",
                                "2,3,1", "3,1,2"])
def test_toda_finishes_on_every_a3_ordering(capsys, pi):
    code, report, _ = run_cli(capsys, "toda", "--type", "A", "--rank", "3",
                              "--pi", pi, "--chi=1,2,3", "--chibar=-1,1/2,2",
                              "--check-commute")
    assert code == 0
    assert report["checks"] == {"closed_form_match": True,
                                "commutators_zero": True}


def test_toda_moves_no_e_past_an_f(capsys, monkeypatch):
    # toda lowers R_21 one simple-root factor at a time and reads a(beta)
    # off the module matrices, so it forms no PBW product at all
    calls = []
    for owner, attr in ((pbw.PBWElement, "__mul__"),
                        (pbw.PBWAlgebra, "_mul_monomial"),
                        (pbw.PBWAlgebra, "_mul_f"),
                        (pbw.PBWAlgebra, "_mul_e"),
                        (pbw.PBWAlgebra, "_etf"),
                        (pbw.PBWAlgebra, "_mul_k")):
        def recording(*args, _real=getattr(owner, attr), _name=attr):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(owner, attr, recording)
    code, _, _ = run_cli(capsys, "toda", "--type", "A", "--rank", "3",
                         "--check-commute")
    assert code == 0
    assert calls == []


def test_toda_reports_a_surviving_non_simple_factor_in_one_line(
        capsys, monkeypatch):
    # a non-simple R-matrix factor that does not vanish would make the
    # simple-root product wrong; the guard must stop the command instead
    real = rootsys.normal_ordering

    def shifted(ctx):
        no = real(ctx)
        return shift_exponents(no, dict.fromkeys(no.segments, EXP_UNIT))

    monkeypatch.setattr(rootsys, "normal_ordering", shifted)
    code, report, captured = run_cli(capsys, "toda", "--type", "A", "--rank",
                                     "2", "--check-commute")
    assert code == 1
    assert report is None
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        "qwhit toda: invariant failure: the R-matrix factor of the non-simple "
        "root (1, 1) survives the Whittaker projection for the ordering 1,2")
    assert "Traceback" not in captured.err


def test_a_weight_outside_the_unit_lattice_exits_1_in_one_line(
        capsys, monkeypatch):
    # in units of 1/60 the fundamental weights of A6, in sevenths, are not
    # weights: the conversion raises ArithmeticError, and the command stops
    monkeypatch.setattr(qarith, "EXP_UNIT", 60)
    code, report, captured = run_cli(capsys, "toda", "--type", "A", "--rank",
                                     "6")
    assert code == 1
    assert report is None
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("qwhit toda: ")
    assert "is not a multiple of 1/60" in captured.err


def _run_toda_subprocess(rank, chi, chibar):
    proc = subprocess.run(
        [sys.executable, "-m", "qwhit.cli", "toda", "--type", "A", "--rank",
         str(rank), f"--chi={chi}", f"--chibar={chibar}", "--check-commute"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["checks"] == {"closed_form_match": True,
                                                 "commutators_zero": True}


def test_toda_a4_finishes():
    _run_toda_subprocess(4, "1,2,3,-1", "-1,1/2,2,3")


def test_toda_a5_finishes():
    _run_toda_subprocess(5, "1,2,3,-1,1/2", "-1,1/2,2,3,5/3")


# Runs one command through cli.main in a fresh interpreter and prints its
# exit code, which of the watched modules were loaded before and after,
# whether the PBW engine was, and the name of each subparser argparse built.
_MODULE_PROBE = """
import argparse, contextlib, io, json, sys
watched = ("qwhit.acceptance", "qwhit.crosssec", "dataclasses")
at_start = [m for m in watched if m in sys.modules]
subparsers = []
add_parser = argparse._SubParsersAction.add_parser


def counting(self, name, **kwargs):
    subparsers.append(name)
    return add_parser(self, name, **kwargs)


argparse._SubParsersAction.add_parser = counting
from qwhit import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "at_start": at_start,
                  "loaded": [m for m in watched if m in sys.modules],
                  "engine": "qwhit.pbw" in sys.modules,
                  "subparsers": subparsers}))
"""


def _probe(*argv):
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["code"] == 0
    return probe


def _modules_loaded_by(*argv):
    probe = _probe(*argv)
    return set(probe["loaded"]) - set(probe["at_start"])


def test_only_casimir_and_whittaker_load_the_pbw_engine():
    toda_call = _probe("toda", "--type", "A", "--rank", "2",
                       "--check-commute")
    assert not toda_call["engine"]
    for command in ("casimir", "whittaker"):
        assert _probe(command, "--type", "A", "--rank", "1")["engine"]


def test_a_call_builds_one_subparser_and_help_all_of_them():
    toda_call = _probe("toda", "--type", "A", "--rank", "1")
    assert toda_call["subparsers"] == ["toda"]
    assert _probe("--help")["subparsers"] == list(cli.HANDLERS)


def test_toda_loads_neither_acceptance_nor_crosssec_nor_dataclasses():
    assert _modules_loaded_by("toda", "--type", "A", "--rank", "2",
                              "--check-commute") == set()


def test_cross_section_loads_crosssec_and_only_its_trials_acceptance():
    assert _modules_loaded_by("cross-section", "--matrix",
                              '[["3","2"],["1","1"]]') == {"qwhit.crosssec"}
    assert _modules_loaded_by("cross-section", "--n", "3", "--trials",
                              "2") == {"qwhit.crosssec", "qwhit.acceptance"}


def test_root_system_and_cayley(capsys):
    code, report, _ = run_cli(capsys, "root-system", "--type", "B",
                              "--rank", "2")
    assert code == 0
    assert report["outputs"]["coxeter_number"] == 4
    assert len(report["outputs"]["positive_roots"]) == 4

    code, report, _ = run_cli(capsys, "cayley", "--type", "A", "--rank", "2",
                              "--pi", "2,1")
    assert code == 0
    assert report["inputs"]["pi"] == "2,1"
    assert report["checks"] == {"cayley_identity": True,
                                "antisymmetric": True}


def test_orbits_partition_all_roots(capsys):
    code, report, _ = run_cli(capsys, "orbits", "--type", "A", "--rank", "3")
    assert code == 0
    assert sum(report["outputs"]["orbit_sizes"]) == 12


def test_qbinom_scan_window(capsys):
    code, report, _ = run_cli(capsys, "qbinom-scan", "--m", "5")
    assert code == 0
    scans = report["outputs"]["scans"]
    assert [s["m"] for s in scans] == [1, 2, 3, 4, 5]
    assert scans[2]["vanishing_c"] == [-2, 0, 2]


def test_casimir_central(capsys):
    code, report, _ = run_cli(capsys, "casimir", "--type", "A", "--rank", "1")
    assert code == 0
    assert report["checks"]["central"] is True
    assert report["outputs"]["term_count"] > 0
    assert set(report["outputs"]["terms"][0]) == {"f", "lambda", "e", "coeff"}


def test_whittaker_invariance(capsys):
    code, report, _ = run_cli(capsys, "whittaker", "--type", "A",
                              "--rank", "2", "--chi", "2,-3")
    assert code == 0
    assert report["checks"]["lower_borel"] is True
    assert report["checks"]["invariant_under_whittaker_action"] is True


def test_whittaker_and_criteria_5_6_project_the_full_casimir(capsys,
                                                            monkeypatch):
    # toda projects before it multiplies; these checks must keep building
    # the whole central element, or lower_borel would hold by construction
    calls = []
    real = uqalg.casimir_CV

    def counting(alg, rep):
        calls.append(rep.name)
        return real(alg, rep)

    monkeypatch.setattr(uqalg, "casimir_CV", counting)
    code, _, _ = run_cli(capsys, "whittaker", "--type", "A", "--rank", "2",
                         "--chi", "2,-3")
    assert code == 0
    assert calls == ["V1"]
    for criterion, count in ((acceptance.criterion_5, 3),
                             (acceptance.criterion_6, 3)):
        calls.clear()
        assert criterion(0)["passed"]
        assert len(calls) == count


def test_cross_section_closed_form(capsys):
    code, report, _ = run_cli(capsys, "cross-section", "--matrix",
                              '[["3","2"],["1","1"]]')
    assert code == 0
    out = report["outputs"]
    assert out["conjugator"] == [["1", "1"], ["0", "1"]]
    assert out["slice_point"] == [["4", "-1"], ["1", "0"]]
    assert out["slice_params"] == ["4"]


def test_cross_section_accepts_redundant_size(capsys):
    code, report, _ = run_cli(capsys, "cross-section", "--n", "2",
                              "--matrix", '[["3","2"],["1","1"]]')
    assert code == 0
    assert report["outputs"]["in_cell"] is True


def test_cross_section_outside_cell_fails(capsys):
    code, report, captured = run_cli(capsys, "cross-section", "--matrix",
                                     '[["1","0"],["0","1"]]')
    assert code == 1
    assert report["outputs"]["in_cell"] is False
    assert "failed checks: in_cell" in captured.err


def test_cross_section_outside_cell_report_is_pinned(capsys):
    # digest taken before the cell test moved into cross_section alone
    code = cli.main(["cross-section", "--matrix",
                     '[["2","-3","0","-1"],["1","0","1","5"],'
                     '["0","2","8","-4"],["0","0","1","-1"]]'])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "307d899f9264a24afdc3ae931c982c436559c080ada21ed241d8dab0cc5cf284")


@pytest.mark.parametrize("matrix", ['[["3","2"],["1","1"]]',
                                    '[["1","0"],["0","1"]]'])
def test_cross_section_tests_the_cell_once(monkeypatch, capsys, matrix):
    # the standard cell is read off the matrix's shape; the linear solve of
    # cell_witness runs only for an explicit --s-rep
    calls = []
    for name in ("bruhat_cell_test", "cell_witness"):
        def counted(*args, _real=getattr(crosssec, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(crosssec, name, counted)
    run_cli(capsys, "cross-section", "--matrix", matrix)
    assert calls == ["bruhat_cell_test"]


def test_cross_section_of_a_one_by_one_matrix_exits_2(capsys):
    code, report, captured = run_cli(capsys, "cross-section", "--matrix",
                                     '[["2"]]')
    assert code == 2 and report is None
    assert "need n >= 2" in captured.err


def test_cross_section_alternative_representative(capsys):
    code, report, _ = run_cli(capsys, "cross-section", "--matrix",
                              '[["1","0"],["5","1"]]', "--s-rep",
                              '[["0","-1/5"],["5","0"]]')
    assert code == 0
    assert report["outputs"]["in_cell"] is True


@pytest.mark.parametrize("s_rep,message", [
    ('[["0","-1"],["1","0"],["1","1"]]', "s_rep is not square"),
    ('[["0","-1"],["1"]]', "s_rep is not square"),
    ('[["0","-1","0"],["1","0","0"],["0","0","1"]]',
     "s_rep is 3x3 but the matrix is 2x2"),
    ('[["1","0"],["2","0"]]', "s_rep is singular"),
])
def test_cross_section_rejects_a_bad_representative_with_exit_2(
        capsys, s_rep, message):
    code, report, captured = run_cli(capsys, "cross-section", "--matrix",
                                     '[["1","0"],["5","1"]]', "--s-rep",
                                     s_rep)
    assert code == 2 and report is None
    assert captured.err == f"qwhit cross-section: {message}\n"


def test_cross_section_trial_mode(capsys):
    code, report, _ = run_cli(capsys, "cross-section", "--n", "3",
                              "--trials", "5", "--seed", "3")
    assert code == 0
    assert report["outputs"]["successes"] == 5


def test_kostant_single_matrix(capsys):
    code, report, _ = run_cli(capsys, "kostant-section", "--b",
                              '[["3/2","0"],["0","-3/2"]]')
    assert code == 0
    out = report["outputs"]
    assert out["conjugator"] == [["1", "-3/2"], ["0", "1"]]
    assert out["section_point"] == [["0", "9/4"], ["0", "0"]]
    assert out["companion_coordinates"] == ["9/4"]


def test_kostant_trial_mode(capsys):
    code, report, _ = run_cli(capsys, "kostant-section", "--n", "3",
                              "--trials", "5", "--seed", "3")
    assert code == 0
    assert report["checks"]["all_trials_ok"] is True


def test_rmatrix_check(capsys):
    code, report, _ = run_cli(capsys, "rmatrix-check", "--n", "2",
                              "--trials", "5")
    assert code == 0
    assert report["checks"]["mcybe_residual_zero"] is True
    assert report["checks"]["image_kernel_identities"] is True


def test_gstar_point_report(capsys):
    code, report, _ = run_cli(capsys, "gstar", "--x", "2,1/2",
                              "--u-params", "1/2")
    assert code == 0
    assert report["checks"]["q_map_in_cell"] is True
    assert report["checks"]["character_identity"] is True
    assert report["outputs"]["u"] == [["1", "0"], ["1", "1"]]


@pytest.mark.parametrize("matrix", [None, '[["1","3"],["0","1"]]'])
def test_gstar_factorizes_its_fiber_point_once(monkeypatch, capsys, matrix):
    calls = []
    factorize = crosssec.gstar_factorize

    def counted(*args):
        calls.append(args)
        return factorize(*args)

    monkeypatch.setattr(crosssec, "gstar_factorize", counted)
    argv = ["gstar", "--x", "2,1/2", "--u-params", "1/2"]
    if matrix is not None:
        argv += ["--matrix", matrix]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("matrix", [
    '[["1","1"],["0","1"],["1","1"]]',
    '[["1","1","0"],["0","1","0"],["0","0","1"]]',
    '[["1","1"],["0"]]',
])
def test_gstar_matrix_of_the_wrong_shape_exits_2(capsys, matrix):
    code, report, captured = run_cli(capsys, "gstar", "--x", "2,1/2",
                                     "--u-params", "1/2", "--matrix", matrix)
    assert code == 2
    assert report is None
    assert captured.err == ("qwhit gstar: --matrix must be 2x2 to match "
                            "the 2 entries in --x\n")


def test_rmatrix_check_above_the_cap_exits_2_before_any_work(
        monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("the check ran")

    monkeypatch.setattr(acceptance, "mcybe_trials", refused)
    monkeypatch.setattr(acceptance, "rmatrix_subspaces", refused)
    code, report, captured = run_cli(capsys, "rmatrix-check", "--n",
                                     str(commands.MAX_RMATRIX_N + 1),
                                     "--trials", "0")
    assert code == 2
    assert report is None
    assert captured.err == (f"qwhit rmatrix-check: need --n <= "
                            f"{commands.MAX_RMATRIX_N}: the check's time grows "
                            f"about as n^5\n")


def test_acceptance_single_criterion(capsys):
    code, report, _ = run_cli(capsys, "acceptance", "--suite", "2")
    assert code == 0
    assert report["outputs"]["name"] == "qbinomial-vanishing"
    assert report["checks"]["passed"] is True


# spellings that int() once read as a criterion number or a --pi entry, or
# that are none: a space, a sign, a leading zero, an underscore, a newline
# or non-ASCII digits
_NOT_SUITES = ["", " 3", "3 ", "03", "+3", "-3", "٣", "1_3", "3\n", "0",
               "14", "013", "ALL", "all ", "x"]
_NOT_PI = [" 2,1", "2, 1", "2,1 ", "+2,1", "02,1", "٢,١", "2,-1", "2_0,1",
           "2,1\n", "2,,1", "2;1"]


@pytest.mark.parametrize("suite", _NOT_SUITES)
def test_a_suite_is_all_or_a_plain_decimal(capsys, suite):
    assert cli.main(["acceptance", f"--suite={suite}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qwhit acceptance: --suite must be 'all' or "
                            f"1..13, got {suite!r}\n")


@pytest.mark.parametrize("command", ["cayley", "orbits", "serre-check"])
@pytest.mark.parametrize("pi", _NOT_PI)
def test_a_pi_entry_is_a_plain_decimal(capsys, command, pi):
    # each ordering has one spelling, which a report echoes
    assert cli.main([command, "--type", "A", "--rank", "2",
                     f"--pi={pi}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qwhit {command}: expected a comma list of "
                            f"integers, got {pi!r}\n")


def test_plain_suites_and_orderings_are_echoed_as_given(capsys):
    code, report, _ = run_cli(capsys, "acceptance", "--suite", "3")
    assert code == 0 and report["inputs"]["suite"] == "3"
    assert report["outputs"]["criterion"] == 3
    code, report, _ = run_cli(capsys, "cayley", "--type", "A", "--rank",
                              "2", "--pi", "2,1")
    assert code == 0 and report["inputs"]["pi"] == "2,1"
    assert report["outputs"]["pi"] == [2, 1]
    # 0 is an entry of one spelling, though no permutation has it
    code, report, captured = run_cli(capsys, "cayley", "--type", "A",
                                     "--rank", "2", "--pi", "0,1")
    assert code == 2 and "pi must be a permutation" in captured.err


def test_usage_errors_exit_2(capsys):
    code, _, captured = run_cli(capsys, "cross-section", "--matrix", "nope")
    assert code == 2
    assert "not valid JSON" in captured.err

    code, _, _ = run_cli(capsys, "cross-section", "--matrix",
                         '[["1","0"],["0","1"]]', "--n", "3")
    assert code == 2

    code, _, _ = run_cli(capsys, "cross-section")
    assert code == 2

    code, _, _ = run_cli(capsys, "gstar", "--x", "2,1", "--u-params", "1")
    assert code == 2

    code, _, captured = run_cli(capsys, "rmatrix-check", "--n", "0")
    assert code == 2
    assert "need --n >= 2" in captured.err

    for command in ("cross-section", "kostant-section", "rmatrix-check"):
        code, _, captured = run_cli(capsys, command, "--n", "3",
                                    "--trials", "-1")
        assert code == 2
        assert "need --trials >= 0" in captured.err

    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        cli.main(["cayley", "--rank", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command,flag,number,string", [
    # 0.50000000000000001 is 1/2 as a binary float, and the matrix is then
    # traceless; 1.0000000000000001 is 1, and the matrix then has det 1
    ("kostant-section", "--b", '[[0.50000000000000001,"0"],["0","-1/2"]]',
     '[["0.50000000000000001","0"],["0","-1/2"]]'),
    ("cross-section", "--matrix", '[[3,2],[1,1.0000000000000001]]',
     '[["3","2"],["1","1.0000000000000001"]]')])
def test_a_json_number_in_a_matrix_is_read_exactly(capsys, command, flag,
                                                   number, string):
    code, report, captured = run_cli(capsys, command, flag, number)
    want_code, want, want_captured = run_cli(capsys, command, flag, string)
    assert want_code in (1, 2)
    assert code == want_code
    assert captured.err.splitlines()[-1] == (
        want_captured.err.splitlines()[-1])
    if want is not None:
        assert report["outputs"] == want["outputs"]
        assert report["checks"] == want["checks"]


def test_a_deeply_nested_matrix_is_a_usage_error(capsys):
    # json.loads runs out of recursion depth; that is the input's fault
    code, report, captured = run_cli(capsys, "cross-section", "--matrix",
                                     "[" * 1000 + "]" * 1000)
    assert code == 2
    assert report is None
    assert captured.err == (
        "qwhit cross-section: matrix JSON is nested too deeply\n")


def test_reports_are_byte_identical(capsys):
    argv = ["cross-section", "--n", "4", "--trials", "10", "--seed", "11"]
    code1 = cli.main(argv)
    first = capsys.readouterr().out
    code2 = cli.main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def _seeded_cell_matrix(seed, n):
    """--matrix JSON of v s u, with v and u seeded random upper
    unitriangular matrices."""
    rng = random.Random(seed)

    def unitriangular():
        return mat([[1 if i == j else F(rng.randint(-4, 4), rng.randint(1, 3))
                     if j > i else 0 for j in range(n)] for i in range(n)])

    m = mmul(mmul(unitriangular(), crosssec.coxeter_rep(n)), unitriangular())
    return json.dumps([[str(x) for x in row] for row in m])


@pytest.mark.parametrize("argv,digest", [
    (["cross-section", "--n", "4", "--trials", "10", "--seed", "11"],
     "ce738c75577d9c63d96315642bb2cf8257eeb58fe8264be51ef497fcf28a9a6f"),
    (["kostant-section", "--n", "3", "--trials", "10"],
     "6ca7982542b10d7bc2f708a4f71563f989636b6501bd0cbac8b11a2b7719ac63"),
    (["rmatrix-check", "--n", "3", "--trials", "10"],
     "9eac1bafbdf68ffc6e20d7389f3db5dbec1d20d8a4bb27fc94a76f7a6a03365b"),
    (["qbinom-scan"],
     "8727e08a28c7d76e361bf4450df8028fc305c5d61acf9bd062902a92fa3b9bc5"),
    (["serre-check", "--type", "B", "--rank", "2"],
     "615e6aa52ba3b4727009b32be37fce18ef6571341a3d78db47dd4dee44bc7aca"),
    (["casimir", "--type", "A", "--rank", "1"],
     "3a856cbda88a7a3e635bfd5349f930558260085e041df95ebd6768d5fa14b2b9"),
    (["toda", "--type", "A", "--rank", "3", "--check-commute"],
     "625e8d4ebd5e0f2a36050a7711aed09af867dfd9afa0100758a1233e6ef12630"),
    (["casimir", "--type", "A", "--rank", "2", "--rep", "V2"],
     "711278b2bfbd2f221bfe1160968e95cf0fecf6ad5569c247c625562320df71a0"),
    (["whittaker", "--type", "A", "--rank", "2", "--chi", "2,-3"],
     "fd2ef74f3de58b43f509c6e2f4be2627929dd1c48eb3a821949b572a686639f7"),
    (["casimir", "--type", "A", "--rank", "3", "--rep", "V2"],
     "8f528e2570db8d22441ec8d75dfb391d00cf6924b0f81c391df2aee58532b39c"),
    (["serre-check", "--type", "G", "--rank", "2"],
     "72cb0d4988131ebd19f5ecafc69da8b2510291101a4441b323bdfc398a068aea"),
    (["toda", "--type", "A", "--rank", "2", "--pi", "2,1", "--chi=1/2,-3",
      "--chibar=2,5/3", "--check-commute"],
     "51f69faf11efc2c2872f89cfa61d6deb647c7123c2ad59ba7d176f7a8c1fd2b2"),
    (["gstar", "--x", "2,1/2", "--u-params", "1/2"],
     "7d3de60177d7d432044114da90736dbfc9f0169b405fe385fb7a4c7076e8d77a"),
    (["gstar", "--x", "2,1/2,1", "--u-params", "1/2,1/2", "--matrix",
      '[["1","2","3"],["0","1","-1"],["0","0","1"]]'],
     "482d4e79e4d18273de17001832cb69716fc832fcded0f6ed5b9e9ad263e70240"),
    (["cross-section", "--matrix", '[["2","-3","0","-1"],["1","0","1","5"],'
      '["0","1","8","-4"],["0","0","1","-1"]]'],
     "b88afa7d2819eac50987fcdeff5c18619de3ff6f13907a5b39c10a29673589a1"),
    (["cross-section", "--matrix",
      '[["1","2","4"],["1/2","5/2","-2"],["0","1","-2"]]', "--s-rep",
      '[["0","0","2"],["1/2","0","0"],["0","1","0"]]'],
     "79656bcaf0308a6392db49afb9f778238b926ce7d25118b1d14ead278699d3ba"),
    (["kostant-section", "--b", '[["1","2","3"],["0","-2","5"],["0","0","1"]]'],
     "91a9d846e47a1f5c8a303092da437f6073be1aa5883bb3dab13454c1e42111ec"),
    (["cayley", "--type", "A", "--rank", "3", "--pi", "2,3,1"],
     "aeaa58da9ee5389a06787f121a69d24773d1d81c8ce447b2355a813b34e795d0"),
    (["orbits", "--type", "G", "--rank", "2"],
     "e19edaf3539c5a274707194b5006295647a1442f6f5914ce91d7a37c7ca907d7"),
    # taken before the cell test, char-poly and sweep became O(n^3)
    (["cross-section", "--matrix", _seeded_cell_matrix(12, 12)],
     "b288b506162332b4b7516089023ae0ca43a285fc24744a0684e8a550d92a932a"),
    (["cross-section", "--n", "7", "--trials", "5", "--seed", "7"],
     "20b8a1706a75e286a41b3565c07340fc13c0c597f566ee6ad2d6243b101135fa"),
    (["kostant-section", "--n", "6", "--trials", "10", "--seed", "7"],
     "2373e2b05e7af98122d37b6dae5e8fe85358c089ed18239736d199a230b056f5"),
    # taken before weights became int tuples in units of 1/EXP_UNIT
    (["toda", "--type", "A", "--rank", "3", "--pi", "3,2,1",
      "--check-commute"],
     "206782c6748ec69c6171aef720fe340d3d5f4cf860d1063f474b4101b2e28cc6"),
    (["toda", "--type", "A", "--rank", "4", "--pi", "2,1,3,4",
      "--check-commute"],
     "06838da593b4ac64c5c9779aa916cd3d083da2bd6eca9a43c49336cfd013257d"),
    # taken before the one-pass commutator and the sparse-row lowering
    (["toda", "--type", "A", "--rank", "5", "--check-commute"],
     "f0c417d1476f77eb8e532412437e2dc75d02d93bd0d5af737b554b0648ae8561"),
    # taken while a cyclic walk through pi chose the normal ordering, which
    # for these three Coxeter elements gave other words than the search
    (["toda", "--type", "A", "--rank", "5", "--pi", "5,4,3,2,1",
      "--check-commute"],
     "32ea012481844908064eb3d4b1615eb5c7a1509847dcd8c78ba867957bb2da6a"),
    (["whittaker", "--type", "A", "--rank", "5", "--pi", "1,5,4,3,2"],
     "f6448cec0e87ce36268b570443ac1af65378d9d75125134a4954c6541e19ecca"),
    (["casimir", "--type", "A", "--rank", "5", "--pi", "5,4,3,2,1"],
     "829e6d916e38ae9b5b93f0b3809671aa7a6152895e8bb1eba80511383e96795a"),
    # taken while the context kept Fraction rows and a Sylvester-resultant
    # discriminant decided "regular": cayley on three non-simply-laced
    # types, and a gstar point that exits 0 with "regular": false
    (["cayley", "--type", "B", "--rank", "3", "--pi", "3,1,2"],
     "b9bac8d1234329c6ba852c7583eec2aded77eb88f3d5be90428c899dfaaf393d"),
    (["cayley", "--type", "G", "--rank", "2", "--pi", "2,1"],
     "08f1b59ea1e8d4d37077150f7bc7b6d0203c4c8a2c9992b073786dd3c5aa9eee"),
    (["cayley", "--type", "F", "--rank", "4", "--pi", "4,2,3,1"],
     "d4dce3ea1382e3642151b9f9954236d61929458c9f51a81fa8297956184a540a"),
    (["gstar", "--x", "1,1,1", "--u-params", "1/2,1/2"],
     "0286fbe455d5af2e795b47f8bfae9d1f2c9faa9d0a352a925765a99869879c63"),
    # taken while the relation check evaluated its products at q = 2^K and
    # every module lowered its own simple-root legs: the benchmark's input
    # shape, and the largest rank
    (["toda", "--type", "A", "--rank", "3", "--chi=1/2,-3,2",
      "--chibar=5/4,-1,3", "--check-commute"],
     "e85b2ac2e666f40f06f36961ae7026eb6d95bf09d823abd3e7981794c77e394b"),
    (["toda", "--type", "A", "--rank", "6", "--check-commute"],
     "96c6e739c56bed5756c1069770f13c3e810513c1f46bd5b2540ac0935f80a17c"),
    # taken while each simple-root factor was multiplied in through the
    # q-exponential with its base, and each pair of Hamiltonians had its
    # own integer image: rational characters on a non-default A4 ordering
    # and on the reversed A5 ordering
    (["toda", "--type", "A", "--rank", "4", "--pi", "2,1,3,4",
      "--chi=1/2,-3,2,7/3", "--chibar=5/4,-1,3,-2/5", "--check-commute"],
     "959600223bce610f3188c8c2043d1f5b641db7cc2619f36c49f250bbd44fb16f"),
    (["toda", "--type", "A", "--rank", "5", "--pi", "5,4,3,2,1",
      "--chi=1/2,-3,2,7/3,-1/4", "--chibar=5/4,-1,3,-2/5,6",
      "--check-commute"],
     "818ec66eba57f4871b9dfac04d4893e121553fa442846ae08c3fbbe00379cfda"),
])
def test_report_digests_are_pinned(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (["toda", "--type", "A", "--rank", "1", "--chi=1e-100000000",
      "--chibar=1"], "decimal exponent above"),
    (["cross-section", "--matrix", '[["1E+100000000","0"],["0","1"]]'],
     "decimal exponent above"),
    # the flag must fail before the A4 algebra is built
    (["toda", "--type", "A", "--rank", "4", "--chi=abc"],
     "expected a comma list of rationals"),
    (["whittaker", "--type", "A", "--rank", "4", "--chi=1,2,3"],
     "expected 4 character values"),
    # a module outside the type-A catalogue fails at once too
    (["casimir", "--type", "B", "--rank", "3"], "type A only"),
    (["toda", "--type", "B", "--rank", "3"], "type A only"),
    (["whittaker", "--type", "B", "--rank", "3"], "type A only"),
    (["casimir", "--type", "A", "--rank", "4", "--rep", "V9"],
     "module index out of range"),
    # the largest rank of each other series
    *[([cmd, "--type", series, "--rank", str(rank)], "type A only")
      for cmd in ("casimir", "toda", "whittaker")
      for series, rank in (("B", 6), ("C", 6), ("D", 6), ("F", 4), ("G", 2))],
    # above the cap the scan would run for minutes; both flag spellings
    (["qbinom-scan", "--m", "40"], f"need --m <= {commands.MAX_QBINOM_M}"),
    (["qbinom-scan", "--n", "40"], f"need --m <= {commands.MAX_QBINOM_M}"),
    # --matrix is the unipotent upper factor n_+, checked before use
    (["gstar", "--x", "2,1/2", "--u-params", "1/2", "--matrix",
      '[["2","0"],["0","1/2"]]'],
     "--matrix must be unipotent upper triangular"),
    (["gstar", "--x", "2,1/2", "--u-params", "1/2", "--matrix",
      '[["1","5"],["1","1"]]'],
     "--matrix must be unipotent upper triangular"),
    # above the caps the trials would run for seconds to minutes
    (["cross-section", "--n", "128", "--trials", "1"],
     f"need --n <= {commands.MAX_CROSS_SECTION_N}"),
    (["kostant-section", "--n", "256", "--trials", "1"],
     f"need --n <= {commands.MAX_KOSTANT_N}"),
])
def test_bad_rational_flag_exits_2_at_once(argv, message):
    # a subprocess with a timeout, so that a slow parse or build fails the
    # test instead of hanging it
    proc = subprocess.run([sys.executable, "-m", "qwhit.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


# The text argparse prints, pinned byte for byte at an 80-column width:
# the help of qwhit and of each command on stdout, and the stderr of
# each usage error.
HELP_TEXTS = {
    "--help": (
        "usage: qwhit [-h]\n"
        "             {root-system,cayley,orbits,qbinom-scan,serre-check,casimir,whittaker,toda,cross-section,kostant-section,rmatrix-check,gstar,acceptance}\n"
        "             ...\n"
        "\n"
        "Exact checks for Coxeter realizations, Whittaker reduction, q-Toda operators\n"
        "and cross-sections.\n"
        "\n"
        "positional arguments:\n"
        "  {root-system,cayley,orbits,qbinom-scan,serre-check,casimir,whittaker,toda,cross-section,kostant-section,rmatrix-check,gstar,acceptance}\n"
        "    root-system         Cartan datum and positive roots\n"
        "    cayley              Coxeter element and Cayley transform\n"
        "    orbits              root orbits of the Coxeter element\n"
        "    qbinom-scan         vanishing set of the alternating Gauss sum\n"
        "    serre-check         deformed Serre relator character sums\n"
        "    casimir             central element of a representation\n"
        "    whittaker           Whittaker projection of the central element\n"
        "    toda                deformed Toda difference operators\n"
        "    cross-section       conjugate a cell element onto the slice\n"
        "    kostant-section     sweep a traceless upper-triangular matrix onto the\n"
        "                        companion slice\n"
        "    rmatrix-check       modified classical Yang-Baxter residual\n"
        "    gstar               dressing-orbit point, q-map and characters\n"
        "    acceptance          run the acceptance criteria\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"),
    "root-system --help": (
        "usage: qwhit root-system [-h] [--out OUT] --type TYPE --rank RANK\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --out OUT    write the JSON report to this file\n"
        "  --type TYPE  series letter, e.g. A, B, G\n"
        "  --rank RANK\n"),
    "cayley --help": (
        "usage: qwhit cayley [-h] [--out OUT] --type TYPE --rank RANK [--pi PI]\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --out OUT    write the JSON report to this file\n"
        "  --type TYPE  series letter, e.g. A, B, G\n"
        "  --rank RANK\n"
        "  --pi PI      permutation as a comma list, e.g. 2,1\n"),
    "orbits --help": (
        "usage: qwhit orbits [-h] [--out OUT] --type TYPE --rank RANK [--pi PI]\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --out OUT    write the JSON report to this file\n"
        "  --type TYPE  series letter, e.g. A, B, G\n"
        "  --rank RANK\n"
        "  --pi PI      permutation as a comma list, e.g. 2,1\n"),
    "qbinom-scan --help": (
        "usage: qwhit qbinom-scan [-h] [--out OUT] [--m M] [--n N]\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT   write the JSON report to this file\n"
        "  --m M       largest order to scan (default 6)\n"
        "  --n N       alias for --m\n"),
    "serre-check --help": (
        "usage: qwhit serre-check [-h] [--out OUT] --type TYPE --rank RANK [--pi PI]\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --out OUT    write the JSON report to this file\n"
        "  --type TYPE  series letter, e.g. A, B, G\n"
        "  --rank RANK\n"
        "  --pi PI      permutation as a comma list, e.g. 2,1\n"),
    "casimir --help": (
        "usage: qwhit casimir [-h] [--out OUT] --type TYPE --rank RANK [--pi PI]\n"
        "                     [--rep REP]\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --out OUT    write the JSON report to this file\n"
        "  --type TYPE  series letter, e.g. A, B, G\n"
        "  --rank RANK\n"
        "  --pi PI      permutation as a comma list, e.g. 2,1\n"
        "  --rep REP\n"),
    "whittaker --help": (
        "usage: qwhit whittaker [-h] [--out OUT] --type TYPE --rank RANK [--pi PI]\n"
        "                       [--rep REP] [--chi CHI]\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --out OUT    write the JSON report to this file\n"
        "  --type TYPE  series letter, e.g. A, B, G\n"
        "  --rank RANK\n"
        "  --pi PI      permutation as a comma list, e.g. 2,1\n"
        "  --rep REP\n"
        "  --chi CHI    character values, comma rationals\n"),
    "toda --help": (
        "usage: qwhit toda [-h] [--out OUT] --type TYPE --rank RANK [--pi PI]\n"
        "                  [--chi CHI] [--chibar CHIBAR] [--check-commute]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --out OUT        write the JSON report to this file\n"
        "  --type TYPE      series letter, e.g. A, B, G\n"
        "  --rank RANK\n"
        "  --pi PI          permutation as a comma list, e.g. 2,1\n"
        "  --chi CHI        character values, comma rationals\n"
        "  --chibar CHIBAR  opposite character values\n"
        "  --check-commute\n"),
    "cross-section --help": (
        "usage: qwhit cross-section [-h] [--out OUT] [--matrix MATRIX] [--s-rep S_REP]\n"
        "                           [--n N] [--trials TRIALS] [--seed SEED]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --out OUT        write the JSON report to this file\n"
        "  --matrix MATRIX  JSON rows of rational strings\n"
        "  --s-rep S_REP    alternative cell representative (JSON matrix); reports the\n"
        "                   membership test only\n"
        "  --n N            random-trial mode: matrix size\n"
        "  --trials TRIALS\n"
        "  --seed SEED\n"),
    "kostant-section --help": (
        "usage: qwhit kostant-section [-h] [--out OUT] [--b B] [--n N]\n"
        "                             [--trials TRIALS] [--seed SEED]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --out OUT        write the JSON report to this file\n"
        "  --b B            JSON rows of rational strings\n"
        "  --n N            random-trial mode: matrix size\n"
        "  --trials TRIALS\n"
        "  --seed SEED\n"),
    "rmatrix-check --help": (
        "usage: qwhit rmatrix-check [-h] [--out OUT] [--n N] [--trials TRIALS]\n"
        "                           [--seed SEED]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --out OUT        write the JSON report to this file\n"
        "  --n N            matrix size (default 3)\n"
        "  --trials TRIALS\n"
        "  --seed SEED\n"),
    "gstar --help": (
        "usage: qwhit gstar [-h] [--out OUT] [--n N] [--x X] [--u-params U_PARAMS]\n"
        "                   [--matrix MATRIX]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --out OUT            write the JSON report to this file\n"
        "  --n N                matrix size (checked against --x)\n"
        "  --x X                torus diagonal, comma rationals, product 1\n"
        "  --u-params U_PARAMS  subdiagonal coordinates, comma rationals\n"
        "  --matrix MATRIX      unipotent upper factor (JSON matrix)\n"),
    "acceptance --help": (
        "usage: qwhit acceptance [-h] [--out OUT] [--suite SUITE] [--seed SEED]\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --out OUT      write the JSON report to this file\n"
        "  --suite SUITE  'all' or a criterion number 1..13\n"
        "  --seed SEED\n"),
}
USAGE_ERRORS = [
    ([], (
        "usage: qwhit [-h]\n"
        "             {root-system,cayley,orbits,qbinom-scan,serre-check,casimir,whittaker,toda,cross-section,kostant-section,rmatrix-check,gstar,acceptance}\n"
        "             ...\n"
        "qwhit: error: the following arguments are required: command\n")),
    (["no-such-command"], (
        "usage: qwhit [-h]\n"
        "             {root-system,cayley,orbits,qbinom-scan,serre-check,casimir,whittaker,toda,cross-section,kostant-section,rmatrix-check,gstar,acceptance}\n"
        "             ...\n"
        "qwhit: error: argument command: invalid choice: 'no-such-command' (choose from 'root-system', 'cayley', 'orbits', 'qbinom-scan', 'serre-check', 'casimir', 'whittaker', 'toda', 'cross-section', 'kostant-section', 'rmatrix-check', 'gstar', 'acceptance')\n")),
    (["toda", "--type", "A", "--rank", "2", "--bogus"], (
        "usage: qwhit [-h]\n"
        "             {root-system,cayley,orbits,qbinom-scan,serre-check,casimir,whittaker,toda,cross-section,kostant-section,rmatrix-check,gstar,acceptance}\n"
        "             ...\n"
        "qwhit: error: unrecognized arguments: --bogus\n")),
    (["toda", "--rank", "2"], (
        "usage: qwhit toda [-h] [--out OUT] --type TYPE --rank RANK [--pi PI]\n"
        "                  [--chi CHI] [--chibar CHIBAR] [--check-commute]\n"
        "qwhit toda: error: the following arguments are required: --type\n")),
    (["toda", "--type", "A", "--rank", "x"], (
        "usage: qwhit toda [-h] [--out OUT] --type TYPE --rank RANK [--pi PI]\n"
        "                  [--chi CHI] [--chibar CHIBAR] [--check-commute]\n"
        "qwhit toda: error: argument --rank: invalid int value: 'x'\n")),
    (["toda", "--type", "A", "--rank", "2", "--chi=", "1,1"], (
        "usage: qwhit [-h]\n"
        "             {root-system,cayley,orbits,qbinom-scan,serre-check,casimir,whittaker,toda,cross-section,kostant-section,rmatrix-check,gstar,acceptance}\n"
        "             ...\n"
        "qwhit: error: unrecognized arguments: 1,1\n")),
]


def _argparse_exit(argv):
    """(exit code, stdout, stderr) of cli.main(argv) where argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", HELP_TEXTS)
def test_help_texts_are_pinned(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert _argparse_exit(argv.split()) == (0, HELP_TEXTS[argv], "")


@pytest.mark.parametrize("argv,err", USAGE_ERRORS, ids=[
    " ".join(argv) or "no command" for argv, _ in USAGE_ERRORS])
def test_usage_error_texts_are_pinned(monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert _argparse_exit(argv) == (2, "", err)


def test_parser_is_built_once():
    # once per command, and once for the parser of every command
    for command in ("toda", "casimir", None):
        assert cli.build_parser(command) is cli.build_parser(command)
    assert cli.build_parser("toda") is not cli.build_parser("casimir")


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["cayley", "--type", "A", "--rank", "2", "--out",
                     str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    report = json.loads(path.read_text())
    assert report["command"] == "cayley"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = cli.main(["cayley", "--type", "A", "--rank", "2", "--out",
                     str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("qwhit cayley: cannot write --out")


def test_runtime_error_is_an_invariant_failure(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(rootsys, "coxeter_context", broken)
    code = cli.main(["cayley", "--type", "A", "--rank", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "qwhit cayley: invariant failure: broken invariant\n"


@pytest.mark.parametrize("budget", ["abc", "0", "-5", "2.5"])
def test_malformed_step_budget_exits_2(budget):
    env = dict(os.environ, QWHIT_STEP_BUDGET=budget)
    imported = subprocess.run([sys.executable, "-c", "import qwhit.uqalg"],
                              capture_output=True, text=True, env=env)
    assert imported.returncode == 0, imported.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "qwhit.cli", "casimir", "--type", "A",
         "--rank", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("qwhit casimir: QWHIT_STEP_BUDGET")
    assert len(proc.stderr.splitlines()) == 1


def test_a_toda_call_does_not_read_the_step_budget():
    # the budget is read when a PBW algebra is built, and toda builds none:
    # a malformed one leaves a toda call's bytes as they are, and still
    # stops a casimir call
    argv = [sys.executable, "-m", "qwhit.cli", "toda", "--type", "A",
            "--rank", "2", "--check-commute"]
    env = {k: v for k, v in os.environ.items() if k != "QWHIT_STEP_BUDGET"}
    malformed = dict(env, QWHIT_STEP_BUDGET="abc")
    plain = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    odd = subprocess.run(argv, capture_output=True, env=malformed,
                         timeout=60)
    assert plain.returncode == odd.returncode == 0, odd.stderr
    assert odd.stdout == plain.stdout and odd.stdout
    casimir = subprocess.run(
        [sys.executable, "-m", "qwhit.cli", "casimir", "--type", "A",
         "--rank", "1"], capture_output=True, text=True, env=malformed,
        timeout=60)
    assert casimir.returncode == 2
    assert casimir.stderr.startswith("qwhit casimir: QWHIT_STEP_BUDGET")


def test_step_budget_env_var_limits_engine():
    env = dict(os.environ, QWHIT_STEP_BUDGET="3")
    proc = subprocess.run(
        [sys.executable, "-m", "qwhit.cli", "casimir", "--type", "A",
         "--rank", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "step budget" in proc.stderr


def test_step_budget_trip_names_its_stage_in_one_line():
    env = dict(os.environ, QWHIT_STEP_BUDGET="5")
    proc = subprocess.run(
        [sys.executable, "-m", "qwhit.cli", "casimir", "--type", "A",
         "--rank", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(
        "qwhit casimir: rewriting exceeded the step budget (5) while "
        "completing the Serre rules to degree 3 (")


def _readme_examples():
    """The argv of every ``qwhit ...`` line in README's CLI code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("qwhit ")]


def test_readme_lists_an_example_of_every_command():
    assert ({argv[0] for argv in _readme_examples()}
            == set(cli.HANDLERS))


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_examples_exit_0_with_a_report(capsys, argv):
    code, report, captured = run_cli(capsys, *argv)
    assert code == 0
    assert report["schema"] == "1"
    assert report["command"] == argv[0]
    assert all(report["checks"].values())
    # the report writer gives the bytes of json.dumps(..., indent=2)
    assert captured.out == json.dumps(report, indent=2) + "\n"


# -- drawn matrix flags ----------------------------------------------------------

def _run_quietly(argv):
    """(exit code, stdout, stderr lines but elapsed:) of cli.main(argv),
    the code None when argparse exits; nothing else may escape."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = None
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith("elapsed: ")]
    return code, out.getvalue(), lines


def _domain_matrix(command, n, data, st):
    """An n x n matrix the command accepts: a cell element v s u, a traceless
    upper triangular b, or a unipotent upper triangular factor."""
    fracs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))

    def upper(diagonal):
        return [[diagonal[i] if i == j else data.draw(fracs) if j > i else 0
                 for j in range(n)] for i in range(n)]

    if command == "kostant-section":
        diagonal = [data.draw(fracs) for _ in range(n - 1)]
        return upper(diagonal + [-sum(diagonal)])
    if command == "gstar" or n < 2:
        return upper([1] * n)
    return [list(row) for row in mmul(mmul(mat(upper([1] * n)),
                                           crosssec.coxeter_rep(n)),
                                      mat(upper([1] * n)))]


_BAD_ENTRIES = ['"x"', '"1/0"', '"0/0"', '""', '"1e1001"', '"-"', '" 2"',
                '"\u0661"', '"1/2/3"', "1.5", "1e400", "true", "null", "[]",
                '{"a": 1}', "0.50000000000000001"]


def _matrix_flag(rows, data, st):
    """JSON text of rows of Fractions: each entry a string, or a JSON number
    when it is an integer, and at times one entry, row or nesting broken."""
    text = [[str(x.numerator) if x.denominator == 1
             and data.draw(st.booleans()) else json.dumps(str(x))
             for x in map(F, row)] for row in rows]
    flaw = data.draw(st.sampled_from(
        ["none"] * 6 + ["entry", "ragged", "extra row", "row not a list",
                        "deep", "junk"]))
    if flaw == "entry" and text and text[0]:
        i = data.draw(st.integers(0, len(text) - 1))
        j = data.draw(st.integers(0, len(text[i]) - 1))
        text[i][j] = data.draw(st.sampled_from(_BAD_ENTRIES))
    elif flaw == "ragged" and text and text[-1]:
        text[-1].pop()
    elif flaw == "extra row" and text:
        text.append(list(text[0]))
    elif flaw == "deep":
        return "[" * 5000 + "]" * 5000
    elif flaw == "junk":
        return data.draw(st.sampled_from(["", "[", "[[1]", "{}", '"1"',
                                          "[1, 2]", "[[]]", "[]", "nan"]))
    rows = ["[" + ",".join(row) + "]" for row in text]
    if flaw == "row not a list" and rows:
        rows[0] = text[0][0] if text[0] else "1"
    return "[" + ",".join(rows) + "]"


@pytest.mark.parametrize("command,codes", [
    ("cross-section", {0, 1, 2}), ("cross-section --s-rep", {0, 1, 2}),
    ("kostant-section", {0, 2}), ("gstar", {0, 1, 2})],
    ids=["cross-section", "s-rep", "kostant-section", "gstar"])
def test_drawn_matrix_flags_exit_cleanly(command, codes):
    # exit 0, 1 or 2 with one diagnostic line, a schema-1 report when one is
    # written, and the same bytes for the same argv
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fracs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    name = command.split()[0]
    seen = set()

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        if data.draw(st.sampled_from([True, True, False])):
            rows = _domain_matrix(name, n, data, st)
        else:
            rows = [[data.draw(fracs) for _ in range(n)] for _ in range(n)]
        flag = {"kostant-section": "--b"}.get(name, "--matrix")
        argv = [name, f"{flag}={_matrix_flag(rows, data, st)}"]
        if command.endswith("--s-rep"):
            s_rep = (crosssec.coxeter_rep(n) if n > 1 and data.draw(
                st.sampled_from([True, True, False])) else
                     [[data.draw(fracs) for _ in range(n)] for _ in range(n)])
            argv.append(f"--s-rep={_matrix_flag(s_rep, data, st)}")
        if name == "gstar":
            x = [F(2), F(1, 2)] + [F(1)] * (n - 2) if n > 1 else [F(1)]
            c = [F(1, 2)] * (n - 1)
            if data.draw(st.booleans()):
                x[0] = data.draw(fracs)
            if data.draw(st.booleans()):
                c = [data.draw(fracs) for _ in range(data.draw(
                    st.sampled_from([n - 1, n - 1, 0, 3])))]
            argv += [f"--x={','.join(map(str, x))}",
                     f"--u-params={','.join(map(str, c))}"]
        code, out, lines = _run_quietly(argv)
        assert (code, out, lines) == _run_quietly(argv)
        seen.add(code)
        if code is None:
            return
        assert code in (0, 1, 2)
        if code:
            assert len(lines) == 1, lines
        if code == 0 or out:
            report = json.loads(out)
            assert report["schema"] == "1"
            assert report["command"] == name

    check()
    assert codes <= seen


# -- drawn toda flags ------------------------------------------------------------

def _character_flag(rank, data, st):
    """Text of a --chi or --chibar value: rank nonzero rationals, at times
    with a zero, one item too few or too many, an empty item, a decimal
    exponent at or past the cap, or a huge numerator."""
    fracs = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    items = [str(data.draw(fracs)) for _ in range(rank)]
    flaw = data.draw(st.sampled_from(
        ["none"] * 12 + ["zero", "short", "long", "empty item", "exponent",
                         "huge"]))
    at = data.draw(st.integers(0, max(len(items) - 1, 0)))
    cap = cli.MAX_DECIMAL_EXPONENT
    if flaw == "zero" and items:
        items[at] = data.draw(st.sampled_from(["0", "0/5", "-0.0"]))
    elif flaw == "short":
        items = items[:-1]
    elif flaw == "long":
        items.append("1")
    elif flaw == "empty item":
        items.insert(at, "")
    elif flaw == "exponent" and items:
        items[at] = data.draw(st.sampled_from(
            [f"1e{cap}", f"-3e-{cap}", f"1e{cap + 1}", f"2.5E-{cap + 1}",
             "1e99999999"]))
    elif flaw == "huge" and items:
        items[at] = str(data.draw(st.integers(10 ** 40, 10 ** 60))
                        * data.draw(st.sampled_from([1, -1])))
    return ",".join(items)


def _pi_flag(rank, data, st):
    """Text of a --pi value: a permutation of 1..rank, or one that is not."""
    perm = list(data.draw(st.permutations(range(1, rank + 1))))
    return data.draw(st.sampled_from([
        ",".join(map(str, perm))] * 8 + [
        ",".join(map(str, perm + [rank + 1])), ",".join(map(str, perm[1:])),
        "1,1", "0," + ",".join(map(str, perm[1:])), "", "x", "1,,2"]))


def test_drawn_toda_flags_exit_cleanly():
    # exit 0, 1 or 2 with one diagnostic line, a schema-1 report when one is
    # written, and the same bytes for the same argv
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        series = data.draw(st.sampled_from(["A"] * 12 + ["B", "G", "E", "a"]))
        rank = data.draw(st.sampled_from(
            [1, 2, 3] * 4 + [0, rootsys.MAX_RANK + 1]))
        argv = ["toda", "--type", series, "--rank", str(rank)]
        width = data.draw(st.sampled_from([min(rank, 3)] * 5 + [2]))
        if data.draw(st.booleans()):
            argv.append(f"--pi={_pi_flag(width, data, st)}")
        for flag in ("--chi", "--chibar"):
            if data.draw(st.sampled_from([True, True, False])):
                argv.append(f"{flag}={_character_flag(width, data, st)}")
        if data.draw(st.booleans()):
            argv.append("--check-commute")
        seen.add(_exit_code_of_a_clean_call(argv))

    check()
    assert {0, 2} <= seen


def _exit_code_of_a_clean_call(argv):
    """The exit code of cli.main(argv), asserting that it is 0, 1 or 2 with
    one diagnostic line when not 0, that a written report is a schema-1
    report of the command, and that the same argv gives the same bytes."""
    code, out, lines = _run_quietly(argv)
    assert (code, out, lines) == _run_quietly(argv)
    assert code in (0, 1, 2)
    assert len(lines) == (1 if code else 0), lines
    if code == 0 or out:
        report = json.loads(out)
        assert report["schema"] == "1"
        assert report["command"] == argv[0]
    return code


def _drawn_flags(command, data, st):
    """Drawn flags of a command other than toda: small valid sizes mostly,
    and at times a value at or past a cap."""
    if command in ("root-system", "cayley", "orbits", "serre-check"):
        rank = data.draw(st.sampled_from(
            [1, 2, 3] * 4 + [0, rootsys.MAX_RANK, rootsys.MAX_RANK + 1]))
        flags = ["--type", data.draw(st.sampled_from(
            ["A"] * 12 + ["B", "G", "E", "a"])), "--rank", str(rank)]
        if command != "root-system" and data.draw(st.booleans()):
            width = data.draw(st.sampled_from([min(rank, 3)] * 5 + [2]))
            flags.append(f"--pi={_pi_flag(width, data, st)}")
        return flags
    if command == "qbinom-scan":
        cap = commands.MAX_QBINOM_M
        sizes = st.sampled_from(list(range(1, 7)) * 2 + [cap, cap + 1, 0, -1])
        flags = []
        for flag in data.draw(st.sampled_from(
                [["--m"]] * 3 + [["--n"], ["--m", "--n"], []])):
            flags += [flag, str(data.draw(sizes))]
        return flags
    if command == "rmatrix-check":
        cap = commands.MAX_RMATRIX_N
        n = data.draw(st.sampled_from([2, 3, 4] * 4 + [cap, cap + 1, 1]))
        trials = data.draw(st.sampled_from([0, 1, 2, 3] * 3 + [-1]))
        # at the cap one call takes about 0.5 s with no trial
        return ["--n", str(n), "--trials", str(0 if n > 4 else trials),
                "--seed", str(data.draw(st.integers(0, 99)))]
    return ["--suite", data.draw(st.sampled_from(
        ["1", "2", "3"] * 4 + ["13", "14", "0", "03"])),
        "--seed", str(data.draw(st.integers(0, 99)))]


def _at_and_past_the_caps(command):
    """Flags of the command at each cap and one past it, which the draws
    reach only at times."""
    if command == "qbinom-scan":
        cap = commands.MAX_QBINOM_M
        return [["--m", str(cap)], ["--n", str(cap + 1)]]
    if command == "rmatrix-check":
        cap = commands.MAX_RMATRIX_N
        return [["--n", str(n), "--trials", "0"] for n in (cap, cap + 1)]
    if command == "acceptance":
        return [["--suite", "13"], ["--suite", "14"]]
    ranks = [["--type", "A", "--rank", str(r)]
             for r in (rootsys.MAX_RANK, rootsys.MAX_RANK + 1)]
    if command == "root-system":
        return ranks
    pi = ",".join(map(str, range(rootsys.MAX_RANK, 0, -1)))
    return ranks + [flags + [f"--pi={pi}"] for flags in ranks]


@pytest.mark.parametrize("command", ["root-system", "cayley", "orbits",
                                     "qbinom-scan", "serre-check",
                                     "rmatrix-check", "acceptance"])
def test_drawn_flags_of_the_other_commands_exit_cleanly(command):
    # the assertions of test_drawn_toda_flags_exit_cleanly, on the commands
    # whose flags are a type and rank, an ordering, a size or a suite
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {_exit_code_of_a_clean_call([command] + flags)
            for flags in _at_and_past_the_caps(command)}

    @hypothesis.settings(max_examples=20, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        argv = [command] + _drawn_flags(command, data, st)
        seen.add(_exit_code_of_a_clean_call(argv))

    check()
    assert {0, 2} <= seen


# -- module names and drawn casimir and whittaker flags ---------------------------

# spellings that int() once read as a module index, or that are no index;
# "Ⅴ1" starts with the Roman numeral five
_NOT_MODULE_NAMES = ["V01", "V001", "V١", "V²", "V+1", "V 1", " V1",
                     "V1 ", "V1\n", "v1", "V", "", "1", "V1.0", "V_1",
                     "Ⅴ1", "VV1"]


@pytest.mark.parametrize("command", ["casimir", "whittaker"])
@pytest.mark.parametrize("name", _NOT_MODULE_NAMES)
def test_a_module_name_is_v_and_a_plain_decimal(capsys, command, name):
    # each module has one name, V and its index in ASCII digits with no
    # leading zero, so a report echoes the one spelling; any other is a
    # usage error
    assert cli.main([command, "--type", "A", "--rank", "2",
                     f"--rep={name}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines()
            if not line.startswith("elapsed: ")] == [
        f"qwhit {command}: unknown module name {name!r}"]


@pytest.mark.parametrize("name,code", [("V1", 0), ("V2", 0), ("V0", 2),
                                       ("V3", 2), ("V10", 2)])
def test_the_module_names_of_a2(capsys, name, code):
    assert cli.main(["casimir", "--type", "A", "--rank", "2",
                     f"--rep={name}"]) == code
    captured = capsys.readouterr()
    if code:
        assert [line for line in captured.err.splitlines()
                if not line.startswith("elapsed: ")] == [
            f"qwhit casimir: module index out of range in {name!r}"]
    else:
        report = json.loads(captured.out)
        assert report["inputs"]["rep"] == report["outputs"]["rep"] == name


def _rep_flag(rank, data, st):
    """Text of a --rep value: a module of the catalogue, one past it, or a
    name that is none."""
    return data.draw(st.sampled_from(
        [f"V{k}" for k in range(1, rank + 1)] * 6
        + ["V0", f"V{rank + 1}"] + _NOT_MODULE_NAMES))


@pytest.mark.parametrize("command", ["casimir", "whittaker"])
def test_drawn_casimir_and_whittaker_flags_exit_cleanly(command):
    # exit 0, 1 or 2 with one diagnostic line, a schema-1 report when one is
    # written, and the same bytes for the same argv
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        series = data.draw(st.sampled_from(["A"] * 12 + ["B", "G", "E", "a"]))
        rank = data.draw(st.sampled_from(
            [1, 2] * 6 + [0, rootsys.MAX_RANK + 1]))
        argv = [command, "--type", series, "--rank", str(rank)]
        width = data.draw(st.sampled_from([min(rank, 2)] * 5 + [2]))
        if data.draw(st.booleans()):
            argv.append(f"--pi={_pi_flag(width, data, st)}")
        if data.draw(st.sampled_from([True, True, False])):
            argv.append(f"--rep={_rep_flag(width, data, st)}")
        if command == "whittaker" and data.draw(
                st.sampled_from([True, True, False])):
            argv.append(f"--chi={_character_flag(width, data, st)}")
        code, out, lines = _run_quietly(argv)
        assert (code, out, lines) == _run_quietly(argv)
        seen.add(code)
        assert code in (0, 1, 2)
        assert len(lines) == (1 if code else 0), lines
        if code == 0 or out:
            report = json.loads(out)
            assert report["schema"] == "1"
            assert report["command"] == command

    check()
    assert {0, 2} <= seen
