"""Gate file: one test per acceptance criterion, run at the report seed."""

import hashlib
import json
import random

import pytest

from qwhit import acceptance, crosssec, toda, uqalg
from qwhit.ratmat import mat, zeros

SEED = 7

# sha256 of json.dumps(report, indent=2) for each criterion at SEED: the
# reports must stay byte-identical when the code behind them changes.
DIGESTS = {
    1: "11a5cf89572b6f0f0f3774713e73d76593ef0e26dde0a9ef473aa9b8c5f18c15",
    2: "df6bf8926b2e96b774bf20abd18df327195781786989cbd70619c420a2530d9e",
    3: "d3f7f623501bfe5347a9863f8ff41ac37533c84ad5d5c334949247ff332dd9dc",
    4: "ef4abb6c3fa8b67b6fa3d4084d2ad0f394b6a8b4656c435c513dd64d38cda857",
    5: "6b75196359825ce7e432c7107e29c55465aea3ce697b3d5739ece9864d2f87a2",
    6: "2248893ecd569821901face7b717ba23bc9d692aade50d4af56d85a1388aefb1",
    7: "5870c399886b1bfa58adccb96d291f3cba2e3b41b6a77b5bbdb93a969785fd7e",
    8: "e9a846abc8045e8ccb537c0393165f9fd3969feae62b1d74b12eaad9412e3118",
    9: "23c5fe934241e314066843eb7da3d10dfadb713f8ea7ea82afb8205caff1bdfe",
    10: "88115a776a1bdc03a8f35c8fe072daea085618737d34f1041fbad09944915317",
    11: "110e954e6df94af5b142d1818320aeaf26f6dd30fe42108fbe7a88c1e50cb853",
    12: "3e8b42bc13606e561e0e68ce55ddd49449f8275eb54ff86a3d6b803613974262",
    13: "e05c2b2aa7884fa929585cb13fe781cec2bd251761bdbf689fb3c3fed4582990",
}


# The same digests for the matrix criteria at seed 1, the benchmark's seed,
# and seed 2, taken with the Fraction-entry matrices that preceded the int
# rows over one denominator: the reports must not depend on the form.
MATRIX_DIGESTS = {
    (1, 9): "23c5fe934241e314066843eb7da3d10dfadb713f8ea7ea82afb8205caff1bdfe",
    (1, 10): "6f6e1e6463882047b5b4a1f1840fac913b68b8d024ff9df3bd0abb97304429c0",
    (1, 11): "110e954e6df94af5b142d1818320aeaf26f6dd30fe42108fbe7a88c1e50cb853",
    (1, 12): "3e8b42bc13606e561e0e68ce55ddd49449f8275eb54ff86a3d6b803613974262",
    (2, 9): "23c5fe934241e314066843eb7da3d10dfadb713f8ea7ea82afb8205caff1bdfe",
    (2, 10): "e778c2fcd61650dcd02f7b51d0092af28b9f3478616545f97f10d126b88364b8",
    (2, 11): "110e954e6df94af5b142d1818320aeaf26f6dd30fe42108fbe7a88c1e50cb853",
    (2, 12): "3e8b42bc13606e561e0e68ce55ddd49449f8275eb54ff86a3d6b803613974262",
}


def run(fn):
    report = fn(SEED)
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"criterion {report['criterion']} ({report['name']}): {verdict}")
    assert report["passed"], report
    payload = json.dumps(report, indent=2).encode()
    assert hashlib.sha256(payload).hexdigest() == DIGESTS[report["criterion"]]
    return report


def test_criterion_01_cayley_identity():
    report = run(acceptance.criterion_1)
    assert report["entries_checked"] > 0


def test_criterion_02_qbinomial_vanishing():
    report = run(acceptance.criterion_2)
    assert len(report["scans"]) == 6


def test_criterion_03_serre_character_identities():
    report = run(acceptance.criterion_3)
    assert report["identities_checked"] == 2 * 2 + 6 * 6 + 2 * 2 + 2 * 2


def test_criterion_04_character_vanishing():
    report = run(acceptance.criterion_4)
    assert report["root_vectors_checked"] == 3 + 6


def test_criterion_05_centrality():
    report = run(acceptance.criterion_5)
    assert len(report["cases"]) == 3


def test_criterion_06_whittaker_model():
    report = run(acceptance.criterion_6)
    assert all(c["homomorphism"] and c["invariant"] for c in report["cases"])


def test_criterion_07_toda():
    report = run(acceptance.criterion_7)
    assert report["closed_form_A1"] and report["closed_form_A2"]
    assert report["commute_A2"] and report["commute_A3"]
    assert report["quasiclassical_A1"]


def test_criterion_07_builds_each_hamiltonian_once(monkeypatch):
    calls = []
    real = toda.toda_hamiltonian

    def counting(alg, rep_name, factors, covectors):
        calls.append((alg.rs.rank, rep_name))
        return real(alg, rep_name, factors, covectors)

    monkeypatch.setattr(toda, "toda_hamiltonian", counting)
    assert acceptance.criterion_7(SEED)["passed"]
    assert sorted(calls) == [(1, "V1"), (2, "V1"), (2, "V2"), (3, "V1"),
                             (3, "V2"), (3, "V3")]


def test_criterion_07_holds_the_integer_image_to_the_commutator(monkeypatch):
    # commute_A2 needs both verdicts: a nonzero commutator fails it where
    # the integer image says the pair commutes; A3 reads the image alone
    real = toda.commutator
    monkeypatch.setattr(toda, "commutator", lambda d1, d2: d1 + real(d1, d2))
    report = acceptance.criterion_7(SEED)
    assert report["commute_A3"] and not report["commute_A2"]
    assert not report["passed"]


def test_toda_and_whittaker_checks_can_fail():
    alg = acceptance._algebra("A", 2)
    system = toda.build_toda_system(alg, (1, 1), (1, 1))
    assert toda.closed_form_holds(system)
    assert toda.commutes(*system.hamiltonians)
    shifted = system.hamiltonians[1] * system.hamiltonians[0]
    assert not toda.closed_form_holds(
        system._replace(hamiltonians=(shifted,)))
    z = toda.lower_rep(alg.rs, alg.f(0).terms, system.chibar)
    assert not toda.commutes(system.hamiltonians[0], z)
    chi = uqalg.character("e", (1, 1))
    assert acceptance.is_whittaker_invariant(alg, alg.one(), chi)
    assert not acceptance.is_whittaker_invariant(alg, alg.f(0), chi)


def test_criterion_08_yang_baxter():
    report = run(acceptance.criterion_8)
    assert report["A1"] and report["A2"]


def test_criterion_09_group_cross_section():
    report = run(acceptance.criterion_9)
    assert report["oracle_matches"] == 20
    for n in (2, 3, 4, 5):
        assert report[f"n{n}"] == 50


def test_conjugation_checks_refuse_a_singular_conjugator(monkeypatch):
    # the zero matrix intertwines anything with anything: only the
    # unitriangular check stands where the inverse used to.  cross_section
    # runs it before it returns, and the trials rely on that
    sweep, kostant = crosssec._sweep_to_first_row, crosssec.kostant_section
    monkeypatch.setattr(crosssec, "_sweep_to_first_row",
                        lambda m: (zeros(len(m)), sweep(m)[1]))
    monkeypatch.setattr(crosssec, "kostant_section",
                        lambda b: (zeros(len(b)), kostant(b)[1]))
    with pytest.raises(AssertionError, match="conjugation identity lost"):
        acceptance.cross_section_trials(random.Random(1), 3, 5)
    b = mat([[1, 2, 3], [0, -2, 5], [0, 0, 1]])
    assert acceptance.kostant_round_trip(b)[4] == (False, True, True)


def test_criterion_10_qmap_fibers():
    report = run(acceptance.criterion_10)
    for n in (2, 3):
        assert report[f"cell_hits_n{n}"] == 100
        assert report[f"regular_samples_n{n}"] > 0


def test_criterion_11_kostant_section():
    report = run(acceptance.criterion_11)
    assert report["round_trips_n2"] == 50
    assert report["round_trips_n3"] == 50


def test_criterion_12_classical_rmatrix():
    report = run(acceptance.criterion_12)
    for n in (2, 3, 4):
        assert report[f"residual_zero_n{n}"] == 50
        assert report[f"subspaces_n{n}"]


def test_criterion_13_engine_health():
    report = run(acceptance.criterion_13)
    assert report["confluence_passes"] == report["confluence_total"] == 600
    assert report["scalar_axiom_passes"] == report["scalar_axiom_total"] == 200


@pytest.mark.parametrize("seed,criterion", sorted(MATRIX_DIGESTS))
def test_matrix_criteria_reports_are_pinned_at_more_seeds(seed, criterion):
    report = acceptance.CRITERIA[criterion - 1](seed)
    assert report["passed"], report
    payload = json.dumps(report, indent=2).encode()
    assert (hashlib.sha256(payload).hexdigest()
            == MATRIX_DIGESTS[seed, criterion])
