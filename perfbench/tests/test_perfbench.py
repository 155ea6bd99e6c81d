"""Tests of the benchmark's own machinery.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import os
import random
import sys
import time
from math import isclose
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import workloads  # noqa: E402
from clock import REFERENCE_S, Clock  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_overrunning_rung_is_killed_and_ends_the_ladder(tmp_path):
    pid_file = tmp_path / "pid"
    quick = [sys.executable, "-c", "pass"]
    sleeper = [sys.executable, "-c",
               "import os, sys, time; "
               f"open({str(pid_file)!r}, 'w').write(str(os.getpid())); "
               "time.sleep(60)"]
    rungs = [quick, quick, sleeper, quick]
    tried = []

    def run(argv, deadline):
        tried.append(argv)
        rc = workloads.run_child(argv, deadline)
        return None, None if rc is None else rc == 0

    start = time.perf_counter()
    done, stopped_by = workloads.climb(rungs, run, deadline=1.0, budget=30.0)
    assert time.perf_counter() - start < 20
    assert [d[2] for d in done] == [True, True]
    assert stopped_by == "deadline"
    assert tried == rungs[:3]
    pid = int(pid_file.read_text())
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError("the overrunning rung is still alive")


def test_ladder_budget_stops_before_the_next_rung():
    calls = []

    def run(rung, deadline):
        calls.append(deadline)
        time.sleep(0.2)
        return 0.2, True

    done, stopped_by = workloads.climb(range(10), run, deadline=5.0,
                                       budget=0.5)
    assert 2 <= len(done) < 10
    assert all(d <= 0.5 for d in calls)
    assert stopped_by == "budget"


def test_a_rung_killed_at_the_budget_is_not_a_deadline_stop():
    def run(rung, deadline):
        # killed when given less than its full deadline
        return (0.0, None) if deadline < 5.0 else (0.0, True)

    assert workloads.climb([1], run, deadline=5.0, budget=1.0)[1] == "budget"
    assert workloads.climb([1], run, deadline=5.0, budget=9.0)[1] == "end"


def test_ladder_order():
    rungs = [(rank, pi) for rank, pi, _, _ in
             workloads.ladder(random.Random(0))]
    assert rungs[:12] == [
        (1, (1,)), (2, (1, 2)), (2, (2, 1)),
        (3, (1, 2, 3)), (3, (3, 2, 1)), (3, (1, 3, 2)), (3, (2, 1, 3)),
        (3, (2, 3, 1)), (3, (3, 1, 2)),
        (4, (1, 2, 3, 4)), (4, (4, 3, 2, 1)), (4, (2, 1, 3, 4))]
    assert len(rungs) == 18


def test_false_report_check_is_a_failed_operation(tmp_path):
    outside = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    _, rc, report, _ = workloads.call_cli(
        ["cross-section", "--matrix", json.dumps(outside)],
        str(tmp_path / "out.json"), Clock())
    assert rc == 1 and report["checks"] == {"in_cell": False}
    assert not workloads.gate(rc, report)
    assert not workloads.gate(0, {"checks": {"a": True, "b": False}})
    assert not workloads.gate(0, {"checks": {}})
    assert workloads.gate(0, {"checks": {"a": True}})


def test_big_cell_inputs_pass_the_gate(tmp_path):
    for n in (4, 12):
        wl = workloads.CrossSection(random.Random(5), str(tmp_path), 5,
                                    Clock(), n)
        m = wl.next_input()
        assert len(m) == n
        _, ok, outputs, _ = wl.run(m)
        assert ok and len(outputs) == 1 and outputs[0]["in_cell"]


def test_character_flags_need_the_equals_form(tmp_path):
    out = str(tmp_path / "out.json")
    argv = workloads.toda_argv(2, ["-5", "1"], ["2", "-1/3"])
    assert "--chi=-5,1" in argv
    _, rc, _, _ = workloads.call_cli(argv, out, Clock())
    assert rc == 0
    try:
        workloads.call_cli(["toda", "--type", "A", "--rank", "2",
                            "--chi", "-5,1"], out, Clock())
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("argparse accepted a value starting with '-'")


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("op", 0.0, 10.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 5.0, 0, 1),      # overlaps a: union 1..5
        Span("a", 4.5, 6.0, 0, 1),      # same name again, overlaps b
        Span("c", 9.0, 12.0, 0, 1),     # runs past its parent
        Span("inner", 1.5, 2.5, 1, 1),  # child of the first a
        Span("op", 20.0, 21.0, None, 2),
    ]
    got = self_times(spans)
    assert got[1]["op"] == 10.0 - (6.0 - 1.0) - (10.0 - 9.0)
    assert got[1]["a"] == (2.0 - 1.0) + 1.5
    assert got[1]["b"] == 3.0
    assert got[1]["c"] == 3.0
    assert got[1]["inner"] == 1.0
    assert got[2] == {"op": 1.0}


def test_tracer_records_parents_and_call_ids():
    tr = Tracer()
    tr.call = 7
    with tr.span("op"):
        with tr.span("layer"):
            pass
    assert [(s.name, s.parent, s.call) for s in tr.spans] == [
        ("op", None, 7), ("layer", 0, 7)]
    assert tr.spans[0].start <= tr.spans[1].start <= tr.spans[1].end \
        <= tr.spans[0].end


def test_closed_loop_counts_a_false_check_as_failed(tmp_path):
    import run

    class OutsideCell(workloads.CrossSection):
        def next_input(self):
            return [[workloads.Fraction(int(i == j)) for j in range(4)]
                    for i in range(4)]

    wl = OutsideCell(random.Random(1), str(tmp_path), 1, Clock(), 4)
    result = run.closed_loop(wl, 0.0)
    assert result["attempted"] == wl.min_ops
    assert result["failed"] == wl.min_ops


def test_traced_call_goes_through_the_cli_with_layer_spans(tmp_path):
    import layers
    from qwhit import acceptance, cli, toda, uqalg

    before = (toda.lower_rep, uqalg.Algebra.__init__, acceptance.CRITERIA,
              cli.HANDLERS, cli.charpoly)

    class Toda2(workloads.Toda):
        rank = 2

    wl = Toda2(random.Random(3), str(tmp_path), 3, Clock())
    tr = Tracer()
    tr.call = 1
    ok, _ = wl.traced(tr, wl.next_input())
    assert ok
    names = {s.name for s in tr.spans}
    assert {"cli.overhead_s", "cli.handler", "rootsys.context_s",
            "uqalg.algebra_build_s", "uqalg.rep_build_s", "uqalg.casimir_s",
            "uqalg.projection_s", "toda.lowering_s", "toda.closed_form_s",
            "toda.commutator_s"} <= names
    root = [s for s in tr.spans if s.parent is None]
    assert [s.name for s in root] == ["cli.overhead_s"]
    counts = tr.counts[1]
    assert counts["uqalg.serre_rules"] > 0
    assert counts["uqalg.casimir_terms"] > 0
    assert counts["toda.hamiltonian_terms"] > 0
    # every wrapper is gone once the call has returned
    assert (toda.lower_rep, uqalg.Algebra.__init__, acceptance.CRITERIA,
            cli.HANDLERS, cli.charpoly) == before

    xs = workloads.CrossSection(random.Random(3), str(tmp_path), 3, Clock(),
                                4)
    tr.call = 2
    assert xs.traced(tr, xs.next_input())[0]
    per_call = self_times(tr.spans)[2]
    for name in ("crosssec.cell_test_s.n4", "crosssec.cross_section_s.n4",
                 "ratmat.charpoly_s.n4", "cli.overhead_s"):
        assert per_call[name] > 0


def test_clock_rescales_each_call_by_the_probes_around_it():
    clock = Clock(probe_s=0.0, every_s=10.0)
    clock._last = 2 * REFERENCE_S          # a machine at half speed
    probes = iter([2 * REFERENCE_S, 4 * REFERENCE_S])
    clock._probe = lambda: next(probes)
    a, _ = clock.timed(lambda: time.sleep(0.01))
    b, _ = clock.timed(lambda: None)
    assert a.scaled is None
    clock.flush()                          # probes 2x before, 2x after
    assert isclose(a.scaled, a.raw / 2) and isclose(b.scaled, b.raw / 2)
    c, _ = clock.timed(lambda: None)
    clock.flush()                          # 2x before, 4x after
    assert isclose(c.scaled, c.raw / 3)
    clock.flush()                          # nothing pending, no probe
    assert next(probes, None) is None
