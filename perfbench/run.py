"""qwhit benchmark: timed runs of the public ``qwhit`` entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toda --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client drives a closed loop: the next call starts when the previous
one has returned.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` makes each operation a second time with
qwhit's public functions wrapped in spans (see layers.py) and reports the
per-layer metrics.  The last line of stdout is one JSON
object; the lines before it name every metric with its unit and sample
count.  Each run also writes its samples, output digest and environment to
``perfbench/out/``.  ``--workload all`` runs every workload in turn, each in
its own process, and prints the metrics under their per-workload names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Clock
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("toda", "xsec4", "xsec12", "acceptance", "reach")
# Spans whose per-call self time is the per-layer metric of the same name.
LAYER_SPANS = (
    "rootsys.context_s", "uqalg.algebra_build_s", "uqalg.rep_build_s",
    "uqalg.casimir_s", "uqalg.projection_s", "toda.lowering_s",
    "toda.closed_form_s", "toda.commutator_s", "crosssec.cell_test_s.n4",
    "crosssec.cell_test_s.n12", "crosssec.cross_section_s.n4",
    "crosssec.cross_section_s.n12", "ratmat.charpoly_s.n4",
    "ratmat.charpoly_s.n12", "cli.overhead_s",
) + tuple(f"acceptance.c{k:02d}_s" for k in range(1, 14))
COUNTS = ("uqalg.serre_rules", "uqalg.serre_max_lead", "uqalg.casimir_terms",
          "toda.hamiltonian_terms")
# Names under which --workload all prints each workload's job_s.
JOB_NAMES = {"toda": "toda.job_s", "xsec4": "xsec.n4.job_s",
             "xsec12": "xsec.n12.job_s", "acceptance": "acceptance.suite_s",
             "reach": "reach.job_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": git_commit(),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 20:
        return None
    return 100 * (n - 10) / n, sorted(xs)[n - 11]


def measure_setup():
    """Rescaled and raw seconds of each fresh A3 algebra build, made in a
    child process (see setup_time.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.PIPE,
        text=True, timeout=150, check=True)
    builds = json.loads(proc.stdout.strip().splitlines()[-1])
    return builds["scaled"], builds["raw"]


def report_failure(wl, what, err):
    sys.stderr.write(f"perfbench: {wl.name}: {what} failed\n{err}")


def closed_loop(wl, seconds):
    """Untraced calls until the window closes (at least ``min_ops``)."""
    import workloads
    ops, failed, outputs = [], 0, []
    start = time.perf_counter()
    while len(ops) < wl.min_ops or time.perf_counter() - start < seconds:
        timings, ok, out, err = wl.run(wl.next_input())
        ops.append(timings)
        if not ok:
            failed += 1
            report_failure(wl, f"operation {len(ops)}", err)
        if len(outputs) < wl.min_ops:
            outputs.append(out)
    wl.clock.flush()
    return {"job_s": [sum(t.scaled for t in op) for op in ops],
            "job_raw_s": [sum(t.raw for t in op) for op in ops],
            "probe_s": wl.clock.probes,
            "attempted": len(ops), "failed": failed,
            "digest": workloads.digest(outputs), "digest_ops": len(outputs),
            "peak_rss_kib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss}


def traced_loop(wl, inputs, seconds):
    """For each input until the window closes (at least one): its untraced
    operation, then the same operation traced.  Returns the tracer, the
    untraced operation times and the number of failed operations."""
    tr = Tracer()
    plain, failed = [], 0
    start = time.perf_counter()
    for inp in inputs:
        if plain and time.perf_counter() - start >= seconds:
            break
        timings, ok, _, err = wl.run(inp)
        plain.append(sum(t.raw for t in timings))
        tr.call = len(plain)
        traced_ok, traced_err = wl.traced(tr, inp)
        if not (ok and traced_ok):
            failed += 1
            report_failure(wl, f"operation {len(plain)}", err + traced_err)
    return tr, plain, failed


def reach_untraced(wl, seconds):
    """Climbs of the baseline rungs until the window closes, then the whole
    ladder once; the killed rung's memory is reaped last."""
    import workloads
    base = workloads.BASELINE_RUNGS

    def per_rung(done, key):
        # A baseline rung that no longer finishes is charged its deadline.
        prefix = done[:base]
        return (sum(getattr(d[1], key) for d in prefix)
                + (base - len(prefix)) * workloads.RUNG_DEADLINE_S) / base

    climbs, attempted, failed = [], 0, 0
    start = time.perf_counter()
    full = False
    while not full:
        full = bool(climbs) and time.perf_counter() - start >= seconds
        done, stopped_by = workloads.climb(
            wl.rungs if full else wl.rungs[:base], wl.run_rung)
        climbs.append(done)
        attempted += len(done)
        failed += sum(1 for d in done if not d[2])
    wl.clock.flush()
    prefix = done[:base]
    if failed:
        report_failure(wl, f"{failed} rungs", "")
    return {
        "job_s": [per_rung(c, "scaled") for c in climbs],
        "job_raw_s": [per_rung(c, "raw") for c in climbs],
        "probe_s": wl.clock.probes,
        "rung_s": [d[1].scaled for d in done],
        "attempted": max(attempted, 1), "failed": failed,
        "rungs_done": len(done), "stopped_by": stopped_by,
        "rungs": [[d[0][0], list(d[0][1])] for d in done],
        "digest": workloads.digest([d[3] for d in prefix]),
        "digest_ops": len(prefix),
        "peak_rss_kib": prefix[-1][4] if prefix else 0,
    }


def reach_traced(wl, seconds):
    """The whole ladder in child processes for ``reach.rungs_done``, then
    its baseline rungs in-process as one operation, untraced and traced."""
    import workloads
    done, stopped_by = workloads.climb(wl.rungs, wl.run_rung)
    failed = sum(1 for d in done if not d[2])
    baseline = [d[0] for d in done[:workloads.BASELINE_RUNGS]]
    tr, plain, traced_failed = traced_loop(wl, [baseline], seconds)
    return tr, plain, failed + traced_failed, {
        "attempted": len(done) + len(plain), "rungs_done": len(done),
        "stopped_by": stopped_by}


def layer_metrics(tr, plain):
    """Median over operations of each layer's self time and of each count;
    trace_overhead_s compares the traced and untraced operation times."""
    per_call = self_times(tr.spans)
    calls = range(1, len(plain) + 1)
    values = {}
    for name in LAYER_SPANS:
        values[name] = median(
            [per_call.get(c, {}).get(name, 0.0) for c in calls])
    for name in COUNTS:
        values[name] = median(
            [tr.counts.get(c, {}).get(name, 0) for c in calls])
    traced = [sum(s.end - s.start for s in tr.spans
                  if s.parent is None and s.call == c) for c in calls]
    values["trace_overhead_s"] = median(traced) - median(plain)
    return values


def make_workload(name, seed, workdir):
    import workloads
    rng = random.Random(seed)
    args = (rng, str(workdir), seed, Clock())
    if name == "reach":
        return workloads.Reach(*args, str(SRC))
    if name.startswith("xsec"):
        return workloads.CrossSection(*args, int(name[4:]))
    cls = {"toda": workloads.Toda, "acceptance": workloads.Acceptance}[name]
    return cls(*args)


def run_one(args, spec):
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            wl = make_workload(args.workload, args.seed, workdir)
            extra = {}
            if args.workload == "reach":
                tr, plain, failed, extra = reach_traced(wl, args.seconds)
            else:
                tr, plain, failed = traced_loop(
                    wl, iter(wl.next_input, None), args.seconds)
            values = layer_metrics(tr, plain)
            values["reach.rungs_done"] = extra.get("rungs_done", 0)
            result = dict({"attempted": max(len(plain), 1)}, **extra,
                          failed=failed, samples={"calls": len(plain)})
        else:
            # Set-up runs in a child, so its memory stays out of the
            # workload's peak.  On reach it comes last: the peak there is
            # the largest child, read as the climbs go.
            wl = make_workload(args.workload, args.seed, workdir)
            if args.workload == "reach":
                result = reach_untraced(wl, args.seconds)
                setup, setup_raw = measure_setup()
            else:
                setup, setup_raw = measure_setup()
                result = closed_loop(wl, args.seconds)
            # job_s is a mean, the inverse of throughput: machine speed
            # moves in phases, and a run's median jumps between them.
            values = {"job_s": statistics.fmean(result["job_s"]),
                      "setup_s": median(setup),
                      "peak_rss_mb": result.pop("peak_rss_kib") / 1024}
            result["setup_s"], result["setup_raw_s"] = setup, setup_raw
            result["unscaled"] = {
                "job_s": statistics.fmean(result["job_raw_s"]),
                "setup_s": median(setup_raw)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        raise SystemExit(f"perfbench: metrics {odd} disagree with "
                         f"BENCHMARK.json {section}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    env = environment(args)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for k, m in metrics.items():
        n = len(result.get(k, ())) or result.get("samples", {}).get("calls", 1)
        line = f"{args.workload}.{k} = {m['value']:.6g} {m['unit']} (n={n}"
        if k in result.get("unscaled", {}):
            line += (f", at reference speed; unscaled "
                     f"{result['unscaled'][k]:.6g}; median "
                     f"{median(result[k]):.6g}")
        t = tail(result.get(k, ()))
        if t:
            line += f", p{t[0]:.0f} = {t[1]:.6g}"
        print(line + ")")
    if "rungs_done" in result:
        print(f"reach.rungs_done = {result['rungs_done']} count (n=1, "
              f"stopped by {result['stopped_by']})")
    if "digest" in result:
        print(f"{args.workload}.outputs sha256 (first {result['digest_ops']}"
              f" operations) = {result['digest']}")
    OUT.mkdir(exist_ok=True)
    record = dict(env, metrics=metrics, **result)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one at a time."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited "
                             f"{proc.returncode}")
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace"
                             f"{args.trace}.json").read_text())
        for k, m in res["metrics"].items():
            label = JOB_NAMES[name] if k == "job_s" else f"{name}.{k}"
            metrics[label] = m
        if name == "reach" and not args.trace:
            metrics["reach.rungs_done"] = {"value": record["rungs_done"],
                                           "unit": "count"}
    print("\n# all workloads")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qwhit" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a qwhit checkout "
              "(needs src/qwhit and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args, json.loads(spec_path.read_text()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
