"""The benchmark's workloads: seeded inputs and the checked calls into
qwhit that make up one operation.

Every untimed check and every input generator lives here, so the program
only ever receives the flags and matrices these functions build.  Calls go
through ``qwhit.cli.main`` exactly as a user's command line would, with
``--out`` pointed into the run's work directory.  Character values are
always passed as ``--chi=...``/``--chibar=...``: with a space-separated
value such as ``--chibar -5,1,2`` argparse reads the leading ``-`` as a
flag and the call exits 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import layers
from qwhit import acceptance, cli

# A rung that runs longer than this is killed and ends the ladder.  The
# slowest rung that finishes today (A3, a monotone ordering) takes about
# 1.2 s in a fresh process; the A4 Toda system took 3.9 s in a prototype
# with truncated Serre completion, so 10 s leaves room for both under load.
RUNG_DEADLINE_S = 10.0
# No rung starts once the ladder has used this much time, so that a
# future program that climbs far still ends a run well within 180 s.
LADDER_BUDGET_S = 40.0
# The rungs that finish at the baseline: reach's job_s and peak_rss_mb
# cover only these, so climbing further never reads as a regression.
BASELINE_RUNGS = 5


# -- inputs ------------------------------------------------------------------

def nonzero_rational(rng):
    num = 0
    while num == 0:
        num = rng.randint(-5, 5)
    return Fraction(num, rng.randint(1, 4))


def characters(rng, rank):
    return ([nonzero_rational(rng) for _ in range(rank)],
            [nonzero_rational(rng) for _ in range(rank)])


def toda_argv(rank, chi, chibar, pi=None):
    argv = ["toda", "--type", "A", "--rank", str(rank)]
    if pi is not None:
        argv += ["--pi", ",".join(map(str, pi))]
    return argv + ["--chi=" + ",".join(map(str, chi)),
                   "--chibar=" + ",".join(map(str, chibar)),
                   "--check-commute"]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def coxeter_matrix(n):
    """Product of the blocks [[0,-1],[1,0]] at positions 1..n-1, left to
    right: the standard Coxeter representative in SL(n)."""
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        block = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        block[i][i] = block[i + 1][i + 1] = Fraction(0)
        block[i][i + 1], block[i + 1][i] = Fraction(-1), Fraction(1)
        out = matmul(out, block)
    return out


def unitriangular(rng, n):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return m


def big_cell_matrix(rng, n):
    """v s u with v, u random upper unitriangular: always in N+ s N+."""
    return matmul(matmul(unitriangular(rng, n), coxeter_matrix(n)),
                  unitriangular(rng, n))


def matrix_text(m):
    return json.dumps([[str(x) for x in row] for row in m])


def ladder(rng):
    """The reach rungs in order, each (rank, pi, chi, chibar)."""
    rungs = []
    for rank in range(1, 7):
        ident = tuple(range(1, rank + 1))
        if rank <= 3:
            rest = [p for p in itertools.permutations(ident)
                    if p not in (ident, ident[::-1])]
        else:
            rest = [(2, 1) + ident[2:]]
        for pi in dict.fromkeys([ident, ident[::-1]] + sorted(rest)):
            rungs.append((rank, pi) + tuple(characters(rng, rank)))
    return rungs


# -- the correctness gate ----------------------------------------------------

def invoke(main, argv, out_path):
    """``main(argv + ["--out", out_path])`` with stderr captured.  Returns
    (exit code, or None if it raised; captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv + ["--out", out_path])
        except Exception:  # a crash is a failed operation, not a lost run
            traceback.print_exc()
            rc = None
    return rc, err.getvalue()


def call_cli(argv, out_path, clock):
    """One ``qwhit`` call timed on ``clock``.  Returns (Timing, exit code or
    None if it raised, report or None, captured stderr)."""
    timing, (rc, err) = clock.timed(lambda: invoke(cli.main, argv, out_path))
    return timing, rc, take_report(out_path), err


def take_report(path):
    """The JSON report a call wrote to ``path`` (then removed), or None."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(path)
    return report


def gate(rc, report):
    """An operation passes only on exit code 0 with every check true."""
    return (rc == 0 and report is not None and bool(report.get("checks"))
            and all(v is True for v in report["checks"].values()))


def digest(outputs):
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- workloads ---------------------------------------------------------------

class Workload:
    """One kind of operation: the ``qwhit`` calls ``calls(inp)`` lists,
    made in order.  ``run`` makes them untraced, timed on ``clock``;
    ``traced`` makes them through ``layers.traced_main``.  Both check every
    report."""

    min_ops = 1

    def __init__(self, rng, workdir, seed, clock):
        self.rng = rng
        self.seed = seed
        self.clock = clock
        self.out = os.path.join(workdir, f"{self.name}.json")

    def prepare(self):
        """Reset program state before an operation."""

    def check(self, inp, outputs):
        """An independent check of one report's outputs."""
        return True

    def count(self, tr, report):
        """Counts read from one report of a traced call."""

    def run(self, inp):
        """Returns (timings, ok, outputs, stderr)."""
        self.prepare()
        timings, ok, outputs, errs = [], True, [], ""
        for argv in self.calls(inp):
            timing, rc, report, err = call_cli(argv, self.out, self.clock)
            timings.append(timing)
            ok = ok and gate(rc, report) and self.check(inp, report["outputs"])
            outputs.append(report and report["outputs"])
            errs += err
        return timings, ok, outputs, errs

    def traced(self, tr, inp):
        """Returns (ok, stderr)."""
        self.prepare()
        ok, errs = True, ""
        for argv in self.calls(inp):
            rc, err = invoke(lambda a: layers.traced_main(tr, a), argv,
                             self.out)
            report = take_report(self.out)
            ok = ok and gate(rc, report) and self.check(inp, report["outputs"])
            if report is not None:
                self.count(tr, report)
            errs += err
        return ok, errs


class Toda(Workload):
    name = "toda"
    min_ops = 3
    rank = 3

    def next_input(self):
        return characters(self.rng, self.rank)

    def calls(self, inp):
        return [toda_argv(self.rank, *inp)]

    def count(self, tr, report):
        count_hamiltonian_terms(tr, report)


def count_hamiltonian_terms(tr, report):
    tr.count("toda.hamiltonian_terms",
             sum(map(len, report["outputs"]["hamiltonians"])))


class CrossSection(Workload):
    """One cross-section call at a fixed size on a seeded big-cell matrix."""

    min_ops = 3

    def __init__(self, rng, workdir, seed, clock, n):
        self.n = n
        self.name = f"xsec{n}"
        super().__init__(rng, workdir, seed, clock)

    def next_input(self):
        return big_cell_matrix(self.rng, self.n)

    def calls(self, m):
        return [["cross-section", "--matrix", matrix_text(m)]]

    def check(self, m, outputs):
        return conjugates(m, outputs)


def conjugates(m, outputs):
    """Independent check of a cross-section report: conj * m == point *
    conj, and the point differs from the Coxeter matrix only in the first
    n-1 entries of its first row."""
    conj = [[Fraction(x) for x in row] for row in outputs["conjugator"]]
    point = [[Fraction(x) for x in row] for row in outputs["slice_point"]]
    n = len(m)
    s = coxeter_matrix(n)
    off_slice = any(point[i][j] != s[i][j] for i in range(n) for j in range(n)
                    if i > 0 or j == n - 1)
    return not off_slice and matmul(conj, m) == matmul(point, conj)


class Acceptance(Workload):
    """One suite: ``acceptance --suite k`` for every criterion k in one
    process, the work of ``--suite all`` split so that the clock can probe
    between criteria."""

    name = "acceptance"
    min_ops = 2

    def prepare(self):
        # Each suite starts from an empty algebra cache, as in a fresh
        # process.  The cache is module state of qwhit.acceptance; tolerate
        # its removal.
        cache = getattr(acceptance, "_ALG_CACHE", None)
        if cache is not None:
            cache.clear()

    def next_input(self):
        return self.seed

    def calls(self, seed):
        return [["acceptance", "--suite", str(k), "--seed", str(seed)]
                for k in range(1, len(acceptance.CRITERIA) + 1)]


# -- the reach ladder --------------------------------------------------------

def run_child(argv, deadline, env=None):
    """Run one rung in a child process.  Returns its exit code, or None
    when the child passed its deadline and was killed."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    err = None
    try:
        _, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if err is None:
        return None
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode


def climb(rungs, run, deadline=RUNG_DEADLINE_S, budget=LADDER_BUDGET_S):
    """Try rungs in order until one passes its deadline or the budget is
    spent.  ``run(rung, deadline)`` returns a tuple (timing, ok, ...) with
    ok None for a rung that was killed.  Returns the list of (rung,
    *result) for every rung that finished, and what stopped the ladder:
    "deadline" (a rung was killed at its deadline), "budget" (the next
    rung would have started after ``budget`` seconds, or was killed at the
    budget's end before its own deadline) or "end" (every rung finished).
    A killed rung counts as neither success nor failure.
    """
    done = []
    start = time.perf_counter()
    for rung in rungs:
        left = budget - (time.perf_counter() - start)
        if left <= 0:
            return done, "budget"
        result = run(rung, min(deadline, left))
        if result[1] is None:
            return done, "deadline" if left >= deadline else "budget"
        done.append((rung,) + tuple(result))
    return done, "end"


class Reach(Workload):
    """The ladder of Toda rungs, each in a fresh ``qwhit`` process.  As an
    operation of ``run`` and ``traced``, the input is a list of rungs, each
    called in-process."""

    name = "reach"

    def __init__(self, rng, workdir, seed, clock, src):
        super().__init__(rng, workdir, seed, clock)
        self.rungs = ladder(rng)
        self.env = dict(os.environ, PYTHONPATH=src)

    def calls(self, rungs):
        return [toda_argv(rank, chi, chibar, pi)
                for rank, pi, chi, chibar in rungs]

    def count(self, tr, report):
        count_hamiltonian_terms(tr, report)

    def run_rung(self, rung, deadline):
        """(Timing, ok, outputs, peak child RSS in KiB); ok is None for a
        killed rung."""
        argv = ([sys.executable, "-m", "qwhit.cli"] + self.calls([rung])[0]
                + ["--out", self.out])
        timing, rc = self.clock.timed(
            lambda: run_child(argv, deadline, env=self.env))
        report = take_report(self.out)
        if rc is None:
            return timing, None, None, None
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return timing, gate(rc, report), report and report["outputs"], rss
