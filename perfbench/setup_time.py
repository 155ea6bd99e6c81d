"""The engine's set-up time: fresh A3 algebra builds in a process of their
own, so that the memory they take never counts towards a workload's peak.

    PYTHONPATH=src python3 perfbench/setup_time.py

prints one JSON object: the rescaled and raw seconds of each build.
"""

from __future__ import annotations

import json

from clock import Clock

# Fresh A3 algebras built per run; the benchmark reports the median.
REPEATS = 7


def measure(repeats=REPEATS):
    """Seconds of each ``Algebra(coxeter_context(A3))`` build, each on a
    fresh context, probed after each."""
    from qwhit import rootsys, uqalg
    rs = rootsys.build_root_system("A", 3)
    clock = Clock(every_s=0.0)
    builds = [
        clock.timed(lambda: uqalg.Algebra(rootsys.coxeter_context(rs)))[0]
        for _ in range(repeats)]
    return {"scaled": [t.scaled for t in builds],
            "raw": [t.raw for t in builds]}


if __name__ == "__main__":
    print(json.dumps(measure()))
