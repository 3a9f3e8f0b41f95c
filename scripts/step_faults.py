#!/usr/bin/env python3
"""Count the minor page faults of each `optimize.step` inside the benchmark's
own repetitions.

Minor faults (``ru_minflt``) move with what one objective evaluation
allocates: when freed blocks go back to the OS, the next step faults its
pages in again, and how often that happens depends on everything else the
process allocates. So this runs the hires_pyramid and example_cli workloads
exactly as `perfbench/run.py --trace 0` does (its `run_reps`, with the
calibration job before each repetition, and `synth` + `optimize` through
`cli.main`), with `optimize.step` wrapped to read ``ru_minflt`` around each
call. It prints, per workload and phase, the median and maximum count per
step and the total per repetition, after one warm-up repetition.

    python3 scripts/step_faults.py    (or: make faults)
"""

import os
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
os.chdir(REPO)  # the benchmark runs from the root of a checkout
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

import run as bench  # noqa: E402  (pins BLAS threads before numpy loads)
import resource  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import TRACED, WORKLOADS  # noqa: E402

from sfm_losskit import optimize  # noqa: E402

COUNTED = ("hires_pyramid", "example_cli")
SEED = 1
SECONDS = 10.0


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> int:
    step = optimize.step
    counts: list[int] = []

    def counted_step(*args, **kwargs):
        before = minflt()
        try:
            return step(*args, **kwargs)
        finally:
            counts.append(minflt() - before)

    optimize.step = counted_step
    calibrate = bench.calibration_unit()
    for name in COUNTED:
        workload = WORKLOADS[name]
        work = bench.WORK / f"faults-{name}"
        work.mkdir(parents=True, exist_ok=True)
        clock = Tracer([t for t in TRACED if t.name in workload.eval_names])
        first_phase = workload.first_phase(REPO, SEED)
        counts.clear()
        (reps,), _ = bench.run_reps(workload, work, SEED, SECONDS, bench.MIN_REPS,
                                    [clock], calibrate)
        per_rep = len(counts) // len(reps)
        rows = [counts[i:i + per_rep] for i in range(per_rep, len(counts), per_rep)]
        for phase, cut in (("A", slice(0, first_phase)), ("B", slice(first_phase, None))):
            steps = [c for row in rows for c in row[cut]]
            totals = [sum(row[cut]) for row in rows]
            print(f"{name} phase {phase}: per step median {statistics.median(steps):g}, "
                  f"max {max(steps)}; per repetition median {statistics.median(totals):g} "
                  f"({len(rows)} repetitions after 1 warm-up, {len(steps)} steps)")
    optimize.step = step
    return 0


if __name__ == "__main__":
    sys.exit(main())
