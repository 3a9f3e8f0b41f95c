#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: the protocol for a speedup claim.

Runs ``perfbench/run.py --workload W --seed s --seconds T --trace 0`` in a
parent checkout and in a change checkout, alternately, on shared seeds
``first_seed, first_seed + 1, ...``: pair i runs the parent first when i is
even and the change first when i is odd, so slow drift in the machine's
speed does not favour one side. Each run is a subprocess started from the
root of its checkout, as the benchmark expects; nothing under `perfbench/`
is imported or changed.

For every end-to-end metric of BENCHMARK.json it prints the median
[quartiles] of each side, the median of the paired relative changes
(change / parent - 1) and in how many pairs the change was better. It
does the same for each run's minor page faults (``ru_minflt`` of the run's
whole process tree, the ``RUSAGE_CHILDREN`` delta around its subprocess):
a process's fault regime follows allocation order and the checkout's path
as much as its work, so judge a fault change over several paths. Exits 1
if any run is not ``correct`` or fails an operation.

With ``--json PATH`` the same summary, each run's values and each side's
checkout path, machine and library settings (git sha and whether the tree
differs from it, nproc, numpy version, BLAS thread variables, from the
record the run leaves in ``.bench_work/``) are also written to PATH, the
checked-in record of a speed claim.

Place both checkouts at absolute paths of equal length; it warns on stderr
when they differ. One parent and change read hires_pyramid evals_per_s
-3.2 % and setup_s +12.8 % at paths of different length, against -0.5 %
and +3.1 % at paths of equal length.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload example_cli \\
        --pairs 10 --seconds 30 --first-seed 701 --json pairs.json
    make pairs PARENT=../parent WORKLOAD=example_cli PAIRS=10 RUN_SECONDS=30 SEED=701 \\
        JSON=pairs.json
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# reported beside the benchmark's end-to-end metrics; not one of them
FAULTS = {"name": "minor_faults", "unit": "count", "better": "lower"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its final JSON line, with the run's minor
    page faults added to its metrics and the run record's machine and
    library settings under "environment"."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"ab_pairs: {checkout}: no result line (exit {proc.returncode})")
    result["metrics"]["minor_faults"] = {"value": faults}
    record = checkout / ".bench_work" / workload / f"result-seed{seed}-trace0.json"
    env = json.loads(record.read_text())["environment"]
    result["environment"] = {
        "git_sha": env["git_sha"], "nproc": env["nproc"], "affinity": env["affinity"],
        "python": env["python"], "numpy": env["numpy"],
        "blas": env["blas"].get("blas", {}).get("name"), "threads": env["env"],
    }
    return result


def tree_differs(checkout: Path) -> bool | None:
    """Whether tracked files differ from the checkout's commit (None when
    it is not a git checkout)."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)"""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values: list[float]) -> str:
    """median [lower quartile, upper quartile]"""
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the summary to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    metrics.append(FAULTS)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(f"ab_pairs: warning: checkout paths differ in length ({sides['parent']}, "
              f"{sides['change']}); that alone can move the metrics", file=sys.stderr)
    results = {side: [] for side in sides}
    ok = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            results[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in metrics)
            print(f"pair {i + 1} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
            ok &= bool(result["correct"]) and result["failed"] == 0

    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    print(f"\n{args.workload}: {args.pairs} alternating pairs of {args.seconds:g} s, "
          f"seeds {seeds[0]}-{seeds[-1]}")
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
        before = [r["metrics"][name]["value"] for r in results["parent"]]
        after = [r["metrics"][name]["value"] for r in results["change"]]
        changes = [b / a - 1.0 for a, b in zip(before, after)]
        wins = sum(sign * c > 0 for c in changes)
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {spread(before)}  change {spread(after)}  "
              f"paired median {statistics.median(changes):+.2%}, "
              f"change better in {wins}/{len(changes)}")
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            **{side: dict(zip(("q1", "median", "q3"), quartiles(values)), runs=values)
               for side, values in (("parent", before), ("change", after))},
            "paired_median": statistics.median(changes), "wins": wins,
        }
    if not ok:
        print("ab_pairs: some run was not correct or failed an operation")
    if args.json:
        record = {
            "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
            "seeds": seeds, "all_correct": ok,
            "environment": {side: {**results[side][0]["environment"], "path": str(sides[side]),
                                   "dirty": tree_differs(sides[side])} for side in sides},
            "metrics": summary,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
