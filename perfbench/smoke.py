#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at the shortest length, untraced and
traced, and asserts that each run exits 0, passes its output checks and
emits every metric BENCHMARK.json names with its unit. Then checks that
the benchmark refuses to run, printing no result, in a directory holding
only BENCHMARK.json and the benchmark's own files. Takes about 30 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run(args, cwd):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            before = len(failures)
            rc, lines, err = run([*spec["command"][1:], "--workload", workload["name"],
                                  "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                                 ROOT)
            if rc != 0 or not lines:
                failures.append(f"{label}: exit {rc}: {err.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {lines[-1][:300]}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{label}: {metric['name']} missing or wrong unit: {got}")
                elif key == "end_to_end" and not got["value"] > 0:
                    failures.append(f"{label}: {metric['name']} = {got['value']}")
            if len(failures) == before:
                print(f"ok {label}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, _ = run([*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                        "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if rc == 0 or any(line.startswith("{") for line in lines):
        failures.append(f"bare directory: exit {rc}, output {lines[-1:]}")
    else:
        print("ok bare directory refused")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
