#!/usr/bin/env python3
"""Benchmark of sfm-losskit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload example_cli --seed 1 --seconds 30 --trace 0

Workloads: example_cli, hires_pyramid, gradcheck_rgb (see README.md). The
run repeats the workload with one seed until ``--seconds`` have passed (at
least three times), checks its outputs, prints each metric with its unit and
sample count, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports per-layer metrics (per
repetition) plus the tracing overhead. The full record, with
the machine and library settings, goes to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import os
import sys

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported;
# the package's own gradcheck pool stays at its default of one worker.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SFM_LOSSKIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
NEEDED = ("src/sfm_losskit/__init__.py", "configs/example_plane.cfg",
          "tests/data/golden_loss_history.csv")
MIN_REPS = 3
# Shortest time of `calibration_unit` on the machine the benchmark was tuned
# on (Intel Xeon, CPU model 207, in a 2-vCPU KVM guest). End-to-end times
# are scaled to that machine's speed; see README.md, "Machine speed".
CALIBRATION_REF_S = 2.2e-3
CALIBRATION_UNITS = 5  # after every repetition


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}),
        "env": {v: os.environ.get(v) for v in (*THREAD_VARS, "SFM_LOSSKIT_THREADS")},
        "git_sha": git_sha(ROOT),
    }


def calibration_unit():
    """A fixed numpy job of the objective's kinds (elementwise work, box
    sums, a gather) on a 192x256 raster; returns a function that times one
    run of it. It uses nothing of the package, so a change to the package
    does not change it."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((192, 256)), rng.random((192, 256))
    idx = rng.integers(0, a.size, a.size)

    def unit():
        start = time.perf_counter()
        for _ in range(3):
            x = a * b + np.sqrt(a)
            y = np.cumsum(np.cumsum(x, 0), 1)
            z = a.ravel()[idx].reshape(a.shape)
            float(np.minimum(x, z).sum() + np.exp(-y[:96, :128]).sum())
        return time.perf_counter() - start

    return unit


def run_reps(workload, work, seed, seconds, min_reps, tracers, calibrate):
    """Repeat the workload until `seconds` have passed, cycling through
    `tracers` so each repetition runs under the next one, and run
    `calibrate` just before each; returns the repetitions made under each
    tracer and the calibration times."""
    reps = [[] for _ in tracers]
    calibration = []
    began = time.perf_counter()
    while min(map(len, reps)) < min_reps or time.perf_counter() - began < seconds:
        for tracer, mine in zip(tracers, reps):
            units = [calibrate() for _ in range(CALIBRATION_UNITS)]
            calibration.extend(units)
            tracer.rep = len(mine)
            with tracer:
                rep = workload.run(ROOT, work, seed)
            rep.peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rep.calibration = min(units)
            mine.append(rep)
            if not tracer.restored:
                raise RuntimeError("a wrapped function was not restored")
    return reps, calibration


def rep_segments(workload, tracer, reps):
    """Each repetition cut at its evaluations: set-up (start to the first
    evaluation), then every evaluation and the time after it, the last of
    which runs to the end of the repetition (reports, clean-up). Failed
    repetitions are left out. Also returns the distinct sequences of
    evaluation names the repetitions made, and per repetition the speed
    scale of the calibration run just before it."""
    evals = {}
    for span in tracer.spans:
        if span.name in workload.eval_names:
            evals.setdefault(span.rep, []).append(span)
    segments, sequences, speeds = [], set(), []
    for i, rep in enumerate(reps):
        mine = sorted(evals.get(i, ()), key=lambda s: s.start)
        if rep.failed or not mine:
            continue
        cuts = [rep.start, *(t for s in mine for t in (s.start, s.end)), rep.end]
        segments.append([b - a for a, b in zip(cuts, cuts[1:])])
        speeds.append(CALIBRATION_REF_S / rep.calibration)
        sequences.add(tuple(s.name for s in mine))
    return segments, sequences, speeds


def fastest(segments, sequences, first_phase):
    """Each segment's duration at the machine's undisturbed speed, or None
    if the repetitions made different evaluations.

    Set-up and the time after each evaluation take their shortest duration
    over the repetitions. Evaluations of one name in one phase (the first
    `first_phase` evaluations, then the rest) do the same work, so each
    takes the shortest duration of any of them over all repetitions. The
    first evaluation of such a class keeps its own, so work done once, on
    the first call, still counts."""
    if len(sequences) != 1:
        return None
    (names,) = sequences
    low = [min(column) for column in zip(*segments)]
    seen, pooled, members = set(), {}, []
    for k, name in enumerate(names):
        key = (name, k < first_phase)
        if key in seen:
            pooled[key] = min(pooled.get(key, math.inf), low[2 * k + 1])
            members.append((k, key))
        seen.add(key)
    for k, key in members:
        low[2 * k + 1] = pooled[key]
    return low


def evals_per_s(low):
    evals = low[1:-1:2]
    return len(evals) / sum(evals)


def percentile(values, p):
    """p-th percentile (integer p in 1..99), interpolated between samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload, tracer, reps, first_phase, scale, problems):
    # Times at the machine's undisturbed speed: the host's speed drops in
    # stretches of seconds, so a whole repetition rarely runs undisturbed,
    # but each short segment of it does somewhere in the run (README.md,
    # "Noise"). `scale` converts seconds on this machine to seconds on the
    # reference one. Set-up stays a median over the run's set-ups, each
    # scaled by the calibration run just before it: slow stretches last
    # seconds, so that calibration ran at the set-up's speed.
    segments, sequences, speeds = rep_segments(workload, tracer, reps)
    low = fastest(segments, sequences, first_phase)
    if low is None:
        problems.append("repetitions made different evaluations")
        low = [float("nan")] * 3
    setups = [s[0] * x for s, x in zip(segments, speeds)] or [float("nan")]
    # Memory after the first repetition: later ones reuse freed heap, and
    # how much of it malloc hands back varies from run to run.
    peak_kb = reps[0].peak_kb
    return {
        "setup_s": (statistics.median(setups), "s", len(segments)),
        "wall_s": (sum(low) * scale, "s", len(segments)),
        "evals_per_s": (evals_per_s(low) / scale, "1/s", len(segments)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }


def layer_table(tracer, n):
    """Calls, time and self time per repetition of every traced function."""
    totals = {}
    for span in tracer.spans:
        row = totals.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.ms
        row[2] += span.self_ms
    return {name: {"calls": c / n, "ms": ms / n, "self_ms": self_ms / n}
            for name, (c, ms, self_ms) in totals.items()}


def per_layer(workload, tracer, n, overhead):
    """Per-repetition layer metrics from the traced repetitions. Every time
    here is one that each workload exercises; the full per-function table
    (`layer_table`) also goes to stdout and the record."""
    c = tracer.counters
    table = layer_table(tracer, n)

    def get(name, key, unit):
        return (table.get(name, {}).get(key, 0.0), unit, n)

    def self_ms(*names):
        return (sum(table.get(x, {}).get("self_ms", 0.0) for x in names), "ms", n)

    evals = [s.ms for s in tracer.spans if s.name in workload.eval_names]
    return {
        "losses.total_loss_grad.self_ms": self_ms("losses.total_loss_grad"),
        "losses.self_ms": self_ms("losses.total_loss_grad", "losses.total_loss"),
        "geometry.warp_chain.calls": get("geometry.warp_chain", "calls", "count"),
        "geometry.warp_chain.ms": get("geometry.warp_chain", "ms", "ms"),
        "warp.sample_bilinear.calls": get("warp.sample_bilinear", "calls", "count"),
        "warp.sample_bilinear.ms": get("warp.sample_bilinear", "ms", "ms"),
        "geometry.valid_frac": (c["chain_valid"] / max(c["chain_px"], 1), "ratio", n),
        "warp.sample_bilinear_grad.calls": get("warp.sample_bilinear_grad", "calls", "count"),
        "warp.sample_bilinear_grad.ms": get("warp.sample_bilinear_grad", "ms", "ms"),
        "geometry.projection_jacobian.calls":
            get("geometry.projection_jacobian", "calls", "count"),
        "geometry.projection_jacobian.ms": get("geometry.projection_jacobian", "ms", "ms"),
        "warp.gather_mb": (c["gather_bytes"] / 1e6 / n, "MB", n),
        "optimize.self_ms": self_ms("optimize.run", "optimize.step", "optimize.adam_update",
                                    "optimize.gradcheck"),
        "eval.p50_ms": (percentile(evals, 50), "ms", len(evals)),
        "eval.p95_ms": (percentile(evals, 95), "ms", len(evals)),
        "synth.make_scene.ms": get("synth.make_scene", "ms", "ms"),
        "losses.unwarped_min_photometric.ms":
            get("losses.unwarped_min_photometric", "ms", "ms"),
        "io_codecs.scene_mb": (c["scene_bytes"] / 1e6 / n, "MB", n),
        "losses.mask_frac": (c["masked_px"] / max(c["eval_px"], 1), "ratio", n),
        "losses.rep_labels": (c["rep_labels"], "count", n),
        "losses.rep_dropped": (c["rep_dropped"] / n, "count", n),
        "optimize.gradcheck.fail_probes": (c["fail_probes"] / n, "count", n),
        "trace_overhead_frac": overhead,
    }, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: run from the root of an sfm-losskit checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import TRACED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32  # scene and optimizer seeds must be nonnegative
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clock_targets = [t for t in TRACED if t.name in workload.eval_names]
    first_phase = workload.first_phase(ROOT, seed)

    problems, layers = [], {}
    calibrate = calibration_unit()
    clock = Tracer(clock_targets)
    if args.trace == 0:
        (reps,), calibration = run_reps(workload, work, seed, args.seconds, MIN_REPS,
                                        [clock], calibrate)
        scale = CALIBRATION_REF_S / min(calibration)
        metrics = end_to_end(workload, clock, reps, first_phase, scale, problems)
    else:
        # untraced and traced repetitions alternate, so drift in the
        # machine's speed does not show up as tracing overhead
        tracer = Tracer(TRACED)
        (plain, traced), calibration = run_reps(workload, work, seed, args.seconds, 1,
                                                [clock, tracer], calibrate)
        rates = [fastest(*rep_segments(workload, t, r)[:2], first_phase)
                 for t, r in ((clock, plain), (tracer, traced))]
        reps = plain + traced
        n = len(traced)
        if None in rates:
            problems.append("repetitions made different evaluations")
            overhead = (float("nan"), "ratio", n)
        else:
            overhead = (evals_per_s(rates[0]) / evals_per_s(rates[1]) - 1.0, "ratio", n)
        metrics, layers = per_layer(workload, tracer, n, overhead)
        for label, (actual, low, high) in workload.expected_calls(ROOT, seed, tracer, n).items():
            if not low <= actual <= high:
                problems.append(f"call count {label}: {actual:g} per repetition, "
                                f"expected {low:g}..{high:g}")
    problems += workload.check(ROOT, work, seed, reps)
    problems = list(dict.fromkeys(problems))  # one line per distinct problem

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    quality = {}
    for rep in reps:
        for key, value in rep.quality.items():
            quality.setdefault(key, value)
    env = environment()
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps), "quality": quality,
        "problems": problems, "environment": env, "layers": layers,
        "calibration_min_s": min(calibration),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"env nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas'].get('blas', {}).get('name')} "
          f"threads={env['env']} git={env['git_sha']}")
    print(f"workload {workload.name} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} attempted={attempted} failed={failed}")
    print(f"calibration min={min(calibration):.6f} s over {len(calibration)} units; "
          f"end-to-end times scaled by {CALIBRATION_REF_S / min(calibration):.4f}")
    for key, value in quality.items():
        print(f"quality {key} = {value!r}")
    for name, row in sorted(layers.items()):
        print(f"layer {name}: calls={row['calls']:g} ms={row['ms']:.3f} "
              f"self_ms={row['self_ms']:.3f} (per repetition)")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value!r} {unit} (n={n})")
    for problem in problems:
        print(f"check FAILED: {problem}")
    correct = not problems and failed < attempted
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
