#!/usr/bin/env python3
"""Unpooled times of `optimize.gradcheck`'s classes of evaluation.

The benchmark's gradcheck_rgb workload times every forward probe at the
fastest one's speed. This script times the classes apart, in one process
of one checkout, on that workload's scene (a 3-channel 128x96 slant at 20
degrees, 48 depth probes, all three terms, one scale): the gradient
evaluation (`losses.total_loss_grad`) and the forward evaluations (the
calls of `losses.total_loss`), classed by what they move against the
gradient evaluation's inputs, compared by bytes: depth only, poses only,
or both. For each seed it runs the check ``--repeat`` times and keeps the
fastest sum of each class; it prints one line per seed, in ms, with how
many forward evaluations each class holds, and the median over seeds.

It measures the checkout it belongs to, or the one whose root is given. To
compare two checkouts, alternate runs of the two, one seed at a time:

    python3 scripts/gradcheck_classes.py --seeds 401 402 403 --repeat 5
    python3 scripts/gradcheck_classes.py ../parent --seeds 401 --repeat 5
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread, as in the benchmark
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# a forward evaluation's class by whether its depth and its poses moved
MOVED = {(True, False): "depth", (False, True): "pose", (True, True): "both"}
MOVES = tuple(MOVED.values())
CLASSES = ("gradient", *MOVES)
N_DEPTH = 48  # gradcheck_rgb's depth probes


def inputs(poses, depth) -> tuple:
    """The bytes of an evaluation's depth and of each context's pose."""
    return depth.tobytes(), [pose.as_params().tobytes() for pose in poses]


def time_classes(losses, optimize, scene, weights, seed: int) -> tuple[dict, dict]:
    """Summed seconds of each class over one gradcheck call, and the count
    of forward evaluations in each class."""
    spent = dict.fromkeys(CLASSES, 0.0)
    counts = dict.fromkeys(MOVES, 0)
    point = []  # the gradient evaluation's inputs
    total_loss, total_loss_grad = losses.total_loss, losses.total_loss_grad

    def forward(objective, poses, depth):
        start = time.perf_counter()
        result = total_loss(objective, poses, depth)
        elapsed = time.perf_counter() - start
        kind = MOVED[tuple(now != then for now, then in zip(inputs(poses, depth), point[-1]))]
        spent[kind] += elapsed
        counts[kind] += 1
        return result

    def gradient(objective, poses, depth):
        start = time.perf_counter()
        result = total_loss_grad(objective, poses, depth)
        spent["gradient"] += time.perf_counter() - start
        point.append(inputs(poses, depth))
        return result

    losses.total_loss, losses.total_loss_grad = forward, gradient
    try:
        optimize.gradcheck(scene, weights, n_samples=N_DEPTH, seed=seed,
                           terms=("photo", "smooth", "rep"), supervised="rep", num_scales=1)
    finally:
        losses.total_loss, losses.total_loss_grad = total_loss, total_loss_grad
    return spent, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent,
                        help="root of the checkout to measure (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[401])
    parser.add_argument("--repeat", type=int, default=5, help="gradcheck calls per seed")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from sfm_losskit import losses, optimize, synth

    weights = losses.LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1.0)
    best = {kind: [] for kind in CLASSES}
    print(f"{args.root.resolve()}: best of {args.repeat}, ms")
    for seed in args.seeds:
        scene = synth.make_scene(synth.SceneSpec(geometry="slant", slant=20.0, width=128,
                                                 height=96, channels=3, seed=seed))
        runs = [time_classes(losses, optimize, scene, weights, seed) for _ in range(args.repeat)]
        for kind in CLASSES:
            best[kind].append(min(spent[kind] for spent, _ in runs) * 1e3)
        counts = runs[-1][1]
        print(f"seed {seed}: " + "  ".join(f"{kind} {best[kind][-1]:.2f}" for kind in CLASSES)
              + "  (forward evaluations: " + ", ".join(f"{kind} {counts[kind]}" for kind in MOVES)
              + ")")
    print("median: " + "  ".join(f"{kind} {statistics.median(best[kind]):.2f}"
                                 for kind in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
