"""The benchmark's workloads: what one repetition runs, which calls count as
objective evaluations, how its outputs are checked and which call counts
its structure implies.

Every workload is a closed loop: one process, one caller, the next
repetition starts when the previous one has returned. See README.md for why
each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from sfm_losskit import cli, geometry, io_codecs, losses, metrics, optimize, synth, warp
from sfm_losskit.config import load_config
from sfm_losskit.errors import LossKitError
from sfm_losskit.losses import LossWeights
from sfm_losskit.synth import SceneSpec

from spans import Target, Tracer

EXAMPLE_CONFIG = "configs/example_plane.cfg"
GOLDEN = "tests/data/golden_loss_history.csv"
GOLDEN_SEED = 11  # scene.seed and optimizer.seed of the example config
HIRES_CONFIG = "perfbench/hires_pyramid.cfg"


@dataclass
class Rep:
    """One repetition: its wall-clock bounds, the operations it attempted
    and failed, and the outputs the checks compare."""

    start: float
    end: float
    attempted: int
    failed: int
    output: object = None
    quality: dict = field(default_factory=dict)
    peak_kb: int = 0  # the process's peak resident memory when it ended
    calibration: float = 0.0  # shortest calibration time just before it


# -- observers: counts taken where the work happens (traced runs only) ----

def _obs_chain(args, kwargs, result, c):
    c["chain_valid"] += int(result.valid.sum())
    c["chain_px"] += result.valid.size


def _obs_gather(args, kwargs, result, c):
    src, coords = args[0], args[1]
    # 4 bilinear corners x H*W*C float64 reads, as computed from the shapes
    c["gather_bytes"] += 4 * coords.shape[0] * coords.shape[1] * src.shape[2] * 8


def _obs_objective(args, kwargs, result, c):
    breakdown = result[0] if isinstance(result, tuple) else result
    c["eval_px"] += args[2].size
    c["masked_px"] += breakdown.masked_pixel_count
    c["rep_labels"] = max(c["rep_labels"], breakdown.rep_pixel_count)
    c["rep_dropped"] += breakdown.rep_dropped_behind


def _obs_scene(args, kwargs, result, c):
    c["contexts"] += len(result.contexts)


def _obs_scene_dir(args, kwargs, result, c):
    c["scene_bytes"] += sum(e.stat().st_size for e in os.scandir(args[0]) if e.is_file())


def _obs_gradcheck(args, kwargs, result, c):
    c["fail_probes"] += result.n_checked - result.n_passed


TRACED = [
    Target(optimize, "run"),
    Target(optimize, "step"),
    Target(optimize, "adam_update"),
    Target(optimize, "gradcheck", _obs_gradcheck),
    Target(losses, "total_loss_grad", _obs_objective),
    Target(losses, "total_loss", _obs_objective),
    Target(losses, "unwarped_min_photometric"),
    Target(geometry, "warp_chain", _obs_chain),
    Target(geometry, "projection_jacobian"),
    Target(warp, "sample_bilinear"),
    Target(warp, "sample_bilinear_grad", _obs_gather),
    Target(synth, "make_scene", _obs_scene),
    Target(io_codecs, "write_scene_dir", _obs_scene_dir),
    Target(io_codecs, "read_scene_dir", _obs_scene),
    Target(metrics, "evaluate"),
]


def _parse_history(raw: bytes) -> list[list[float]]:
    lines = raw.decode("ascii").splitlines()
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


class CliWorkload:
    """`synth` into a scene directory, then `optimize` reading it back and
    writing its reports, both through `cli.main`."""

    eval_names = ("optimize.step",)

    def __init__(self, name: str, config: str, golden: str | None = None):
        self.name = name
        self.config = config
        self.golden = golden

    def run(self, root: Path, work: Path, seed: int) -> Rep:
        cfg = str(root / self.config)
        scene_dir, report_dir = work / "scene", work / "report"
        for d in (scene_dir, report_dir):
            shutil.rmtree(d, ignore_errors=True)
        seeds = [f"--scene.seed={seed}", f"--optimizer.seed={seed}"]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["synth", "--config", cfg, "--out", str(scene_dir), *seeds])
            attempted, failed = 1, int(rc != 0)
            if rc == 0:
                rc = cli.main(["optimize", str(scene_dir), "--config", cfg,
                               "--out", str(report_dir), *seeds])
                attempted, failed = 2, int(rc != 0)
        end = time.perf_counter()
        if failed:
            return Rep(start, end, attempted, failed)
        history = (report_dir / "loss_history.csv").read_bytes()
        row = (report_dir / "metrics.csv").read_text().splitlines()[1].split(",")
        return Rep(start, end, attempted, failed, output=history,
                   quality={"abs_rel": float(row[0])})

    def settings(self, root: Path, seed: int):
        return load_config(root / self.config, {"scene.seed": str(seed),
                                                "optimizer.seed": str(seed)}).optimizer

    def first_phase(self, root: Path, seed: int) -> int:
        """Evaluations in the first phase; a phase B step also runs the rep term."""
        return self.settings(root, seed).phase_a_iters

    def check(self, root: Path, work: Path, seed: int, reps: list[Rep]) -> list[str]:
        problems = []
        opt = self.settings(root, seed)
        ok = [r for r in reps if not r.failed]
        for r in ok:
            rows = _parse_history(r.output)
            if len(rows) != opt.phase_a_iters + opt.phase_b_iters:
                problems.append(f"loss history has {len(rows)} rows")
            if not all(math.isfinite(v) for row in rows for v in row):
                problems.append("loss history holds a non-finite value")
            if not math.isfinite(r.quality["abs_rel"]):
                problems.append("abs_rel is not finite")
        if len({r.output for r in ok}) > 1:
            problems.append("repetitions of one seed gave different loss histories")
        if self.golden is not None:
            golden_run = ok[0] if ok and seed == GOLDEN_SEED else self.run(root, work, GOLDEN_SEED)
            if golden_run.failed or golden_run.output != (root / self.golden).read_bytes():
                problems.append(f"seed {GOLDEN_SEED} loss history differs from {self.golden}")
        return problems

    def expected_calls(self, root: Path, seed: int, tracer: Tracer, n: int) -> dict:
        """Per-repetition call counts the run's structure implies, as
        {label: (actual, low, high)}."""
        opt = self.settings(root, seed)
        steps = opt.phase_a_iters + opt.phase_b_iters
        ctx = tracer.counters["contexts"] / (2 * n)  # make_scene + read_scene_dir
        warps = steps * ctx * opt.num_scales
        rep_steps = opt.phase_b_iters if opt.supervised_loss == "rep" else 0
        per = lambda name, parent=None: tracer.calls(name, parent) / n  # noqa: E731
        grads = per("warp.sample_bilinear_grad", "losses.total_loss_grad")
        return {
            "optimize.run": (per("optimize.run"), 1, 1),
            "optimize.step": (per("optimize.step"), steps, steps),
            "optimize.adam_update": (per("optimize.adam_update"), steps, steps),
            "losses.total_loss_grad": (per("losses.total_loss_grad"), steps, steps),
            "geometry.warp_chain in objective":
                (per("geometry.warp_chain", "losses.total_loss_grad"), warps, warps),
            "warp.sample_bilinear in objective":
                (per("warp.sample_bilinear", "losses.total_loss_grad"), warps, warps),
            "warp.sample_bilinear_grad in objective": (grads, 1, warps),
            "geometry.projection_jacobian in objective": (
                per("geometry.projection_jacobian", "losses.total_loss_grad"),
                grads + 2 * ctx * rep_steps, grads + 2 * ctx * rep_steps),
            "synth.make_scene": (per("synth.make_scene"), 1, 1),
            "io_codecs.write_scene_dir": (per("io_codecs.write_scene_dir"), 1, 1),
            "io_codecs.read_scene_dir": (per("io_codecs.read_scene_dir"), 1, 1),
            "losses.unwarped_min_photometric":
                (per("losses.unwarped_min_photometric"), 1, 1),
            "metrics.evaluate": (per("metrics.evaluate"), 2, 2),  # all and unlabeled
            "optimize.gradcheck": (per("optimize.gradcheck"), 0, 0),
            "losses.total_loss": (per("losses.total_loss"), 0, 0),
        }


class GradcheckWorkload:
    """`optimize.gradcheck` on a 3-channel slanted plane: 48 depth probes
    plus the 12 pose parameters, all three terms, one scale."""

    name = "gradcheck_rgb"
    eval_names = ("losses.total_loss", "losses.total_loss_grad")
    n_depth = 48
    weights = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1.0)

    def first_phase(self, root: Path, seed: int) -> int:
        return 0  # one phase: every forward evaluation perturbs one probe

    def run(self, root: Path, work: Path, seed: int) -> Rep:
        start = time.perf_counter()
        try:
            scene = synth.make_scene(SceneSpec(geometry="slant", slant=20.0, width=128,
                                               height=96, channels=3, seed=seed))
            report = optimize.gradcheck(
                scene, self.weights, n_samples=self.n_depth, seed=seed,
                terms=("photo", "smooth", "rep"), supervised="rep", num_scales=1,
            )
        except LossKitError:
            return Rep(start, time.perf_counter(), 1, 1)
        end = time.perf_counter()
        output = (report.n_checked, report.n_passed, report.max_rel_err,
                  tuple(report.failures))
        return Rep(start, end, 1, 0, output=output, quality={
            "grad_pass_frac": report.n_passed / report.n_checked,
            "grad_max_rel_err": report.max_rel_err,
        })

    def check(self, root: Path, work: Path, seed: int, reps: list[Rep]) -> list[str]:
        # The gate is on what holds at every seed: each depth probe passes.
        # Pose probes do fail at this tolerance (see README.md); their count
        # is reported as grad_pass_frac, not gated.
        problems = []
        ok = [r for r in reps if not r.failed]
        for r in ok:
            n_checked, n_passed, max_rel, failures = r.output
            if n_checked != self.n_depth + 12:
                problems.append(f"gradcheck checked {n_checked} probes")
            if not math.isfinite(max_rel):
                problems.append("gradcheck relative error is not finite")
            depth_fails = [f for f in failures if f[0] == "depth"]
            if depth_fails:
                problems.append(f"{len(depth_fails)} depth probes failed gradcheck")
        if len({r.output for r in ok}) > 1:
            problems.append("repetitions of one seed gave different gradcheck reports")
        return problems

    def expected_calls(self, root: Path, seed: int, tracer: Tracer, n: int) -> dict:
        probes = self.n_depth + 12
        ctx = tracer.counters["contexts"] / n
        per = lambda name, parent=None: tracer.calls(name, parent) / n  # noqa: E731
        grads = per("warp.sample_bilinear_grad", "losses.total_loss_grad")
        return {
            "optimize.gradcheck": (per("optimize.gradcheck"), 1, 1),
            "losses.total_loss": (per("losses.total_loss"), 2 * probes, 2 * probes),
            "losses.total_loss_grad": (per("losses.total_loss_grad"), 1, 1),
            "geometry.warp_chain in forward": (
                per("geometry.warp_chain", "losses.total_loss"), 2 * probes * ctx,
                2 * probes * ctx),
            "geometry.warp_chain in objective":
                (per("geometry.warp_chain", "losses.total_loss_grad"), ctx, ctx),
            "warp.sample_bilinear in objective":
                (per("warp.sample_bilinear", "losses.total_loss_grad"), ctx, ctx),
            "warp.sample_bilinear_grad in objective": (grads, 1, ctx),
            "warp.sample_bilinear_grad in forward":
                (per("warp.sample_bilinear_grad", "losses.total_loss"), 0, 0),
            "geometry.projection_jacobian in objective": (
                per("geometry.projection_jacobian", "losses.total_loss_grad"),
                grads + 2 * ctx, grads + 2 * ctx),
            "synth.make_scene": (per("synth.make_scene"), 1, 1),
            "losses.unwarped_min_photometric":
                (per("losses.unwarped_min_photometric"), 1, 1),
            "optimize.run": (per("optimize.run"), 0, 0),
            "optimize.step": (per("optimize.step"), 0, 0),
        }


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("example_cli", EXAMPLE_CONFIG, golden=GOLDEN),
        CliWorkload("hires_pyramid", HIRES_CONFIG),
        GradcheckWorkload(),
    )
}
