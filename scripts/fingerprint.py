#!/usr/bin/env python3
"""One SHA-256 over the numbers the package produces, for refactors.

A change that claims to keep every output prints the same digest as its
parent. The digest covers, in this order:

* the scene directory that `synth` writes for `configs/example_plane.cfg`,
  `perfbench/hires_pyramid.cfg` and `configs/example_plane.cfg` at
  `--scene.channels=3` (seed 1): each file's name and bytes (manifest, PPM
  images, PFM depth and labels), in name order;
* the `loss_history.csv` and `metrics.csv` that `optimize` writes from that
  scene under each supervised loss (rep, l1, berhu);
* `optimize.gradcheck` reports on a 3-channel 128x96 slant (seeds 1 and 2,
  48 depth probes, all terms), and under l1 and berhu at seed 1, and on the
  64x48 two-plane scene below at 2 and 3 scales (all terms, rep), where one
  probed depth pixel moves a whole block of each coarser level;
* `total_loss_grad` breakdowns and the bytes of both gradients, and the
  `min_photometric` maps, on a 64x48 two-plane scene at 1, 2 and 3 scales
  under each supervised loss;
* one more `total_loss_grad` on that scene under rep, with a context pose
  that puts some labels behind its camera;
* the `total_loss_grad` breakdowns and gradient bytes of the same scene in
  3 channels under rep, at 1, 2 and 3 scales;
* the example scene with its PPM images rewritten at maxval 255 (1 byte per
  sample, as other tools write them; rounded here with numpy alone): the
  rewritten files' bytes, and the `loss_history.csv` and `metrics.csv` that
  `optimize` writes from that scene under rep;
* the in-memory `make_scene` outputs of a 128x96 plane, 20-degree slant and
  two-plane scene (seed 1), each at 1 and 3 channels: the target, the
  ground-truth depth, each context image and pose parameters, the label
  depth and beam ids, and each context's `occluded` mask, unquantized;
* the labels of a 24x16 scene without beams (`scene.beams=0`): depth, beam
  ids and beam count;
* the image, depth and hit-plane index that `synth._render` draws of those
  six scenes from two rotated and translated poses.

The last stdout line is that one digest. Each section (cli, gradcheck,
objective, 8-bit, scene, render) also prints its own digest on stderr, so
a change that moves bits names the section it moved. BLAS and OpenMP are
pinned to one thread, as in the benchmark. Takes about 10 s.

    python3 scripts/fingerprint.py
    make fingerprint
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from sfm_losskit import cli, losses, optimize, synth  # noqa: E402
from sfm_losskit.geometry import PoseSE3  # noqa: E402

# (config, flags given to both synth and optimize)
RUNS = (
    ("configs/example_plane.cfg", ()),
    ("perfbench/hires_pyramid.cfg", ()),
    ("configs/example_plane.cfg", ("--scene.channels=3",)),
)


def _cli(argv: list[str], what: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*argv, "--scene.seed=1", "--optimizer.seed=1"])
    if rc:
        raise SystemExit(f"fingerprint: {what} exited {rc}")


def cli_outputs(digest, tmp: Path) -> None:
    for i, (config, flags) in enumerate(RUNS):
        cfg = str(REPO / config)
        scene_dir, report_dir = tmp / f"scene{i}", tmp / "report"
        _cli(["synth", "--config", cfg, "--out", str(scene_dir), *flags],
             f"synth of {config}")
        for path in sorted(scene_dir.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        for loss in losses.SUPERVISED:
            _cli(["optimize", str(scene_dir), "--config", cfg, "--out", str(report_dir),
                  f"--optimizer.supervised_loss={loss}", *flags], f"{config} under {loss}")
            for name in ("loss_history.csv", "metrics.csv"):
                digest.update((report_dir / name).read_bytes())


def _to_8bit(path: Path) -> None:
    """Rewrite a 16-bit binary PPM (as `synth` writes it) at maxval 255,
    each sample rounded to the nearest level, halves up."""
    magic, size, maxval, payload = path.read_bytes().split(b"\n", 3)
    if (magic, maxval) != (b"P6", b"65535"):
        raise SystemExit(f"fingerprint: {path} is not a 16-bit binary PPM")
    levels = np.frombuffer(payload, dtype=">u2").astype(np.int64)
    path.write_bytes(b"P6\n" + size + b"\n255\n"
                     + ((levels * 255 + 32767) // 65535).astype("u1").tobytes())


def eight_bit_outputs(digest, tmp: Path) -> None:
    cfg = str(REPO / RUNS[0][0])
    scene_dir, report_dir = tmp / "scene8", tmp / "report8"
    _cli(["synth", "--config", cfg, "--out", str(scene_dir)], "synth of the 8-bit scene")
    for path in sorted(scene_dir.glob("*.ppm")):
        _to_8bit(path)
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    _cli(["optimize", str(scene_dir), "--config", cfg, "--out", str(report_dir)],
         "optimize of the 8-bit scene")
    for name in ("loss_history.csv", "metrics.csv"):
        digest.update((report_dir / name).read_bytes())


def gradcheck_reports(digest) -> None:
    weights = losses.LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1.0)
    for seed in (1, 2):
        scene = synth.make_scene(synth.SceneSpec(geometry="slant", slant=20.0, width=128,
                                                 height=96, channels=3, seed=seed))
        report = optimize.gradcheck(scene, weights, n_samples=48, seed=seed)
        digest.update(repr(report).encode())
        for loss in losses.SUPERVISED[1:] if seed == 1 else ():
            report = optimize.gradcheck(scene, weights, n_samples=48, seed=seed,
                                        supervised=loss)
            digest.update(repr(report).encode())
    scene = _perturbed(1)[0]
    for num_scales in (2, 3):
        report = optimize.gradcheck(scene, weights, n_samples=48, seed=3, num_scales=num_scales)
        digest.update(repr(report).encode())


def _perturbed(channels: int):
    """A 64x48 two-plane scene, a depth off its ground truth and context
    poses off theirs."""
    scene = synth.make_scene(synth.SceneSpec(geometry="two_plane", width=64, height=48,
                                             channels=channels, beams=16, px_per_beam=16,
                                             seed=3))
    rng = np.random.default_rng(3)
    depth = scene.gt_depth * np.exp(rng.normal(0.0, 0.05, scene.gt_depth.shape))
    context = [(img, PoseSE3.from_params(pose.as_params() + rng.normal(0.0, 0.01, 6)))
               for img, pose in scene.contexts]
    return scene, depth, context


def objective_outputs(digest) -> None:
    scene, depth, context = _perturbed(1)
    weights = losses.LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1.0)
    k = scene.intrinsics
    for num_scales in (1, 2, 3):
        for loss in losses.SUPERVISED:
            breakdown, d_depth, d_poses = losses.total_loss_grad(
                losses.Objective(scene.target, [img for img, _ in context], k, weights,
                                 labels=scene.labels.depth, num_scales=num_scales,
                                 supervised=loss),
                [pose for _, pose in context], depth,
            )
            digest.update(repr(breakdown).encode())
            digest.update(d_depth.tobytes())
            digest.update(d_poses.tobytes())
    min_map, argmin = losses.min_photometric(
        losses.Objective(scene.target, [img for img, _ in context], k, weights,
                         terms=("photo",)),
        [pose for _, pose in context], depth,
    )
    digest.update(min_map.tobytes())
    digest.update(argmin.tobytes())
    # a pose backed up past the nearest labels drops them behind its camera
    labeled = scene.labels.depth[scene.labels.depth > 0]
    behind = PoseSE3(translation=(0.1, 0.0, -(labeled.min() + labeled.max()) / 2))
    breakdown, d_depth, d_poses = losses.total_loss_grad(
        losses.Objective(scene.target, [img for img, _ in context], k, weights,
                         labels=scene.labels.depth),
        [context[0][1], behind], depth,
    )
    if breakdown.rep_dropped_behind == 0:
        raise SystemExit("fingerprint: the backed-up pose dropped no label")
    digest.update(repr(breakdown).encode())
    digest.update(d_depth.tobytes())
    digest.update(d_poses.tobytes())
    scene, depth, context = _perturbed(3)
    for num_scales in (1, 2, 3):
        breakdown, d_depth, d_poses = losses.total_loss_grad(
            losses.Objective(scene.target, [img for img, _ in context], scene.intrinsics,
                             weights, labels=scene.labels.depth, num_scales=num_scales),
            [pose for _, pose in context], depth,
        )
        digest.update(repr(breakdown).encode())
        digest.update(d_depth.tobytes())
        digest.update(d_poses.tobytes())


def scene_outputs(digest) -> None:
    for geometry, slant in (("plane", 0.0), ("slant", 20.0), ("two_plane", 0.0)):
        for channels in (1, 3):
            scene = synth.make_scene(synth.SceneSpec(geometry=geometry, slant=slant,
                                                     channels=channels, seed=1))
            arrays = [scene.target, scene.gt_depth]
            for img, pose in scene.contexts:
                arrays += [img, pose.as_params()]
            arrays += [scene.labels.depth, scene.labels.beam_id, *scene.occluded]
            for a in arrays:
                digest.update(np.ascontiguousarray(a).tobytes())
    labels = synth.make_scene(synth.SceneSpec(width=24, height=16, beams=0)).labels
    digest.update(labels.depth.tobytes())
    digest.update(labels.beam_id.tobytes())
    digest.update(repr(labels.num_beams).encode())


# poses (target -> view) that rotate about every axis and translate along it
RENDER_POSES = (
    PoseSE3(rotation=(0.02, -0.03, 0.01), translation=(0.3, -0.1, 0.2)),
    PoseSE3(rotation=(-0.015, 0.025, -0.02), translation=(-0.4, 0.05, -0.3)),
)


def render_outputs(digest) -> None:
    for geometry, slant in (("plane", 0.0), ("slant", 20.0), ("two_plane", 0.0)):
        for channels in (1, 3):
            spec = synth.SceneSpec(geometry=geometry, slant=slant, channels=channels, seed=1)
            k = spec.intrinsics()
            planes = synth._build_geometry(spec, k)
            for pose in RENDER_POSES:
                for a in synth._render(planes, pose, k, channels):
                    digest.update(a.tobytes())


class _Section:
    """Feeds the overall digest and this section's own."""

    def __init__(self, overall):
        self.overall, self.own = overall, hashlib.sha256()

    def update(self, data) -> None:
        self.overall.update(data)
        self.own.update(data)


def main() -> int:
    overall = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        sections = (
            ("cli", cli_outputs, Path(tmp)),
            ("gradcheck", gradcheck_reports),
            ("objective", objective_outputs),
            ("8-bit", eight_bit_outputs, Path(tmp)),
            ("scene", scene_outputs),
            ("render", render_outputs),
        )
        for name, outputs, *args in sections:
            section = _Section(overall)
            outputs(section, *args)
            print(f"{name} {section.own.hexdigest()}", file=sys.stderr)
    print(overall.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
