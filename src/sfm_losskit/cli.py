"""Command-line entry point.

Commands: synth, optimize, gradcheck, decimate, eval. Every command is a
thin deterministic wrapper over a module operation; given identical inputs
and seeds the outputs are byte-identical. Config keys can be overridden on
the command line as ``--section.key=value`` (CLI > config file > defaults).

Exit codes: 0 success, 1 validation error (bad config/arguments/files),
2 numerical failure (divergence, degenerate mask, missing supervision, or a
failed gradient check). Errors print one machine-parseable line on stderr:
``sfm-losskit: error: <Kind>: <message>``.

The environment variable SFM_LOSSKIT_THREADS caps worker threads for the
finite-difference probes of gradcheck (0 = all cores, unset = 1).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import io_codecs, metrics, optimize, supervision, synth
from .config import load_config
from .errors import ConfigError, CodecError, LossKitError
from .losses import TERMS
from .supervision import DecimationSpec

_VALIDATION_ERRORS = (ConfigError, CodecError, FileNotFoundError, IsADirectoryError,
                      PermissionError, NotADirectoryError)


def _split_overrides(extras: list[str]) -> dict[str, str]:
    overrides = {}
    for item in extras:
        if not item.startswith("--") or "=" not in item:
            raise ConfigError(
                f"unrecognized argument {item!r} (expected --section.key=value)"
            )
        key, value = item[2:].split("=", 1)
        overrides[key] = value
    return overrides


def cmd_synth(args, overrides) -> int:
    cfg = load_config(args.config, overrides)
    cfg.require("scene.seed")
    scene = synth.make_scene(cfg.scene)
    io_codecs.write_scene_dir(args.out, scene, ppm_maxval=cfg.ppm_maxval)
    print(f"synth: wrote scene ({cfg.scene.geometry}, {cfg.scene.width}x"
          f"{cfg.scene.height}, {len(scene.contexts)} contexts, "
          f"{scene.labels.n_labels} labels) to {args.out}")
    return 0


def cmd_optimize(args, overrides) -> int:
    cfg = load_config(args.config, overrides)
    cfg.require("optimizer.seed")
    scene = io_codecs.read_scene_dir(args.scene_dir)
    if cfg.decimation is not None:
        scene.labels = supervision.decimate(scene.labels, cfg.decimation)
    import os

    os.makedirs(args.out, exist_ok=True)
    state, report = optimize.run(scene, cfg.optimizer, out_dir=args.out)
    print(
        f"optimize: iters A/B = {report.iters_a}/{report.iters_b}, "
        f"median ratio A = {report.median_ratio_a:.4f}, "
        f"B = {report.median_ratio_b:.4f}, abs_rel = {report.metrics_all.abs_rel:.4f}"
    )
    return 0


def cmd_gradcheck(args, overrides) -> int:
    cfg = load_config(args.config, overrides)
    cfg.require("scene.seed")
    if args.scenes < 1:
        raise ConfigError(f"--scenes must be at least 1, got {args.scenes}")
    terms = tuple(args.terms.split(",")) if args.terms else TERMS
    weights = cfg.optimizer.weights
    all_passed = True
    for i in range(args.scenes):
        spec = replace(cfg.scene, seed=cfg.scene.seed + i)
        scene = synth.make_scene(spec)
        report = optimize.gradcheck(
            scene, weights, n_samples=args.n_samples, h=args.h, tol=args.tol,
            seed=cfg.scene.seed + i, terms=terms,
            supervised=cfg.optimizer.supervised_loss,
            num_scales=cfg.optimizer.num_scales,
        )
        all_passed &= report.passed
        print(
            f"gradcheck scene={i} seed={spec.seed} checked={report.n_checked} "
            f"passed={report.n_passed} max_rel={report.max_rel_err:.3e} "
            f"mean_rel={report.mean_rel_err:.3e} "
            f"result={'PASS' if report.passed else 'FAIL'}"
        )
    if not all_passed:
        print("sfm-losskit: error: GradCheckFailed: analytic/numeric mismatch",
              file=sys.stderr)
        return 2
    return 0


def cmd_decimate(args, overrides) -> int:
    if overrides:
        raise ConfigError("decimate takes no --section.key overrides")
    labels = io_codecs.read_labels_pfm(args.labels)
    spec = DecimationSpec(keep_beams=args.keep, offset=args.offset)
    out = supervision.decimate(labels, spec)
    io_codecs.write_labels_pfm(args.out, out)
    print(f"decimate: kept {out.n_labels} of {labels.n_labels} labels "
          f"({args.keep} of {labels.num_beams} beams, offset {args.offset})")
    return 0


def cmd_eval(args, overrides) -> int:
    if overrides:
        raise ConfigError("eval takes no --section.key overrides")
    pred = io_codecs.read_pfm(args.pred).astype(np.float64)
    if pred.ndim != 2:
        raise CodecError(f"{args.pred}: prediction PFM must be single channel")
    gt_raw = io_codecs.read_pfm(args.gt)
    if gt_raw.ndim == 3:
        gt = io_codecs.read_labels_pfm(args.gt)
    else:
        depth = gt_raw.astype(np.float64)
        gt = supervision.SparseDepth(
            depth=depth,
            beam_id=np.where(depth > 0, 0, -1),
            num_beams=1,
        )
    result = metrics.evaluate(
        pred, gt, min_depth=args.min_depth, max_depth=args.max_depth,
        use_median_scaling=args.median_scaling,
    )
    lines = metrics.CSV_HEADER + "\n" + result.csv_row() + "\n"
    sys.stdout.write(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfm-losskit",
        description="Structure-from-motion loss engine and synthetic-scene harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene directory")
    p_synth.add_argument("--config", required=True, help="run config (key=value)")
    p_synth.add_argument("--out", required=True, help="output scene directory")
    p_synth.set_defaults(func=cmd_synth)

    p_opt = sub.add_parser("optimize", help="two-phase depth/pose optimization")
    p_opt.add_argument("scene_dir", help="scene directory from `synth`")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--out", required=True, help="report directory")
    p_opt.set_defaults(func=cmd_optimize)

    p_gc = sub.add_parser("gradcheck", help="verify analytic gradients")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--scenes", type=int, default=1)
    p_gc.add_argument("--n-samples", type=int, default=24)
    p_gc.add_argument("--h", type=float, default=1e-5)
    p_gc.add_argument("--tol", type=float, default=1e-4)
    p_gc.add_argument("--terms", default="", help="comma list of photo,smooth,rep")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_dec = sub.add_parser("decimate", help="keep a subset of label beams")
    p_dec.add_argument("labels", help="input labels PFM")
    p_dec.add_argument("--keep", type=int, required=True)
    p_dec.add_argument("--offset", type=int, default=0)
    p_dec.add_argument("--out", required=True)
    p_dec.set_defaults(func=cmd_decimate)

    p_eval = sub.add_parser("eval", help="depth metrics for a prediction")
    p_eval.add_argument("pred", help="prediction PFM")
    p_eval.add_argument("gt", help="labels PFM (1- or 3-channel)")
    p_eval.add_argument("--min-depth", type=float, default=0.1)
    p_eval.add_argument("--max-depth", type=float, default=80.0)
    p_eval.add_argument("--median-scaling", action="store_true")
    p_eval.add_argument("--out", default="")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        overrides = _split_overrides(extras)
        return args.func(args, overrides)
    except _VALIDATION_ERRORS as exc:
        print(f"sfm-losskit: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except LossKitError as exc:
        print(f"sfm-losskit: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
