"""Command-line entry point.

Commands: synth, optimize, gradcheck, decimate, eval. Every command is a
thin deterministic wrapper over a module operation; given identical inputs
and seeds the outputs are byte-identical. Config keys can be overridden on
the command line as ``--section.key=value`` (CLI > config file > defaults).

Exit codes: 0 success, 1 validation error (bad config, arguments or
files), 2 numerical failure (divergence, degenerate mask, missing
supervision, or a failed gradient check). Errors print one machine-parseable
line on stderr: ``sfm-losskit: error: <Kind>: <message>``; an argument error
(unknown command or flag, missing or malformed value) is a ConfigError.
Flags match only when spelled in full.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io_codecs, metrics, optimize, supervision, synth
from .config import load_config
from .errors import ConfigError, CodecError, LossKitError
from .losses import TERMS

_VALIDATION_ERRORS = (ConfigError, CodecError, OSError)


class _Parser(argparse.ArgumentParser):
    """Takes no flag abbreviation and raises ConfigError on a bad argument,
    where argparse would print its usage and exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _split_overrides(extras: list[str]) -> dict[str, str]:
    """``--section.key=value`` arguments as {section.key: value}. The key
    must be dotted, so ``--h=1e-3`` is an unrecognized argument, as
    ``--h 1e-3`` is, and given once."""
    overrides = {}
    for item in extras:
        key, eq, value = item[2:].partition("=")
        if not (item.startswith("--") and eq and "." in key):
            raise ConfigError(
                f"unrecognized argument {item!r} (expected --section.key=value)"
            )
        if key in overrides:
            raise ConfigError(f"repeated config key --{key}")
        overrides[key] = value
    return overrides


def cmd_synth(args, overrides) -> int:
    cfg = load_config(args.config, overrides)
    cfg.require("scene.seed")
    scene = synth.make_scene(cfg.scene)
    io_codecs.write_scene_dir(args.out, scene)
    print(f"synth: wrote scene ({cfg.scene.geometry}, {cfg.scene.width}x"
          f"{cfg.scene.height}, {len(scene.contexts)} contexts, "
          f"{scene.labels.n_labels} labels) to {args.out}")
    return 0


def cmd_optimize(args, overrides) -> int:
    cfg = load_config(args.config, overrides)
    cfg.require("optimizer.seed")
    scene = io_codecs.read_scene_dir(args.scene_dir)
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
    terms = tuple(args.terms.split(",")) if args.terms else TERMS
    scene = synth.make_scene(cfg.scene)
    report = optimize.gradcheck(
        scene, cfg.optimizer.weights, seed=cfg.scene.seed, terms=terms,
        supervised=cfg.optimizer.supervised_loss,
        num_scales=cfg.optimizer.num_scales,
    )
    print(
        f"gradcheck seed={cfg.scene.seed} checked={report.n_checked} "
        f"passed={report.n_passed} max_rel={report.max_rel_err:.3e} "
        f"mean_rel={report.mean_rel_err:.3e} "
        f"result={'PASS' if report.passed else 'FAIL'}"
    )
    if not report.passed:
        print("sfm-losskit: error: GradCheckFailed: analytic/numeric mismatch",
              file=sys.stderr)
        return 2
    return 0


def cmd_decimate(args, overrides) -> int:
    if overrides:
        raise ConfigError("decimate takes no --section.key overrides")
    labels = io_codecs.read_labels_pfm(args.labels)
    out = supervision.decimate(labels, args.keep)
    io_codecs.write_labels_pfm(args.out, out)
    print(f"decimate: kept {out.n_labels} of {labels.n_labels} labels "
          f"({args.keep} of {labels.num_beams} beams)")
    return 0


def cmd_eval(args, overrides) -> int:
    if overrides:
        raise ConfigError("eval takes no --section.key overrides")
    pred = io_codecs.read_pfm(args.pred).astype(np.float64)
    gt = io_codecs.read_pfm(args.gt)
    gt = io_codecs.unpack_labels(args.gt, gt).depth if gt.ndim == 3 else gt.astype(np.float64)
    for path, raster in ((args.pred, pred), (args.gt, gt)):
        if not np.isfinite(raster).all():
            raise CodecError(f"{path}: depth raster holds a non-finite value")
    if (gt < 0).any():
        raise CodecError(f"{args.gt}: ground-truth depth holds a negative value")
    if not (pred > 0).all():
        raise CodecError(f"{args.pred}: predicted depth holds a non-positive value")
    if pred.shape != gt.shape:
        raise CodecError(f"{args.pred}: prediction shape {pred.shape} is not the "
                         f"single-channel ground-truth shape {gt.shape}")
    result = metrics.evaluate(pred, gt, use_median_scaling=args.median_scaling)
    lines = metrics.CSV_HEADER + "\n" + result.csv_row() + "\n"
    sys.stdout.write(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_gc.add_argument("--terms", default="", help="comma list of photo,smooth,rep")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_dec = sub.add_parser("decimate", help="keep equally spaced label beams")
    p_dec.add_argument("labels", help="input labels PFM")
    p_dec.add_argument("--keep", type=int, required=True, help="beams kept")
    p_dec.add_argument("--out", required=True)
    p_dec.set_defaults(func=cmd_decimate)

    p_eval = sub.add_parser("eval", help="depth metrics for a prediction")
    p_eval.add_argument("pred", help="prediction PFM")
    p_eval.add_argument("gt", help="labels PFM (1- or 3-channel)")
    p_eval.add_argument("--median-scaling", action="store_true")
    p_eval.add_argument("--out", default="")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
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
