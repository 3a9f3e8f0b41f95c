"""Standard depth-evaluation metrics (abs rel, sq rel, RMSE, deltas) over
the fixed street-scene range of 0.1-80 m."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, NoSupervisionError

CSV_HEADER = "abs_rel,sq_rel,rmse,rmse_log,delta1,delta2,delta3,n_pixels,scale"

# De-facto evaluation clamp range for street scenes
MIN_DEPTH = 0.1
MAX_DEPTH = 80.0


@dataclass(frozen=True)
class DepthMetrics:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float
    n_pixels: int
    scale: float = 1.0

    def __post_init__(self):
        vals = [getattr(self, f.name) for f in fields(self)]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"metrics must be finite, got {vals}")
        if not self.delta1 <= self.delta2 <= self.delta3:
            raise ValueError("delta thresholds must be nondecreasing")

    def csv_row(self) -> str:
        return ",".join(
            [
                repr(float(self.abs_rel)),
                repr(float(self.sq_rel)),
                repr(float(self.rmse)),
                repr(float(self.rmse_log)),
                repr(float(self.delta1)),
                repr(float(self.delta2)),
                repr(float(self.delta3)),
                str(self.n_pixels),
                repr(float(self.scale)),
            ]
        )


def evaluate(
    pred: np.ndarray,
    gt_depth: np.ndarray,
    use_median_scaling: bool = False,
) -> DepthMetrics:
    """Compare a predicted depth map against a ground-truth raster of the
    same (H, W) shape, in which 0 marks a pixel without a label.

    Ground-truth pixels outside [MIN_DEPTH, MAX_DEPTH] are excluded;
    predictions are clamped into that range before comparison. With median
    scaling enabled the prediction is first rescaled by median(gt)/median(pred)
    over the selected pixels.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    if pred.shape != gt_depth.shape:
        raise DimensionError(f"pred {pred.shape} does not match gt {gt_depth.shape}")
    select = (gt_depth >= MIN_DEPTH) & (gt_depth <= MAX_DEPTH) & (pred > 0)
    if not select.any():
        raise NoSupervisionError("no overlapping pixel in the evaluation range")

    g = gt_depth[select]
    p = pred[select]
    scale = 1.0
    if use_median_scaling:
        med_p = float(np.median(p))
        if med_p <= 0:
            raise NoSupervisionError("non-positive median prediction")
        scale = float(np.median(g)) / med_p
        p = p * scale
    p = np.clip(p, MIN_DEPTH, MAX_DEPTH)

    ratio = np.maximum(g / p, p / g)
    diff = p - g
    return DepthMetrics(
        abs_rel=float(np.mean(np.abs(diff) / g)),
        sq_rel=float(np.mean(diff * diff / g)),
        rmse=float(np.sqrt(np.mean(diff * diff))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25**2)),
        delta3=float(np.mean(ratio < 1.25**3)),
        n_pixels=int(select.sum()),
        scale=scale,
    )
