"""Sparse depth-label handling: beam structure and decimation.

Labels mimic a rotating range sensor: each beam occupies one raster row in
the lower image region, with a configurable number of samples per row.
Beams are discrete row groups rather than 3-D elevation rings; that keeps
the decimation combinatorics intact while staying camera-frame native.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError


@dataclass
class SparseDepth:
    """Sparse labels: depth raster (0 = no label), per-pixel beam id
    (-1 = no beam) and the nominal beam count of the generating sensor."""

    depth: np.ndarray
    beam_id: np.ndarray
    num_beams: int

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float64)
        self.beam_id = np.asarray(self.beam_id, dtype=np.int64)
        if self.depth.shape != self.beam_id.shape:
            raise DimensionError(
                f"depth {self.depth.shape} and beam_id {self.beam_id.shape} differ"
            )
        labeled = self.depth > 0
        if not ((self.beam_id >= 0) == labeled).all():
            raise ValueError("beam_id must be >= 0 exactly where depth > 0")
        if labeled.any() and int(self.beam_id.max()) >= self.num_beams:
            raise ValueError("beam_id must be < num_beams")

    @property
    def n_labels(self) -> int:
        return int((self.depth > 0).sum())


def decimate(labels: SparseDepth, keep_beams: int) -> SparseDepth:
    """Keep ``keep_beams`` equally spaced beams, the top one included: the
    labels whose beam id is a multiple of the beam stride num_beams //
    keep_beams; everything else is zeroed. num_beams is unchanged."""
    num_beams = labels.num_beams
    if keep_beams < 1 or num_beams % keep_beams:
        raise ConfigError(f"keep_beams={keep_beams} must divide num_beams={num_beams}")
    stride = num_beams // keep_beams
    if stride & (stride - 1):
        raise ConfigError(f"num_beams/keep_beams={stride} must be a power of two")
    keep = (labels.beam_id >= 0) & (labels.beam_id % stride == 0)
    return SparseDepth(
        depth=np.where(keep, labels.depth, 0.0),
        beam_id=np.where(keep, labels.beam_id, -1),
        num_beams=num_beams,
    )


def synth_lidar(
    gt_depth: np.ndarray,
    num_beams: int,
    px_per_beam: int,
    seed: int = 0,
) -> SparseDepth:
    """Sample ground-truth depth on a synthetic beam pattern.

    Beam b lands on raster row h // 3 + b * row_spacing, with row_spacing
    = max(1, (h - 1 - h // 3) // max(num_beams - 1, 1)), and samples
    px_per_beam evenly spaced columns (phase drawn from the seed, per beam).
    Beams cover only the lower two thirds of the image, mimicking where a
    forward-facing range sensor actually intersects the camera view.
    """
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    h, w = gt_depth.shape
    if num_beams < 1:
        raise ConfigError(f"num_beams must be >= 1, got {num_beams}")
    if not 1 <= px_per_beam <= w:
        raise ConfigError(f"px_per_beam must be in [1, {w}], got {px_per_beam}")
    top_row = h // 3
    row_spacing = max(1, (h - 1 - top_row) // max(num_beams - 1, 1))
    if top_row + (num_beams - 1) * row_spacing > h - 1:
        raise ConfigError(
            f"{num_beams} beams at spacing {row_spacing} from row {top_row} "
            f"do not fit image height {h}"
        )

    rng = np.random.default_rng(seed)
    col_stride = w // px_per_beam
    depth = np.zeros((h, w))
    beam_id = np.full((h, w), -1, dtype=np.int64)
    for b in range(num_beams):
        row = top_row + b * row_spacing
        phase = int(rng.integers(0, col_stride))
        cols = phase + col_stride * np.arange(px_per_beam)
        cols = cols[cols < w]
        good = gt_depth[row, cols] > 0
        cols = cols[good]
        depth[row, cols] = gt_depth[row, cols]
        beam_id[row, cols] = b
    return SparseDepth(depth=depth, beam_id=beam_id, num_beams=num_beams)


def random_labels(gt_depth: np.ndarray, fraction: float, seed: int = 0) -> SparseDepth:
    """Label a random pixel subset (single-beam structure); handy for
    experiments phrased as 'x% labeled pixels' rather than beam counts."""
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    if not 0 < fraction <= 1:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    h, w = gt_depth.shape
    n = max(1, int(round(fraction * h * w)))
    rng = np.random.default_rng(seed)
    flat = rng.choice(h * w, size=n, replace=False)
    mask = np.zeros(h * w, dtype=bool)
    mask[flat] = True
    mask = mask.reshape(h, w) & (gt_depth > 0)
    depth = np.where(mask, gt_depth, 0.0)
    beam_id = np.where(mask, 0, -1)
    return SparseDepth(depth=depth, beam_id=beam_id, num_beams=1)
