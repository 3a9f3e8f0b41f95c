#!/usr/bin/env python3
"""Regenerate the golden loss-history CSV checked into tests/data.

Runs `synth` and `optimize` with the shipped example config into a temp
directory and copies the resulting loss_history.csv over the golden file.
Before overwriting, prints the largest absolute difference between the old
and the new golden values, so a re-bless shows how far the numerics moved.
Run via `make golden` after any intentional change to the numerics.
"""

import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from sfm_losskit import cli  # noqa: E402

CONFIG = REPO / "configs" / "example_plane.cfg"
GOLDEN = REPO / "tests" / "data" / "golden_loss_history.csv"


def max_abs_diff(old_path: Path, new_path: Path) -> float:
    """Largest absolute difference between two loss-history CSVs of the same
    shape (inf when the shapes differ)."""
    old = np.genfromtxt(old_path, delimiter=",", skip_header=1)
    new = np.genfromtxt(new_path, delimiter=",", skip_header=1)
    if old.shape != new.shape:
        return float("inf")
    return float(np.abs(new - old).max())


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scene_dir = Path(tmp) / "scene"
        report_dir = Path(tmp) / "report"
        rc = cli.main(["synth", "--config", str(CONFIG), "--out", str(scene_dir)])
        if rc:
            return rc
        rc = cli.main(
            ["optimize", str(scene_dir), "--config", str(CONFIG), "--out", str(report_dir)]
        )
        if rc:
            return rc
        fresh = report_dir / "loss_history.csv"
        if GOLDEN.is_file():
            print(f"max abs diff vs old golden: {max_abs_diff(GOLDEN, fresh):.3e}")
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(fresh, GOLDEN)
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
