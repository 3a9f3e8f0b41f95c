import numpy as np
import pytest

from sfm_losskit.errors import ConfigError
from sfm_losskit.supervision import (
    SparseDepth,
    decimate,
    synth_lidar,
)


def beam_pattern(num_beams=64, px_per_beam=10, h=None, w=128):
    """Synthetic dense-depth field sampled into a beam pattern."""
    h = h or (num_beams + 40)
    rng = np.random.default_rng(0)
    gt = rng.uniform(2, 30, (h, w))
    return synth_lidar(gt, num_beams, px_per_beam, seed=1)


class TestSparseDepth:
    def test_invariants_enforced(self):
        depth = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            SparseDepth(depth=depth, beam_id=np.array([[-1, -1]]), num_beams=4)
        with pytest.raises(ValueError):
            SparseDepth(depth=depth, beam_id=np.array([[9, -1]]), num_beams=4)
        ok = SparseDepth(depth=depth, beam_id=np.array([[2, -1]]), num_beams=4)
        assert ok.n_labels == 1


class TestDecimate:
    def test_keep_all_is_identity(self):
        labels = beam_pattern()
        out = decimate(labels, 64)
        assert (out.depth == labels.depth).all()
        assert (out.beam_id == labels.beam_id).all()
        assert out.num_beams == labels.num_beams

    def test_keep_half_keeps_every_second_beam(self):
        labels = beam_pattern()
        out = decimate(labels, 32)
        kept = np.unique(out.beam_id[out.beam_id >= 0])
        assert (kept % 2 == 0).all()
        assert len(kept) == 32
        assert out.num_beams == 64

    def test_four_beam_count_bound(self):
        labels = beam_pattern(num_beams=64, px_per_beam=10)
        out = decimate(labels, 4)
        assert out.n_labels <= 40
        kept = np.unique(out.beam_id[out.beam_id >= 0])
        assert len(kept) == 4

    def test_composition_equals_smaller_keep(self):
        labels = beam_pattern()
        twice = decimate(decimate(labels, 32), 8)
        once = decimate(labels, 8)
        assert (twice.depth == once.depth).all()
        assert (twice.beam_id == once.beam_id).all()

    def test_counts_nonincreasing_in_stride(self):
        labels = beam_pattern()
        counts = [decimate(labels, k).n_labels for k in (64, 32, 16, 8, 4)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_invalid_specs_rejected(self):
        labels = beam_pattern()
        with pytest.raises(ConfigError, match="must divide"):
            decimate(labels, 3)
        with pytest.raises(ConfigError, match="must divide"):
            decimate(labels, 0)
        with pytest.raises(ConfigError, match="power of two"):
            decimate(beam_pattern(num_beams=12), 4)


class TestSynthLidar:
    def test_beam_count_matches_rows(self):
        gt = np.full((64, 80), 7.0)
        labels = synth_lidar(gt, num_beams=4, px_per_beam=10)
        rows = np.unique(np.nonzero(labels.depth > 0)[0])
        assert len(rows) == 4

    def test_column_stride_of_width_gives_one_label_per_beam(self):
        gt = np.full((64, 80), 7.0)
        labels = synth_lidar(gt, num_beams=4, px_per_beam=1)
        assert labels.n_labels == 4

    def test_counts_decrease_under_decimation(self):
        gt = np.full((110, 128), 9.0)
        labels = synth_lidar(gt, num_beams=64, px_per_beam=12)
        counts = [decimate(labels, k).n_labels for k in (64, 32, 16, 8, 4)]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize(
        "h, num_beams, top_row, row_spacing",
        [(40, 4, 13, 8), (96, 64, 32, 1), (192, 64, 64, 2), (33, 1, 11, 21), (20, 13, 6, 1)],
    )
    def test_beam_b_sits_on_its_row(self, h, num_beams, top_row, row_spacing):
        # top_row = h // 3 and row_spacing =
        # max(1, (h - 1 - top_row) // max(num_beams - 1, 1)), worked out by hand
        labels = synth_lidar(np.full((h, 16), 5.0), num_beams, px_per_beam=16)
        for b in range(num_beams):
            rows, cols = np.nonzero(labels.beam_id == b)
            assert (rows == top_row + b * row_spacing).all()
            assert len(cols) == 16
        assert labels.n_labels == 16 * num_beams

    def test_beams_in_lower_region_by_default(self):
        gt = np.full((90, 60), 3.0)
        labels = synth_lidar(gt, num_beams=8, px_per_beam=6)
        rows = np.nonzero(labels.depth > 0)[0]
        assert rows.min() >= 30

    def test_deterministic_given_seed(self):
        gt = np.full((64, 80), 7.0)
        a = synth_lidar(gt, 8, 10, seed=5)
        b = synth_lidar(gt, 8, 10, seed=5)
        assert (a.depth == b.depth).all()
        assert (a.beam_id == b.beam_id).all()

    def test_geometry_must_fit(self):
        gt = np.full((20, 30), 2.0)
        with pytest.raises(ConfigError):
            synth_lidar(gt, num_beams=30, px_per_beam=3)

    @pytest.mark.parametrize("px_per_beam", [16, 0])
    def test_zero_beams_give_no_labels(self, px_per_beam):
        # px_per_beam is not read without beams: 16 exceeds this width, 0 is none
        labels = synth_lidar(np.full((8, 8), 4.0), num_beams=0, px_per_beam=px_per_beam)
        assert labels.num_beams == 0
        assert labels.n_labels == 0
        assert (labels.beam_id == -1).all()

    def test_negative_beam_count_rejected(self):
        with pytest.raises(ConfigError, match="num_beams must be >= 0"):
            synth_lidar(np.full((8, 8), 4.0), num_beams=-1, px_per_beam=4)
