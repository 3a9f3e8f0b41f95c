import numpy as np
import pytest

from sfm_losskit.errors import NoSupervisionError
from sfm_losskit.metrics import CSV_HEADER, DepthMetrics, evaluate


def brute_force_metrics(pred, gt, min_depth=0.1, max_depth=80.0, median=False):
    """Independent oracle: naive python loops, no numpy reductions."""
    import math

    h, w = gt.shape
    pairs = []
    for i in range(h):
        for j in range(w):
            g = gt[i, j]
            p = pred[i, j]
            if g > 0 and min_depth <= g <= max_depth and p > 0:
                pairs.append((g, p))
    if not pairs:
        raise ValueError("empty overlap")
    scale = 1.0
    if median:
        gs = sorted(g for g, _ in pairs)
        ps = sorted(p for _, p in pairs)

        def med(vals):
            n = len(vals)
            mid = n // 2
            return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])

        scale = med(gs) / med(ps)
    abs_rel = sq_rel = se = se_log = 0.0
    d1 = d2 = d3 = 0
    for g, p in pairs:
        p = min(max(p * scale, min_depth), max_depth)
        abs_rel += abs(p - g) / g
        sq_rel += (p - g) ** 2 / g
        se += (p - g) ** 2
        se_log += (math.log(p) - math.log(g)) ** 2
        r = max(g / p, p / g)
        d1 += r < 1.25
        d2 += r < 1.25**2
        d3 += r < 1.25**3
    n = len(pairs)
    return (
        abs_rel / n,
        sq_rel / n,
        math.sqrt(se / n),
        math.sqrt(se_log / n),
        d1 / n,
        d2 / n,
        d3 / n,
        n,
        scale,
    )


def random_pair(rng, h=10, w=14):
    gt = rng.uniform(1.0, 60.0, (h, w))
    gt[rng.uniform(size=(h, w)) < 0.3] = 0.0
    pred = rng.uniform(0.5, 70.0, (h, w))
    return pred, gt


class TestEvaluate:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        pred, gt = random_pair(rng)
        m = evaluate(np.where(gt > 0, gt, 5.0), gt)
        assert m.abs_rel == 0 and m.sq_rel == 0 and m.rmse == 0 and m.rmse_log == 0
        assert m.delta1 == m.delta2 == m.delta3 == 1.0

    def test_double_prediction_hand_derived_deltas(self):
        gt = np.full((6, 6), 10.0)
        m = evaluate(2.0 * gt, gt)
        # ratio 2: 1.25^3 = 1.953125 < 2, so even delta3 fails
        assert m.abs_rel == pytest.approx(1.0)
        assert m.delta1 == 0.0
        assert m.delta2 == 0.0
        assert m.delta3 == 0.0

    def test_double_prediction_with_median_scaling_is_exact(self):
        rng = np.random.default_rng(1)
        gt = rng.uniform(1, 50, (8, 8))
        m = evaluate(2.0 * gt, gt, use_median_scaling=True)
        assert m.abs_rel == pytest.approx(0.0, abs=1e-12)
        assert m.rmse == pytest.approx(0.0, abs=1e-10)
        assert m.scale == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            pred, gt = random_pair(rng)
            median = trial % 2 == 0
            m = evaluate(pred, gt, use_median_scaling=median)
            oracle = brute_force_metrics(pred, gt, median=median)
            ours = (
                m.abs_rel, m.sq_rel, m.rmse, m.rmse_log,
                m.delta1, m.delta2, m.delta3, m.n_pixels, m.scale,
            )
            for a, b in zip(ours, oracle):
                assert a == pytest.approx(b, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pred, gt = random_pair(rng)
        perm = rng.permutation(pred.size)
        pred2 = pred.reshape(-1)[perm].reshape(pred.shape)
        gt2 = gt.reshape(-1)[perm].reshape(pred.shape)
        a = evaluate(pred, gt)
        b = evaluate(pred2, gt2)
        for field in ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2",
                      "delta3", "n_pixels", "scale"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12)

    def test_median_scaling_neutralizes_global_scale(self):
        rng = np.random.default_rng(4)
        pred, gt = random_pair(rng)
        base = evaluate(pred, gt, use_median_scaling=True)
        for s in (0.25, 3.0, 17.0):
            scaled = evaluate(s * pred, gt, use_median_scaling=True)
            assert scaled.abs_rel == pytest.approx(base.abs_rel, rel=1e-12)
            assert scaled.rmse == pytest.approx(base.rmse, rel=1e-12)

    def test_range_clamping(self):
        gt = np.array([[0.05, 10.0, 100.0, 20.0]])
        pred = np.array([[1.0, 0.01, 50.0, 1000.0]])
        m = evaluate(pred, gt)
        # only the two in-range gt pixels count; predictions clamp to range
        assert m.n_pixels == 2
        assert m.rmse == pytest.approx(
            np.sqrt(((0.1 - 10.0) ** 2 + (80.0 - 20.0) ** 2) / 2)
        )

    def test_empty_overlap_raises(self):
        gt = np.zeros((4, 4))
        with pytest.raises(NoSupervisionError):
            evaluate(np.ones((4, 4)), gt)

    def test_median_scaling_odd_count_arithmetic(self):
        gt = np.array([[1.0, 2.0, 3.0]])
        m = evaluate(np.array([[2.0, 4.0, 6.0]]), gt, use_median_scaling=True)
        assert m.scale == pytest.approx(0.5)
        assert m.abs_rel == pytest.approx(0.0, abs=1e-15)

    def test_median_scaling_empty_overlap_raises(self):
        gt = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(NoSupervisionError):
            evaluate(np.zeros((1, 3)), gt, use_median_scaling=True)

    def test_delta_ordering_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pred, gt = random_pair(rng)
            m = evaluate(pred, gt)
            assert m.delta1 <= m.delta2 <= m.delta3

    def test_csv_row_shape(self):
        rng = np.random.default_rng(6)
        pred, gt = random_pair(rng)
        m = evaluate(pred, gt)
        row = m.csv_row()
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        metrics_back = [float(v) for v in row.split(",")]
        assert metrics_back[0] == m.abs_rel


def test_metrics_validation():
    with pytest.raises(ValueError):
        DepthMetrics(
            abs_rel=0.1, sq_rel=0.1, rmse=1.0, rmse_log=0.1,
            delta1=0.9, delta2=0.8, delta3=1.0, n_pixels=10,
        )
