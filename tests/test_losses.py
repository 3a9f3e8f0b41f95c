import math

import numpy as np
import pytest

from sfm_losskit import losses, warp
from sfm_losskit.errors import (
    DegenerateMaskError,
    DimensionError,
    EmptyContextError,
    InvalidDepthError,
    NoSupervisionError,
)
from sfm_losskit.geometry import (
    EPS_Z,
    CameraIntrinsics,
    PoseSE3,
    projection_jacobian,
    warp_chain,
)
from sfm_losskit.errors import ConfigError
from sfm_losskit.losses import (
    LossWeights,
    Objective,
    _depth_error,
    _image_gradient_weights,
    _labels,
    _min_over_sources,
    _photometric_forward,
    _rep_distance,
    _smoothness_forward,
    _ssim_channels,
    _static_mask,
    min_photometric,
    total_loss,
    total_loss_grad,
)
from sfm_losskit.synth import SceneSpec, make_scene


def brute_force_ssim(a, b, mask=None, c1=losses.SSIM_C1, c2=losses.SSIM_C2):
    """Independent SSIM oracle: naive per-pixel loops over the 3x3 window,
    statistics over the valid pixels inside the (clipped) box."""
    channels, h, w = a.shape
    if mask is None:
        mask = np.ones((h, w), bool)
    out = np.zeros((h, w))
    for c in range(channels):
        for i in range(h):
            for j in range(w):
                xs, ys = [], []
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ii, jj = i + di, j + dj
                        if 0 <= ii < h and 0 <= jj < w and mask[ii, jj]:
                            xs.append(a[c, ii, jj])
                            ys.append(b[c, ii, jj])
                xs, ys = np.array(xs), np.array(ys)
                mx, my = xs.mean(), ys.mean()
                vx = (xs * xs).mean() - mx * mx
                vy = (ys * ys).mean() - my * my
                cov = (xs * ys).mean() - mx * my
                out[i, j] += ((2 * mx * my + c1) * (2 * cov + c2)) / (
                    (mx * mx + my * my + c1) * (vx + vy + c2)
                )
    return out / channels


def checkerboard(h, w):
    img = ((np.arange(h)[:, None] + np.arange(w)[None, :]) % 2).astype(float)
    return img[None]


class TestSsim:
    """The per-channel SSIM maps of _ssim_channels under a 0/1 float mask."""

    def test_identical_images_score_one(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (3, 8, 9))
        for s, _ in _ssim_channels(img, img, np.ones((8, 9))):
            assert np.abs(s - 1.0).max() < 1e-12

    def test_constant_images_score_one(self):
        a = np.full((1, 6, 6), 0.5)
        s = _ssim_channels(a, a.copy(), np.ones((6, 6)))[0][0]
        assert np.abs(s - 1.0).max() < 1e-12

    def test_inverted_checkerboard_is_negative_inside(self):
        img = checkerboard(8, 8)
        s = _ssim_channels(img, 1.0 - img, np.ones((8, 8)))[0][0]
        assert (s[1:-1, 1:-1] < 0).all()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (1, 7, 8))
        b = rng.uniform(0, 1, (1, 7, 8))
        s = _ssim_channels(a, b, np.ones((7, 8)))[0][0]
        assert np.abs(s - brute_force_ssim(a, b)).max() < 1e-12

    def test_masked_windows_match_brute_force(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, (1, 7, 8))
        b = rng.uniform(0, 1, (1, 7, 8))
        mask = rng.uniform(size=(7, 8)) > 0.3
        ours = _ssim_channels(a, b, mask.astype(np.float64))[0][0]
        oracle = brute_force_ssim(a, b, mask=mask)
        assert np.abs((ours - oracle)[mask]).max() < 1e-12

    def test_values_bounded(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (3, 10, 10))
        b = rng.uniform(0, 1, (3, 10, 10))
        for s, _ in _ssim_channels(a, b, np.ones((10, 10))):
            assert (np.abs(s) <= 1.0 + 1e-12).all()


class TestPhotometric:
    def test_perfect_reconstruction_is_zero(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (3, 6, 7))
        mask = np.ones((6, 7), bool)
        loss = _photometric_forward(img, img.copy(), mask, 0.85)[0]
        assert np.abs(loss).max() < 1e-12

    def test_pure_l1_constant_images(self):
        a = np.full((1, 5, 5), 0.2)
        b = np.full((1, 5, 5), 0.7)
        loss = _photometric_forward(a, b, np.ones((5, 5), bool), alpha=0.0)[0]
        assert loss == pytest.approx(0.5)

    def test_matches_independent_two_term_evaluation(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (3, 6, 8))
        b = rng.uniform(0, 1, (3, 6, 8))
        mask = np.ones((6, 8), bool)
        alpha = 0.85
        loss = _photometric_forward(a, b, mask, alpha)[0]
        expected = np.zeros((6, 8))
        for c in range(3):
            s = _ssim_channels(a[c : c + 1], b[c : c + 1], np.ones((6, 8)))[0][0]
            expected += alpha * np.clip((1 - s) / 2, 0, 1)
            expected += (1 - alpha) * np.abs(a[c] - b[c])
        expected /= 3
        assert np.abs(loss - expected).max() < 1e-12

    def test_invalid_pixels_carry_inf(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, (1, 5, 5))
        mask = np.ones((5, 5), bool)
        mask[1, 2] = False
        loss = _photometric_forward(a, a.copy(), mask, 0.85)[0]
        assert np.isinf(loss[1, 2])
        assert np.isfinite(loss[mask]).all()

    def test_upper_bound(self):
        a = np.zeros((1, 6, 6))
        b = np.ones((1, 6, 6))
        for alpha in (0.0, 0.5, 0.85, 1.0):
            loss = _photometric_forward(a, b, np.ones((6, 6), bool), alpha)[0]
            assert (loss <= alpha + (1 - alpha) + 1e-12).all()

    def test_window_count_shared_by_channels(self, monkeypatch):
        # one RGB forward evaluation with 2 contexts: per context one window
        # count plus 5 window statistics per channel, 2 * (1 + 5 * 3) = 32
        scene = small_scene(channels=3)
        objective, poses = scene_objective(scene)  # builds unwarped_min first
        calls = []
        box_sum = losses._box_sum

        def counting_box_sum(x):
            calls.append(x.shape)
            return box_sum(x)

        monkeypatch.setattr(losses, "_box_sum", counting_box_sum)
        total_loss(objective, poses, scene.gt_depth)
        assert len(scene.contexts) == 2
        assert len(calls) == 32


SMALL_K = CameraIntrinsics(fx=40.0, fy=40.0, cx=23.5, cy=15.5, width=48, height=32)


def objective_of(target, context, k, weights=LossWeights(), **kw):
    """The objective of a context set of (image, pose) pairs, and its poses."""
    images = [img for img, _ in context]
    return Objective(target, images, k, weights, **kw), [pose for _, pose in context]


def scene_objective(scene, weights=LossWeights(), **kw):
    """The objective of a scene's target, contexts and labels, and its poses."""
    kw.setdefault("labels", scene.labels.depth)
    return objective_of(scene.target, scene.contexts, scene.intrinsics, weights, **kw)


def min_photo(target, context, depth, k):
    """min_photometric over (image, pose) pairs at alpha 0.85."""
    objective, poses = objective_of(target, context, k, terms=("photo",))
    return min_photometric(objective, poses, depth)


def small_scene(geometry="plane", **kw):
    kw.setdefault("width", 48)
    kw.setdefault("height", 40)
    kw.setdefault("d0", 8.0)
    kw.setdefault("baseline", 0.4)
    kw.setdefault("seed", 3)
    kw.setdefault("beams", 8)
    kw.setdefault("px_per_beam", 6)
    return make_scene(SceneSpec(geometry=geometry, **kw))


class TestMinPhotometric:
    def test_singleton_context_equals_plain_photometric(self):
        scene = small_scene()
        src, pose = scene.contexts[0]
        m, argmin = min_photo(scene.target, [(src, pose)], scene.gt_depth, scene.intrinsics)
        chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
        at = warp.sampling(chain.coords, chain.valid, src.shape[1:])
        synth = warp.sample_bilinear(src, at)
        direct = _photometric_forward(scene.target, synth, chain.valid, 0.85)[0]
        finite = np.isfinite(direct)
        assert (m[~finite] == np.inf).all() and (direct[~finite] == np.inf).all()
        assert np.isfinite(m[finite]).all()
        assert np.abs(m[finite] - direct[finite]).max() < 1e-15
        assert (argmin[finite] == 0).all()
        assert (argmin[~finite] == -1).all()

    def test_duplicated_source_is_idempotent(self):
        scene = small_scene()
        src, pose = scene.contexts[0]
        m1, _ = min_photo(scene.target, [(src, pose)], scene.gt_depth, scene.intrinsics)
        m2, _ = min_photo(
            scene.target, [(src, pose), (src, pose)], scene.gt_depth, scene.intrinsics
        )
        both = np.isfinite(m1)
        assert (m1[~both] == np.inf).all() and (m2[~both] == np.inf).all()
        assert np.isfinite(m2[both]).all()
        assert np.abs(m1[both] - m2[both]).max() == 0.0

    def test_min_below_each_source(self):
        scene = small_scene()
        m, _ = min_photo(scene.target, scene.contexts, scene.gt_depth, scene.intrinsics)
        for src, pose in scene.contexts:
            chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
            at = warp.sampling(chain.coords, chain.valid, src.shape[1:])
            synth = warp.sample_bilinear(src, at)
            single = _photometric_forward(scene.target, synth, chain.valid, 0.85)[0]
            assert (m <= single + 1e-15).all()

    def test_occluded_region_uses_clean_source(self):
        # the strip at STRIP_DEPTH = 6 vs d0 = 10 at baseline 1.8 gives a
        # ~6 px occlusion band
        scene = small_scene(geometry="two_plane", d0=10.0, baseline=1.8, width=64, height=48)
        per_source = []
        for src, pose in scene.contexts:
            chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
            at = warp.sampling(chain.coords, chain.valid, src.shape[1:])
            synth = warp.sample_bilinear(src, at)
            per_source.append(_photometric_forward(scene.target, synth, chain.valid, 0.85)[0])
        m, argmin = min_photo(scene.target, scene.contexts, scene.gt_depth, scene.intrinsics)
        band = scene.occluded[0] & ~scene.occluded[1]
        # erode the analytic band: boundary pixels blend occluder and
        # background under bilinear sampling
        for shift in (-2, -1, 1, 2):
            band &= np.roll(scene.occluded[0], shift, axis=1)
        assert band.sum() > 10
        chosen = argmin[band]
        # inside source-0's occlusion band the min must come from source 1
        assert (chosen == 1).mean() > 0.95
        assert per_source[1][band].mean() < per_source[0][band].mean()

    def test_empty_context_rejected(self):
        scene = small_scene()
        with pytest.raises(EmptyContextError):
            Objective(scene.target, [], scene.intrinsics, LossWeights(), terms=("photo",))


class TestAutomask:
    def test_static_scene_masks_everything_out(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, (1, 8, 10))
        ones = np.ones((8, 10), bool)
        warped = _photometric_forward(img, img.copy(), ones, 0.85)[0]
        unwarped = _photometric_forward(img, img.copy(), ones, 0.85)[0]
        assert not _static_mask(unwarped, warped).any()

    def test_texture_free_images_mask_false(self):
        img = np.full((1, 6, 6), 0.4)
        ones = np.ones((6, 6), bool)
        loss = _photometric_forward(img, img.copy(), ones, 0.85)[0]
        assert not _static_mask(loss, loss).any()

    def test_parallax_scene_keeps_textured_pixels(self):
        scene = small_scene(width=64, height=48)
        warped = []
        unwarped = []
        ones = np.ones(scene.target.shape[1:], bool)
        for src, pose in scene.contexts:
            chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
            at = warp.sampling(chain.coords, chain.valid, src.shape[1:])
            synth = warp.sample_bilinear(src, at)
            warped.append(_photometric_forward(scene.target, synth, chain.valid, 0.85)[0])
            unwarped.append(_photometric_forward(scene.target, src, ones, 0.85)[0])
        mask = _static_mask(_min_over_sources(unwarped)[0], _min_over_sources(warped)[0])
        assert mask.mean() > 0.9


class TestSmoothness:
    def test_constant_depth_is_zero(self):
        weights = _image_gradient_weights(np.full((1, 8, 8), 0.3))
        assert _smoothness_forward(np.full((8, 8), 5.0), weights)[0] == 0.0

    def test_linear_ramp_closed_form(self):
        h, w = 10, 12
        depth = 5.0 + 0.25 * np.tile(np.arange(w, dtype=float), (h, 1))
        img = np.full((1, h, w), 0.5)  # constant image: edge weights are 1
        disp = 1.0 / depth
        dhat = disp / disp.mean()
        expected = np.abs(np.diff(dhat, axis=1))[: h - 1, :].mean()
        value = _smoothness_forward(depth, _image_gradient_weights(img))[0]
        assert value == pytest.approx(expected, rel=1e-12)

    def test_image_edge_suppresses_depth_step(self):
        h, w = 8, 12
        depth = np.full((h, w), 5.0)
        depth[:, w // 2 :] = 7.0
        flat = np.full((1, h, w), 0.5)
        edged = flat.copy()
        g = 0.4
        edged[0, :, w // 2 :] += g  # hard image edge collocated with the step
        loss_flat = _smoothness_forward(depth, _image_gradient_weights(flat))[0]
        loss_edged = _smoothness_forward(depth, _image_gradient_weights(edged))[0]
        assert loss_edged == pytest.approx(loss_flat * math.exp(-g), rel=1e-12)

    def test_scale_invariance_of_normalized_disparity(self):
        rng = np.random.default_rng(8)
        depth = rng.uniform(3, 12, (9, 9))
        weights = _image_gradient_weights(rng.uniform(0, 1, (1, 9, 9)))
        a = _smoothness_forward(depth, weights)[0]
        b = _smoothness_forward(3.7 * depth, weights)[0]
        assert a == pytest.approx(b, rel=1e-12)


def central_differences(f, x, h=1e-6):
    """Central difference of the scalar f at every entry of x."""
    grad = np.empty_like(x)
    for i in np.ndindex(x.shape):
        saved = x[i]
        x[i] = saved + h
        up = f(x)
        x[i] = saved - h
        grad[i] = (up - f(x)) / (2 * h)
        x[i] = saved
    return grad


class TestKernelAdjoints:
    """Each kernel's adjoint closure against central differences of its own
    value, and the arrays each closure holds."""

    @pytest.mark.parametrize("channels", [1, 3])
    def test_photometric_adjoint_matches_finite_differences(self, channels):
        rng = np.random.default_rng(20 + channels)
        target, synth = rng.uniform(0, 1, (2, channels, 9, 11))
        mask = rng.uniform(size=(9, 11)) > 0.3
        upstream = np.where(mask, rng.uniform(0, 1, (9, 11)), 0.0)

        def value(x):
            loss = _photometric_forward(target, x, mask, 0.85)[0]
            return float(np.sum(upstream[mask] * loss[mask]))

        d_synth = _photometric_forward(target, synth, mask, 0.85)[1](upstream)
        fd = central_differences(value, synth)
        assert np.abs(d_synth - fd).max() < 1e-6 * max(np.abs(fd).max(), 1.0)
        assert (d_synth[:, ~mask] == 0).all()

    @pytest.mark.parametrize("channels", [1, 3])
    def test_smoothness_adjoint_matches_finite_differences(self, channels):
        rng = np.random.default_rng(30 + channels)
        weights = _image_gradient_weights(rng.uniform(0, 1, (channels, 9, 11)))
        depth = rng.uniform(2, 6, (9, 11))
        grad = _smoothness_forward(depth, weights)[1]()
        fd = central_differences(lambda d: _smoothness_forward(d, weights)[0], depth)
        assert np.abs(grad - fd).max() < 1e-6 * max(np.abs(fd).max(), 1e-3)

    def test_adjoints_hold_only_what_they_read(self):
        # a forward temporary captured by an adjoint would live until the
        # backward pass of its level
        rng = np.random.default_rng(40)
        target, synth = rng.uniform(0, 1, (2, 3, 9, 11))
        mask = np.ones((9, 11), bool)
        photo = _photometric_forward(target, synth, mask, 0.85)[1]
        assert photo.__code__.co_freevars == (
            "alpha", "channels", "m", "per_channel", "synth", "target")
        ssim = _ssim_channels(target, synth, mask.astype(np.float64))[0][1]
        assert ssim.__code__.co_freevars == (
            "den_c", "den_l", "mu_x", "mu_y", "n", "num_c", "s")
        smooth = _smoothness_forward(rng.uniform(2, 6, (9, 11)),
                                     _image_gradient_weights(target))[1]
        assert smooth.__code__.co_freevars == (
            "disp", "dx", "dy", "mean_disp", "wx", "wy")


def rep_distance(pred, gt, pose, k, want_grad=False):
    """_rep_distance of a prediction raster against a label raster."""
    labels = _labels(gt, k)
    p_hat = pred.reshape(-1)[labels.index][:, None] * labels.rays
    return _rep_distance(labels, p_hat, pose, k, want_grad)


class TestReprojectedDistance:
    def test_pred_equals_gt_is_zero(self):
        scene = small_scene()
        _, pose = scene.contexts[0]
        value, count, _, _, _ = rep_distance(scene.gt_depth, scene.labels.depth, pose,
                                             scene.intrinsics)
        assert value == 0.0
        assert count == scene.labels.n_labels

    def test_single_pixel_hand_computed(self):
        k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
        gt = np.zeros((4, 4))
        gt[0, 0] = 2.0
        pred = np.full((4, 4), 4.0)
        pose = PoseSE3(translation=(1.0, 0.0, 0.0))
        value, count, _, _, _ = rep_distance(pred, gt, pose, k)
        # pi(T*(4,0,0,1)-ray) = 1/4 + 0 = 0.25 ; pi with d=2 -> 0.5
        assert value == pytest.approx(0.25, abs=1e-15)
        assert count == 1

    def test_identity_pose_is_zero_for_any_prediction(self):
        scene = small_scene()
        pred = scene.gt_depth * 3.1
        value = rep_distance(pred, scene.labels.depth, PoseSE3.identity(), scene.intrinsics)[0]
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_depth_weighting_decreases_with_distance(self):
        # same relative error at growing depth reprojects ever smaller
        k = CameraIntrinsics(fx=50.0, fy=50.0, cx=1.5, cy=1.5, width=4, height=4)
        pose = PoseSE3(translation=(0.8, 0.0, 0.0))
        values = []
        for d in (2.0, 4.0, 8.0, 16.0):
            gt = np.zeros((4, 4))
            gt[1, 1] = d
            pred = np.zeros((4, 4))
            pred[1, 1] = 1.2 * d
            values.append(rep_distance(pred, gt, pose, k)[0])
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_no_labels_raises(self):
        scene = small_scene()
        with pytest.raises(NoSupervisionError):
            _labels(np.zeros_like(scene.gt_depth), scene.intrinsics)

    def test_behind_camera_labels_dropped(self):
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=1.5, cy=1.5, width=4, height=4)
        gt = np.zeros((4, 4))
        gt[0, 0] = 1.0
        gt[1, 1] = 5.0
        pred = np.where(gt > 0, gt * 1.1, 0.0)
        pose = PoseSE3(translation=(0.0, 0.0, -2.0))  # pulls near labels behind
        _, count, dropped, d_pred, _ = rep_distance(pred, gt, pose, k, want_grad=True)
        assert count == 1
        assert dropped == 1
        # the per-label gradient is 0 at the label dropped behind the camera
        assert d_pred.shape == (2,) and d_pred[0] == 0.0 and d_pred[1] != 0.0

    def test_shared_label_points_match_per_pose_calls(self):
        # _supervised builds the predicted points once for every pose; its sums
        # must equal a per-pose build of everything, added up in pose order,
        # bit for bit, also when one pose drops labels behind its camera
        rng = np.random.default_rng(21)
        k = SMALL_K
        gt = np.zeros((k.height, k.width))
        flat = rng.choice(gt.size, 60, replace=False)
        gt.flat[flat] = rng.uniform(1.0, 6.0, flat.size)
        pred = rng.uniform(1.0, 6.0, gt.shape)
        poses = [
            PoseSE3(rotation=(0.01, -0.02, 0.005), translation=(0.3, 0.05, 0.1)),
            PoseSE3(rotation=(-0.02, 0.01, 0.0), translation=(0.1, 0.0, -2.5)),
        ]
        labels = _labels(gt, k)
        weight = 0.37
        base = rng.normal(size=gt.shape)

        value, count, dropped = 0.0, 0, 0
        d_depth, d_poses = base.copy(), np.zeros((2, 6))
        drops = []
        for s, pose in enumerate(poses):
            (v, n, gone), d_pred, d_pose6 = per_pose_rep_distance(pred, gt, pose, k)
            value += v / 2
            count = max(count, n)
            dropped += gone
            drops.append(gone)
            d_depth += (weight / 2) * d_pred
            d_poses[s] += (weight / 2) * d_pose6
        assert drops[0] == 0 and 0 < drops[1] < flat.size

        ours_depth, ours_poses = base.copy(), np.zeros((2, 6))
        out = losses._supervised(pred, labels, poses, k, "rep", weight, ours_depth, ours_poses)
        assert out == (value, count, dropped)
        assert same_bits(ours_depth, d_depth) and same_bits(ours_poses, d_poses)
        assert losses._supervised(pred, labels, poses, k, "rep", weight, None, None) == out

    @pytest.mark.parametrize("mode", ["l1", "berhu"])
    def test_depth_error_adds_at_label_pixels_only(self, mode):
        # L1 and BerHu add their per-label gradient at the label pixels; the
        # sum must equal adding a dense (H, W) reference raster, bit for bit
        rng = np.random.default_rng(22)
        k = SMALL_K
        gt = np.zeros((k.height, k.width))
        flat = rng.choice(gt.size, 60, replace=False)
        gt.flat[flat] = rng.uniform(1.0, 6.0, flat.size)
        pred = rng.uniform(1.0, 6.0, gt.shape)
        weight = 0.37
        base = rng.normal(size=gt.shape)
        value, count, d_pred = dense_depth_error(pred, gt, mode)

        ours = base.copy()
        labels = _labels(gt, k)
        out = losses._supervised(pred, labels, None, k, mode, weight, ours, None)
        assert out == (value, count, 0)
        assert same_bits(ours, base + weight * d_pred)
        assert losses._supervised(pred, labels, None, k, mode, weight, None, None) == out


def dense_depth_error(pred, gt, mode):
    """Reference L1 / BerHu depth error over the whole raster, with a dense
    (H, W) gradient that is 0 off the labels.
    Returns (value, count, d_pred)."""
    shared = gt > 0
    err = (pred - gt)[shared]
    count = int(shared.sum())
    abs_err = np.abs(err)
    if mode == "l1":
        value, d_err = float(abs_err.mean()), np.sign(err) / count
    else:
        c = 0.2 * float(abs_err.max())
        value = float(np.where(abs_err <= c, abs_err, (err * err + c * c) / (2.0 * c)).mean())
        d_err = np.where(abs_err <= c, np.sign(err), err / c) / count
    d_pred = np.zeros_like(pred)
    d_pred[shared] = d_err
    return value, count, d_pred


def per_pose_rep_distance(pred, gt, pose, k):
    """Reference reprojected distance that builds the label points for one
    pose, always re-indexes by the in-front mask and scatters with np.add.at.
    Returns ((value, count, dropped), d_pred, d_pose6)."""
    rows, cols = np.nonzero((gt > 0) & (pred > 0))
    rays = k.pixel_rays()[:, rows, cols].T
    rot = pose.rotation_matrix()
    t = pose.translation_vector()
    d_hat, d_true = pred[rows, cols], gt[rows, cols]
    x_hat = (d_hat[:, None] * rays) @ rot.T + t
    x_true = (d_true[:, None] * rays) @ rot.T + t
    front = (x_hat[:, 2] > EPS_Z) & (x_true[:, 2] > EPS_Z)
    dropped, count = int((~front).sum()), int(front.sum())
    rows, cols, rays = rows[front], cols[front], rays[front]
    d_hat, d_true = d_hat[front], d_true[front]
    x_hat, x_true = x_hat[front], x_true[front]

    def proj(p):
        return np.stack(
            [k.fx * p[:, 0] / p[:, 2] + k.cx, k.fy * p[:, 1] / p[:, 2] + k.cy], axis=1
        )

    e = proj(x_hat) - proj(x_true)
    norms = np.sqrt((e * e).sum(axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    beta = np.where(norms[:, None] > 0, e / safe[:, None], 0.0)
    # (N, 2, 3) Jacobians, each a view over the (2, 3, N) array
    jac_hat = np.moveaxis(projection_jacobian(x_hat.T, k), -1, 0)
    jac_true = np.moveaxis(projection_jacobian(x_true.T, k), -1, 0)
    g_hat = np.einsum("ni,nij->nj", beta, jac_hat) / count
    g_true = np.einsum("ni,nij->nj", beta, jac_true) / count
    d_pred = np.zeros_like(pred)
    np.add.at(d_pred, (rows, cols), np.einsum("nj,nj->n", g_hat, rays @ rot.T))
    d_pose = np.zeros(6)
    p_hat, p_true = d_hat[:, None] * rays, d_true[:, None] * rays
    for i, drot in enumerate(pose.rotation_jacobians()):
        d_pose[i] = np.einsum("nj,nj->", g_hat, p_hat @ drot.T) - np.einsum(
            "nj,nj->", g_true, p_true @ drot.T
        )
    d_pose[3:] = (g_hat - g_true).sum(axis=0)
    return (float(np.sum(norms)) / count, count, dropped), d_pred, d_pose


def depth_error(pred, gt, mode):
    """_depth_error's value of a prediction raster against a label raster;
    rasters under 2x2 (the least intrinsics take) are padded unlabeled."""
    h, w = gt.shape
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=max(w, 2), height=max(h, 2))
    pad = ((0, k.height - h), (0, k.width - w))
    labels = _labels(np.pad(gt, pad), k)
    return _depth_error(np.pad(pred, pad).reshape(-1)[labels.index], labels.depth, mode)[0]


class TestBaselines:
    def test_zero_error(self):
        gt = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert depth_error(gt, gt, "l1") == 0.0
        assert depth_error(gt, gt, "berhu") == 0.0

    def test_l1_single_error(self):
        gt = np.array([[2.0, 0.0]])
        pred = np.array([[7.0, 0.5]])
        assert depth_error(pred, gt, "l1") == pytest.approx(5.0)

    def test_berhu_hand_computed_branches(self):
        gt = np.array([[1.0, 1.0]])
        pred = np.array([[2.0, 11.0]])  # errors 1 and 10, c = 0.2 * 10 = 2
        expected = (1.0 + (100 + 4) / 4.0) / 2.0
        assert depth_error(pred, gt, "berhu") == pytest.approx(expected)

    def test_berhu_default_threshold(self):
        gt = np.array([[1.0, 1.0]])
        pred = np.array([[2.0, 6.0]])  # errors 1, 5 -> c = 1
        c = 0.2 * 5.0
        expected = ((1.0**2 + c * c) / (2 * c) + (25 + c * c) / (2 * c)) / 2.0
        assert depth_error(pred, gt, "berhu") == pytest.approx(expected)

    def test_empty_overlap(self):
        with pytest.raises(NoSupervisionError):
            depth_error(np.zeros((2, 2)), np.zeros((2, 2)), "l1")


def scaled_poses(poses, s):
    return [PoseSE3(rotation=p.rotation, translation=tuple(s * np.asarray(p.translation)))
            for p in poses]


class TestTotalLoss:
    def test_breakdown_invariant(self):
        scene = small_scene()
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1e4)
        bd = total_loss(*scene_objective(scene, w), scene.gt_depth)
        recomposed = bd.photo + w.lambda_smooth * bd.smooth + w.lambda_rep * bd.rep
        assert bd.total == pytest.approx(recomposed, abs=1e-12)
        assert bd.photo >= 0 and bd.smooth >= 0 and bd.rep >= 0
        assert bd.masked_pixel_count > 0

    def test_paper_configuration_defaults(self):
        w = LossWeights()
        assert (w.alpha, w.lambda_smooth, w.lambda_rep) == (0.85, 1e-3, 1e4)

    def test_ground_truth_photo_near_zero(self):
        scene = small_scene(texture_cycles=0.02)
        w = LossWeights(lambda_smooth=0.0, lambda_rep=0.0)
        bd = total_loss(*scene_objective(scene, w), scene.gt_depth)
        assert bd.photo < 1e-3

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_scale_ambiguity_invariance(self, s):
        scene = small_scene(geometry="slant", slant=15.0)
        rng = np.random.default_rng(9)
        depth = scene.gt_depth * np.exp(rng.normal(0, 0.08, scene.gt_depth.shape))
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=0.0)
        objective, poses = scene_objective(scene, w, labels=None)
        a = total_loss(objective, poses, depth)
        b = total_loss(objective, scaled_poses(poses, s), s * depth)
        assert b.total == pytest.approx(a.total, rel=1e-9)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_scale_breaking_with_supervision(self, s):
        scene = small_scene()
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1e4)
        objective, poses = scene_objective(scene, w)
        base = total_loss(objective, poses, scene.gt_depth)
        scaled = total_loss(objective, scaled_poses(poses, s), s * scene.gt_depth)
        assert scaled.total > base.total

    def test_static_scene_raises_degenerate_mask(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(0, 1, (1, 16, 16))
        k = CameraIntrinsics(fx=16, fy=16, cx=7.5, cy=7.5, width=16, height=16)
        depth = np.full((16, 16), 4.0)
        objective = Objective(img, [img.copy()], k, LossWeights(lambda_rep=0.0))
        with pytest.raises(DegenerateMaskError):
            total_loss(objective, [PoseSE3.identity()], depth)

    def test_missing_labels_with_positive_weight_raises(self):
        scene = small_scene()
        w = LossWeights(lambda_rep=1.0)
        with pytest.raises(NoSupervisionError):
            scene_objective(scene, w, labels=np.zeros_like(scene.gt_depth))

    @pytest.mark.parametrize("entry", ["total_loss", "total_loss_grad"])
    def test_no_labels_raster_with_positive_weight_raises(self, entry):
        # a weighted supervised term is not dropped for want of labels: the
        # objective refuses to be built, so no entry evaluates it; with the
        # supervised weight at 0 the same objective builds and `entry` runs
        scene = small_scene()
        with pytest.raises(NoSupervisionError):
            scene_objective(scene, LossWeights(lambda_rep=1.0), labels=None)
        objective, poses = scene_objective(scene, LossWeights(lambda_rep=0.0), labels=None)
        getattr(losses, entry)(objective, poses, scene.gt_depth)

    def test_supervised_l1_and_berhu_variants(self):
        scene = small_scene()
        w = LossWeights(lambda_rep=1.0)
        pred = scene.gt_depth * 1.3
        for mode in ("l1", "berhu"):
            bd = total_loss(*scene_objective(scene, w, supervised=mode), pred)
            oracle = depth_error(pred, scene.labels.depth, mode)
            assert bd.rep == pytest.approx(oracle, rel=1e-12)


class TestEntryChecks:
    """Depth is finite and above EPS_Z at every pixel, and checked on every
    evaluation; every context image and the labels the supervised term
    reads are finite, checked once, when the objective is built. A check
    at build time is followed by the same build with the bad value
    repaired, evaluated by the entry named in the test's ``entry``."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e-320, 1e-7],
                             ids=["zero", "negative", "nan", "inf", "subnormal", "below_eps_z"])
    @pytest.mark.parametrize("entry", ["total_loss", "total_loss_grad", "min_photometric"])
    def test_one_bad_depth_pixel_raises(self, entry, bad):
        scene = small_scene()
        depth = scene.gt_depth.copy()
        depth[17, 23] = bad
        objective, poses = scene_objective(scene, LossWeights(lambda_rep=1.0))
        with pytest.raises(InvalidDepthError, match="1 pixel"):
            getattr(losses, entry)(objective, poses, depth)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("precomputed", [False, True], ids=["own", "precomputed"])
    @pytest.mark.parametrize("entry", ["total_loss", "total_loss_grad"])
    def test_one_bad_context_pixel_raises(self, entry, precomputed, bad):
        # "own": the objective's photometric term computes unwarped_min from
        # the raw context images; "precomputed": a photometric term whose
        # reference is not computed here (the objective without it), which
        # must not skip the images' check
        scene = small_scene()
        terms = ("smooth", "rep") if precomputed else losses.TERMS
        img = scene.contexts[1][0].copy()
        img[0, 17, 23] = bad
        context = [scene.contexts[0], (img, scene.contexts[1][1])]
        weights = LossWeights(lambda_rep=1.0)
        with pytest.raises(DimensionError, match="context image 1 contains non-finite"):
            objective_of(scene.target, context, scene.intrinsics, weights,
                         labels=scene.labels.depth, terms=terms)
        img[0, 17, 23] = 0.5
        objective, poses = objective_of(scene.target, context, scene.intrinsics, weights,
                                        labels=scene.labels.depth, terms=terms)
        getattr(losses, entry)(objective, poses, scene.gt_depth)

    @pytest.mark.parametrize("where", ["target", "context"])
    def test_interleaved_image_raises(self, where):
        # an image in the (H, W, C) layout, H and W not in {1, 3}
        scene = small_scene(channels=3)
        target, context = scene.target, list(scene.contexts)
        if where == "target":
            target = np.moveaxis(target, 0, -1)
        else:
            context[1] = (np.moveaxis(context[1][0], 0, -1), context[1][1])
        with pytest.raises(DimensionError):
            objective_of(target, context, scene.intrinsics, LossWeights(lambda_rep=1.0),
                         labels=scene.labels.depth)

    def test_bad_image_shapes_raise(self):
        # the target and each context must be a finite (C, H, W) array with
        # C in {1, 3}, the target's C and the intrinsics' size
        scene = small_scene(channels=3)
        img = scene.target.copy()
        img[1, 5, 7] = math.nan
        # 2-d, 2 channels, a NaN, a column short, the interleaved layout
        for image in [img[0], img[:2], img, img[:, :, :-1], np.zeros((40, 48, 3))]:
            for where in ("target", "context image 1"):
                target, context = scene.target, list(scene.contexts)
                if where == "target":
                    target = image
                else:
                    context[1] = (image, context[1][1])
                with pytest.raises(DimensionError, match=f"^{where} "):
                    objective_of(target, context, scene.intrinsics,
                                 LossWeights(lambda_rep=1.0), labels=scene.labels.depth)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("supervised", ["rep", "l1", "berhu"])
    @pytest.mark.parametrize("entry", ["total_loss", "total_loss_grad"])
    def test_one_bad_label_raises(self, entry, supervised, bad):
        # unchecked, a NaN label would count as unlabeled, and +inf would make
        # L1 and BerHu infinite and count as behind the camera under rep
        scene = small_scene()
        labels = scene.labels.depth.copy()
        labels[17, 23] = bad
        weights = LossWeights(lambda_rep=1.0)
        with pytest.raises(DimensionError, match="labels contain non-finite"):
            scene_objective(scene, weights, labels=labels, supervised=supervised)
        labels[17, 23] = 0.0
        objective, poses = scene_objective(scene, weights, labels=labels, supervised=supervised)
        getattr(losses, entry)(objective, poses, scene.gt_depth)

    @pytest.mark.parametrize("entry", ["total_loss", "total_loss_grad"])
    def test_negative_label_raises(self, entry):
        # unchecked, a negative label would count as unlabeled (row 0 is
        # above the beams)
        scene = small_scene()
        labels = scene.labels.depth.copy()
        labels[0, :32] = -5.0
        weights = LossWeights(lambda_rep=1.0)
        with pytest.raises(DimensionError, match="negative"):
            scene_objective(scene, weights, labels=labels)
        labels[0, :32] = 0.0
        getattr(losses, entry)(*scene_objective(scene, weights, labels=labels), scene.gt_depth)


class TestObjective:
    """What an objective checks once, what it holds, and what an evaluation
    still checks per call."""

    @pytest.mark.parametrize("case", ["nan_context", "negative_label", "unknown_term",
                                      "num_scales_not_dividing"])
    def test_build_rejects_before_any_evaluation(self, case, monkeypatch):
        scene = small_scene()  # 48x40: divides by 8, not by 16
        images = [img.copy() for img, _ in scene.contexts]
        labels = scene.labels.depth.copy()
        kw = {}
        if case == "nan_context":
            images[0][0, 5, 5] = math.nan
            error = DimensionError
        elif case == "negative_label":
            labels[0, 0] = -1.0
            error = DimensionError
        elif case == "unknown_term":
            kw["terms"] = ("photo", "foo")
            error = ConfigError
        else:
            kw["num_scales"] = 5
            error = ConfigError
        evaluations = []
        monkeypatch.setattr(losses, "_evaluate", lambda *a, **k: evaluations.append(a))
        monkeypatch.setattr(losses, "unwarped_min_photometric",
                            lambda *a: evaluations.append(a))
        with pytest.raises(error):
            Objective(scene.target, images, scene.intrinsics, LossWeights(lambda_rep=1.0),
                      labels=labels, **kw)
        assert evaluations == []

    def test_images_and_labels_checked_once_per_objective(self, monkeypatch):
        # every finiteness check in the package, counted while the objective
        # is built and then evaluated six times
        scene = small_scene()
        checks = []
        isfinite = np.isfinite

        def counting(x):
            checks.append(np.shape(x))
            return isfinite(x)

        monkeypatch.setattr(np, "isfinite", counting)
        objective, poses = scene_objective(scene, LossWeights(lambda_rep=1.0))
        built = len(checks)
        assert built == 1 + len(scene.contexts) + 1  # target, each context, labels
        for _ in range(3):
            total_loss(objective, poses, scene.gt_depth)
            total_loss_grad(objective, poses, scene.gt_depth)
        assert len(checks) == built

    def test_holds_the_per_scene_arrays(self):
        scene = small_scene()
        objective, _ = scene_objective(scene, LossWeights(lambda_rep=1.0))
        assert same_bits(objective.unwarped_min,
                         losses.unwarped_min_photometric(objective))
        assert objective.edge_weights is not None
        assert objective.labels.index.size == scene.labels.n_labels
        assert objective.labels.rays.flags.c_contiguous
        assert objective.labels.rays.shape == (scene.labels.n_labels, 3)
        no_photo, _ = scene_objective(scene, terms=("smooth", "rep"))
        assert no_photo.unwarped_min is None

    def test_unsupervised_shares_and_matches_a_fresh_build(self):
        scene = small_scene()
        weights = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1.0)
        objective, poses = scene_objective(scene, weights)
        phase_a = objective.unsupervised()
        assert phase_a.unwarped_min is objective.unwarped_min
        assert phase_a.weights.lambda_rep == 0.0 and objective.weights.lambda_rep == 1.0
        fresh, _ = scene_objective(scene, LossWeights(alpha=0.85, lambda_smooth=1e-3,
                                                      lambda_rep=0.0))
        depth = scene.gt_depth * 1.1
        ours, fresh_out = total_loss_grad(phase_a, poses, depth), total_loss_grad(fresh, poses, depth)
        assert ours[0] == fresh_out[0]
        assert same_bits(ours[1], fresh_out[1]) and same_bits(ours[2], fresh_out[2])

    def test_evaluation_checks_poses_and_depth_shape(self):
        scene = small_scene()
        objective, poses = scene_objective(scene, LossWeights(lambda_rep=1.0))
        with pytest.raises(DimensionError, match="1 poses for 2 context images"):
            total_loss(objective, poses[:1], scene.gt_depth)
        with pytest.raises(TypeError, match="context 1 pose must be PoseSE3"):
            total_loss(objective, [poses[0], poses[1].as_params()], scene.gt_depth)
        with pytest.raises(DimensionError, match="depth"):
            total_loss_grad(objective, poses, scene.gt_depth[:, :-1])


class TestTotalLossGrad:
    def test_gradient_zero_cases(self):
        scene = small_scene()
        w = LossWeights(alpha=0.85, lambda_smooth=0.0, lambda_rep=1.0)
        _, d_depth, d_poses = total_loss_grad(
            *scene_objective(scene, w, terms=("smooth", "rep")), scene.gt_depth
        )
        # at pred == gt the reprojected term sits at the subgradient-zero minimum
        assert np.abs(d_depth).max() == 0.0
        assert np.abs(d_poses).max() == 0.0

    def test_constant_images_zero_photo_gradient(self):
        # constant images would be fully removed by the static-pixel mask, so
        # force the mask open through the objective's reference: the flat
        # photometric landscape must still give exactly zero depth/pose gradients
        k = CameraIntrinsics(fx=16, fy=16, cx=7.5, cy=7.5, width=16, height=16)
        img = np.full((1, 16, 16), 0.5)
        ctx_img = np.full((1, 16, 16), 0.6)
        depth = np.full((16, 16), 4.0)
        pose = PoseSE3(translation=(0.2, 0.0, 0.0))
        w = LossWeights(alpha=0.0, lambda_smooth=0.0, lambda_rep=0.0)
        objective = Objective(img, [ctx_img], k, w)
        objective.unwarped_min = np.full((16, 16), 0.5)
        _, d_depth, d_poses = total_loss_grad(objective, [pose], depth)
        assert np.abs(d_depth).max() == 0.0
        assert np.abs(d_poses).max() == 0.0

    def test_matches_finite_differences_on_random_scene(self):
        from sfm_losskit.optimize import gradcheck

        scene = small_scene(geometry="slant", slant=10.0)
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1.0)
        report = gradcheck(scene, w, n_samples=688, seed=0)
        assert report.passed, report.failures[:5]

    def test_pyramid_gradients_match_finite_differences(self):
        from sfm_losskit.optimize import gradcheck

        scene = small_scene(width=48, height=40)
        w = LossWeights(alpha=0.85, lambda_smooth=1e-2, lambda_rep=1.0)
        report = gradcheck(scene, w, n_samples=688, seed=1, num_scales=4)
        assert report.passed, report.failures[:5]

    def test_pyramid_forward_reduces_to_single_scale_at_level_zero(self):
        scene = small_scene(width=48, height=40)
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=0.0)
        one = total_loss(*scene_objective(scene, w), scene.gt_depth)
        four = total_loss(*scene_objective(scene, w, num_scales=4), scene.gt_depth)
        # constant-depth pyramid levels reproduce the same depth, so photo agrees
        assert four.photo == pytest.approx(one.photo, rel=1e-9)

    def test_one_sampling_state_per_warp(self, monkeypatch):
        # each context and scale builds its bilinear sampling state once, and
        # the sample and its gradient both read that state
        scene = small_scene(geometry="two_plane", d0=10.0, baseline=1.8, width=64, height=48)
        built, read = [], []

        def wrap(name, log, logged):
            fn = getattr(warp, name)

            def wrapper(*args):
                out = fn(*args)
                log.append(logged(out, args))
                return out
            monkeypatch.setattr(warp, name, wrapper)

        wrap("sampling", built, lambda out, args: out)
        wrap("sample_bilinear", read, lambda out, args: args[-1])
        wrap("sample_bilinear_grad", read, lambda out, args: args[-1])
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1.0)
        objective, poses = scene_objective(scene, w, num_scales=3)
        warps = len(scene.contexts) * 3
        for evaluate in (total_loss, total_loss_grad):
            built.clear()
            read.clear()
            evaluate(objective, poses, scene.gt_depth * 1.05)
            assert len(built) == warps
            assert len(read) > warps if evaluate is total_loss_grad else len(read) == warps
            assert {id(at) for at in read} == {id(at) for at in built}


EPS = np.finfo(np.float64).eps


def nine_shift_box_sum(x):
    """Reference 3x3 windowed sum: zero-pad, then add every shifted copy."""
    h, w = x.shape
    padded = np.zeros((h + 2, w + 2))
    padded[1 : 1 + h, 1 : 1 + w] = x
    out = np.zeros((h, w))
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + h, dx : dx + w]
    return out


class TestBoxSum:
    @pytest.mark.parametrize("shape", [(7, 9), (12, 5), (2, 5)])
    def test_window_local_self_adjoint_and_matches_reference(self, shape):
        rng = np.random.default_rng(20)
        x = rng.uniform(-1, 1, shape)
        y = rng.uniform(-1, 1, shape)
        n_win = 9
        bx, by = losses._box_sum(x), losses._box_sum(y)

        # each output sums at most n_win terms of magnitude <= 1, so either
        # summation order is within (n_win - 1) * eps * n_win of the exact sum
        tol = 2 * (n_win - 1) * n_win * EPS
        assert np.abs(bx - nine_shift_box_sum(x)).max() <= tol

        # <Bx, y> = <x, By>; window error plus pairwise-sum error per term
        lhs, rhs = np.sum(bx * y), np.sum(x * by)
        scale = np.sum(np.abs(bx * y)) + np.sum(np.abs(x * by))
        assert abs(lhs - rhs) <= (n_win + np.log2(x.size)) * EPS * scale

        h, w = shape
        for p, q in [(0, 0), (h - 1, w - 1), (h // 2, w // 2), (0, w // 2)]:
            x2 = x.copy()
            x2[p, q] += 0.375
            changed = losses._box_sum(x2) != bx
            window = np.zeros(shape, dtype=bool)
            window[max(p - 1, 0) : p + 2, max(q - 1, 0) : q + 2] = True
            # outside the pixel's window the outputs are bit-identical
            assert not changed[~window].any()
            assert changed[window].all()


def same_bits(a, b):
    """Equal shape, dtype and bytes: stricter than np.array_equal, as it
    also tells -0.0 from 0.0 and compares NaNs."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def column_view_box_sum(x):
    """Reference: the 3x3 box sum with its column shifts written into 2-D
    column views."""
    rows = x.copy()
    rows[1:] += x[:-1]
    rows[:-1] += x[1:]
    out = rows.copy()
    out[:, 1:] += rows[:, :-1]
    out[:, :-1] += rows[:, 1:]
    return out


def stacked_min(maps):
    """Reference: min and argmin over the stacked maps."""
    stacked = np.stack(maps, axis=0)
    return stacked.min(axis=0), stacked.argmin(axis=0)


def direct_ssim_channel(a, b, m, n):
    """Reference: one SSIM channel and its adjoint in b, each window
    statistic computed from its own masked product."""
    c1, c2 = losses.SSIM_C1, losses.SSIM_C2
    box = losses._box_sum
    mu_x = box(a * m) / n
    mu_y = box(b * m) / n
    var_x = box(a * a * m) / n - mu_x * mu_x
    var_y = box(b * b * m) / n - mu_y * mu_y
    cov = box(a * b * m) / n - mu_x * mu_y
    s = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )

    def grad_b(g):
        num_l = 2 * mu_x * mu_y + c1
        num_c = 2 * cov + c2
        den_l = mu_x * mu_x + mu_y * mu_y + c1
        den_c = var_x + var_y + c2
        d_num = g / (den_l * den_c)
        d_num_l = d_num * num_c
        d_num_c = d_num * num_l
        d_den_l = -g * s / den_l
        d_den_c = -g * s / den_c
        d_mu_y = 2 * mu_x * d_num_l + 2 * mu_y * d_den_l
        d_cov = 2 * d_num_c
        d_var_y = d_den_c
        d_mu_y += -2 * mu_y * d_var_y - mu_x * d_cov
        return m * (box(d_mu_y / n) + box(d_cov / n) * a + box(d_var_y / n) * 2 * b)

    return s, grad_b


class TestContiguousKernels:
    """The box sum's flat-row shifts, the running minimum over sources and
    the shared SSIM statistics must reproduce the direct formulations bit
    for bit."""

    @pytest.mark.parametrize(
        "shape",
        # widths and heights of 1: a flat shift then wraps whole rows where
        # the column-view slices are empty
        [(2, 2), (2, 9), (9, 2), (7, 11), (13, 5), (1, 6), (6, 1), (5, 3), (3, 3), (1, 1)],
    )
    def test_box_sum_matches_column_views(self, shape):
        x = np.random.default_rng(sum(shape) + 1).uniform(-1, 1, shape)
        assert same_bits(losses._box_sum(x), column_view_box_sum(x))

    def test_box_sum_of_non_contiguous_input(self):
        rgb = np.random.default_rng(1).uniform(0, 1, (9, 14, 3))
        for x in (rgb[..., 1], rgb[::2, ::3, 0], rgb[..., 2].T):
            assert not x.flags.c_contiguous
            assert same_bits(losses._box_sum(x), column_view_box_sum(x))

    @pytest.mark.parametrize("n_maps", [1, 2, 3, 4])
    def test_min_over_sources_matches_stack(self, n_maps):
        rng = np.random.default_rng(n_maps)
        # few distinct values, so ties are common; +-inf, NaN and both
        # zeros mixed in, NaN also in the first map and in several maps
        values = np.array([0.0, -0.0, 0.25, 0.5, 1.0, np.inf, -np.inf, np.nan])
        maps = [rng.choice(values, size=(6, 7), p=[0.15, 0.1, 0.15, 0.15, 0.15, 0.1, 0.1, 0.1])
                for _ in range(n_maps)]
        best, argmin = losses._min_over_sources(maps)
        ref_best, ref_argmin = stacked_min(maps)
        assert same_bits(best, ref_best)
        assert same_bits(argmin, ref_argmin)

    def test_min_over_sources_ties_keep_first_index(self):
        maps = [np.full((2, 3), 0.5), np.full((2, 3), 0.5), np.full((2, 3), np.inf)]
        maps[1][0, 0] = 0.25
        maps[2][1, 2] = 0.5
        best, argmin = losses._min_over_sources(maps)
        assert same_bits(argmin, np.array([[1, 0, 0], [0, 0, 0]], dtype=np.intp))
        assert same_bits(best, stacked_min(maps)[0])

    def test_min_over_sources_does_not_write_its_inputs(self):
        maps = [np.array([[1.0, np.nan]]), np.array([[0.5, 0.0]])]
        before = [m.copy() for m in maps]
        losses._min_over_sources(maps)
        assert all(same_bits(m, b) for m, b in zip(maps, before))

    @pytest.mark.parametrize("fill", ["random", "all", "none"])
    def test_ssim_channel_matches_direct_statistics(self, fill):
        rng = np.random.default_rng(7)
        a, b = rng.uniform(0, 1, (2, 11, 13))
        m = {"random": rng.uniform(size=(11, 13)) > 0.3,
             "all": np.ones((11, 13), bool), "none": np.zeros((11, 13), bool)}[fill]
        m = m.astype(np.float64)
        n = np.maximum(losses._box_sum(m), 1.0)
        ours, our_grad_b = losses._ssim_channel(a, b, m, n)
        s, grad_b = direct_ssim_channel(a, b, m, n)
        assert same_bits(ours, s)
        g = rng.uniform(-1, 1, (11, 13))
        assert same_bits(our_grad_b(a, b, m, g), grad_b(g))

    def test_photometric_marks_invalid_pixels_inf(self):
        rng = np.random.default_rng(8)
        target, synth = rng.uniform(0, 1, (2, 3, 6, 9))
        for mask in (rng.uniform(size=(6, 9)) > 0.4, np.ones((6, 9), bool),
                     np.zeros((6, 9), bool)):
            # the objective passes the warp chain's mask without a copy, so
            # the term must only read it: a write into it raises
            mask.setflags(write=False)
            loss = _photometric_forward(target, synth, mask, 0.85)[0]
            assert np.isposinf(loss[~mask]).all() and np.isfinite(loss[mask]).all()

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("window", [(0, 3, 0, 3), (17, 22, 30, 35), (28, 37, 6, 15),
                                        (0, 40, 0, 48)],
                             ids=["corner-3x3", "5x5", "9x9", "whole-48x40"])
    def test_stacked_pass_equals_per_plane(self, channels, window):
        # a probe scores the windows of 2 contexts and every channel in one
        # stacked pass; each plane must get the bits of its own pass
        rng = np.random.default_rng(channels + window[0])
        r0, r1, c0, c1 = window
        target = rng.uniform(0, 1, (channels, 40, 48))[:, r0:r1, c0:c1]
        h, w = r1 - r0, c1 - c0
        synth = rng.uniform(0, 1, (channels, 2, h, w))
        mask = rng.uniform(size=(2, h, w)) > 0.2
        mask[1, :, 0] = False
        m = mask.astype(np.float64)

        x = rng.uniform(-1, 1, (channels, 2, h, w))
        assert same_bits(losses._box_sum(x), np.array([[losses._box_sum(p) for p in planes]
                                                      for planes in x]))

        n = np.maximum(losses._box_sum(m), 1.0)
        ssim, grad_b = losses._ssim_channel(target[:, None], synth, m, n)
        g = rng.uniform(-1, 1, synth.shape)
        d_b = grad_b(target[:, None], synth, m, g)
        for c in range(channels):
            for s in range(2):
                n_s = np.maximum(losses._box_sum(m[s]), 1.0)
                plane, plane_grad_b = losses._ssim_channel(target[c], synth[c, s], m[s], n_s)
                assert same_bits(ssim[c, s], plane)
                assert same_bits(d_b[c, s], plane_grad_b(target[c], synth[c, s], m[s], g[c, s]))

        loss, backward = _photometric_forward(target, synth, mask, 0.85)
        upstream = np.where(mask, rng.uniform(0, 1, mask.shape), 0.0)
        d_synth = backward(upstream)
        for s in range(2):
            plane, plane_backward = _photometric_forward(target, synth[:, s], mask[s], 0.85)
            assert same_bits(loss[s], plane)
            assert same_bits(d_synth[:, s], plane_backward(upstream[s]))


def interp_matrix(n_out, n_in):
    """Dense 1-D corner-aligned linear-interpolation matrix (reference)."""
    a = np.zeros((n_out, n_in))
    if n_in == 1:
        a[:, 0] = 1.0
        return a
    s = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    j0 = np.minimum(s.astype(np.intp), n_in - 2)
    frac = s - j0
    a[np.arange(n_out), j0] = 1.0 - frac
    a[np.arange(n_out), j0 + 1] = frac
    return a


def pool_matrix(n_in):
    """Dense 1-D average-pooling matrix halving the size (reference)."""
    n_out = n_in // 2
    a = np.zeros((n_out, n_in))
    idx = np.arange(n_out)
    a[idx, 2 * idx] = 0.5
    a[idx, 2 * idx + 1] = 0.5
    return a


def dense_level_operators(h, w, s):
    """Row and column matrices of pyramid level s: up(n, n / 2^s) @ pool^s."""
    ops = []
    for n in (h, w):
        pool = np.eye(n)
        for _ in range(s):
            pool = pool_matrix(pool.shape[0]) @ pool
        ops.append(interp_matrix(n, n >> s) @ pool)
    return ops


class TestSeparablePyramid:
    @pytest.mark.parametrize("shape", [(40, 48), (24, 64), (16, 8), (8, 24)])
    @pytest.mark.parametrize("num_scales", [2, 3, 4])
    def test_matches_dense_operators_and_is_adjoint(self, shape, num_scales):
        h, w = shape
        rng = np.random.default_rng(h * w + num_scales)
        x = rng.uniform(-1, 1, shape)
        levels = losses._build_pyramid(x, num_scales)
        assert len(levels) == num_scales and levels[0] is x
        assert all(lv.shape == shape for lv in levels)
        # every entry is a sum of at most h + w weighted terms (dense matmul),
        # with weights of total magnitude ~1: allow (h + w) eps per side
        tol = 2 * (h + w) * EPS
        for s in range(1, num_scales):
            row_op, col_op = dense_level_operators(h, w, s)
            y = rng.uniform(-1, 1, shape)
            ax = levels[s]
            aty = losses._pyramid_level_t(y, 2**s)
            assert np.abs(ax - row_op @ x @ col_op.T).max() <= tol
            assert np.abs(aty - row_op.T @ y @ col_op).max() <= tol
            lhs, rhs = np.sum(ax * y), np.sum(x * aty)
            scale = np.sum(np.abs(ax * y)) + np.sum(np.abs(x * aty))
            assert abs(lhs - rhs) <= (h + w + np.log2(x.size)) * EPS * scale
