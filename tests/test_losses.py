import math

import numpy as np
import pytest

from sfm_losskit import losses, warp
from sfm_losskit.errors import (
    DegenerateMaskError,
    EmptyContextError,
    NoSupervisionError,
)
from sfm_losskit.geometry import CameraIntrinsics, PoseSE3, warp_chain
from sfm_losskit.losses import (
    LossWeights,
    _depth_error,
    _image_gradient_weights,
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
    h, w, channels = a.shape
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
                            xs.append(a[ii, jj, c])
                            ys.append(b[ii, jj, c])
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
    return img[..., None]


class TestSsim:
    """The per-channel SSIM maps of _ssim_channels under a 0/1 float mask."""

    def test_identical_images_score_one(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (8, 9, 3))
        for cache in _ssim_channels(img, img, np.ones((8, 9))):
            assert np.abs(cache.ssim - 1.0).max() < 1e-12

    def test_constant_images_score_one(self):
        a = np.full((6, 6, 1), 0.5)
        s = _ssim_channels(a, a.copy(), np.ones((6, 6)))[0].ssim
        assert np.abs(s - 1.0).max() < 1e-12

    def test_inverted_checkerboard_is_negative_inside(self):
        img = checkerboard(8, 8)
        s = _ssim_channels(img, 1.0 - img, np.ones((8, 8)))[0].ssim
        assert (s[1:-1, 1:-1] < 0).all()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (7, 8, 1))
        b = rng.uniform(0, 1, (7, 8, 1))
        s = _ssim_channels(a, b, np.ones((7, 8)))[0].ssim
        assert np.abs(s - brute_force_ssim(a, b)).max() < 1e-12

    def test_masked_windows_match_brute_force(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, (7, 8, 1))
        b = rng.uniform(0, 1, (7, 8, 1))
        mask = rng.uniform(size=(7, 8)) > 0.3
        ours = _ssim_channels(a, b, mask.astype(np.float64))[0].ssim
        oracle = brute_force_ssim(a, b, mask=mask)
        assert np.abs((ours - oracle)[mask]).max() < 1e-12

    def test_values_bounded(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (10, 10, 3))
        b = rng.uniform(0, 1, (10, 10, 3))
        for cache in _ssim_channels(a, b, np.ones((10, 10))):
            assert (np.abs(cache.ssim) <= 1.0 + 1e-12).all()


class TestPhotometric:
    def test_perfect_reconstruction_is_zero(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (6, 7, 3))
        mask = np.ones((6, 7), bool)
        loss = _photometric_forward(img, img.copy(), mask, 0.85)[0]
        assert np.abs(loss).max() < 1e-12

    def test_pure_l1_constant_images(self):
        a = np.full((5, 5, 1), 0.2)
        b = np.full((5, 5, 1), 0.7)
        loss = _photometric_forward(a, b, np.ones((5, 5), bool), alpha=0.0)[0]
        assert loss == pytest.approx(0.5)

    def test_matches_independent_two_term_evaluation(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (6, 8, 3))
        b = rng.uniform(0, 1, (6, 8, 3))
        mask = np.ones((6, 8), bool)
        alpha = 0.85
        loss = _photometric_forward(a, b, mask, alpha)[0]
        expected = np.zeros((6, 8))
        for c in range(3):
            s = _ssim_channels(a[..., c : c + 1], b[..., c : c + 1], np.ones((6, 8)))[0].ssim
            expected += alpha * np.clip((1 - s) / 2, 0, 1)
            expected += (1 - alpha) * np.abs(a[..., c] - b[..., c])
        expected /= 3
        assert np.abs(loss - expected).max() < 1e-12

    def test_invalid_pixels_carry_inf(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, (5, 5, 1))
        mask = np.ones((5, 5), bool)
        mask[1, 2] = False
        loss = _photometric_forward(a, a.copy(), mask, 0.85)[0]
        assert np.isinf(loss[1, 2])
        assert np.isfinite(loss[mask]).all()

    def test_upper_bound(self):
        a = np.zeros((6, 6, 1))
        b = np.ones((6, 6, 1))
        for alpha in (0.0, 0.5, 0.85, 1.0):
            loss = _photometric_forward(a, b, np.ones((6, 6), bool), alpha)[0]
            assert (loss <= alpha + (1 - alpha) + 1e-12).all()

    def test_window_count_shared_by_channels(self, monkeypatch):
        # one RGB forward evaluation with 2 contexts: per context one window
        # count plus 5 window statistics per channel, 2 * (1 + 5 * 3) = 32
        scene = small_scene(channels=3)
        unwarped = losses.unwarped_min_photometric(scene.target, scene.contexts, 0.85)
        calls = []
        box_sum = losses._box_sum

        def counting_box_sum(x):
            calls.append(x.shape)
            return box_sum(x)

        monkeypatch.setattr(losses, "_box_sum", counting_box_sum)
        total_loss(
            scene.target, scene.contexts, scene.gt_depth, scene.intrinsics,
            LossWeights(), labels=scene.labels.depth, unwarped_min=unwarped,
        )
        assert len(scene.contexts) == 2
        assert len(calls) == 32


SMALL_K = CameraIntrinsics(fx=40.0, fy=40.0, cx=23.5, cy=15.5, width=48, height=32)


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
        m, argmin = min_photometric(
            scene.target, [(src, pose)], scene.gt_depth, scene.intrinsics, 0.85
        )
        chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
        synth = warp.sample_bilinear(src, chain.coords, chain.valid)
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
        m1, _ = min_photometric(
            scene.target, [(src, pose)], scene.gt_depth, scene.intrinsics, 0.85
        )
        m2, _ = min_photometric(
            scene.target, [(src, pose), (src, pose)], scene.gt_depth, scene.intrinsics, 0.85
        )
        both = np.isfinite(m1)
        assert (m1[~both] == np.inf).all() and (m2[~both] == np.inf).all()
        assert np.isfinite(m2[both]).all()
        assert np.abs(m1[both] - m2[both]).max() == 0.0

    def test_min_below_each_source(self):
        scene = small_scene()
        m, _ = min_photometric(
            scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, 0.85
        )
        for src, pose in scene.contexts:
            chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
            synth = warp.sample_bilinear(src, chain.coords, chain.valid)
            single = _photometric_forward(scene.target, synth, chain.valid, 0.85)[0]
            assert (m <= single + 1e-15).all()

    def test_occluded_region_uses_clean_source(self):
        # d1=4 vs d0=10 at baseline 0.8 gives a ~6 px occlusion band
        scene = small_scene(
            geometry="two_plane", d0=10.0, d1=4.0, strip_min=-2.0,
            strip_max=-0.2, baseline=0.8, width=64, height=48,
        )
        per_source = []
        for src, pose in scene.contexts:
            chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
            synth = warp.sample_bilinear(src, chain.coords, chain.valid)
            per_source.append(_photometric_forward(scene.target, synth, chain.valid, 0.85)[0])
        m, argmin = min_photometric(
            scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, 0.85
        )
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
            min_photometric(scene.target, [], scene.gt_depth, scene.intrinsics, 0.85)


class TestAutomask:
    def test_static_scene_masks_everything_out(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, (8, 10, 1))
        ones = np.ones((8, 10), bool)
        warped = _photometric_forward(img, img.copy(), ones, 0.85)[0]
        unwarped = _photometric_forward(img, img.copy(), ones, 0.85)[0]
        assert not _static_mask(unwarped, warped).any()

    def test_texture_free_images_mask_false(self):
        img = np.full((6, 6, 1), 0.4)
        ones = np.ones((6, 6), bool)
        loss = _photometric_forward(img, img.copy(), ones, 0.85)[0]
        assert not _static_mask(loss, loss).any()

    def test_parallax_scene_keeps_textured_pixels(self):
        scene = small_scene(width=64, height=48)
        warped = []
        unwarped = []
        ones = np.ones(scene.target.shape[:2], bool)
        for src, pose in scene.contexts:
            chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
            synth = warp.sample_bilinear(src, chain.coords, chain.valid)
            warped.append(_photometric_forward(scene.target, synth, chain.valid, 0.85)[0])
            unwarped.append(_photometric_forward(scene.target, src, ones, 0.85)[0])
        mask = _static_mask(_min_over_sources(unwarped)[0], _min_over_sources(warped)[0])
        assert mask.mean() > 0.9


class TestSmoothness:
    def test_constant_depth_is_zero(self):
        weights = _image_gradient_weights(np.full((8, 8, 1), 0.3))
        assert _smoothness_forward(np.full((8, 8), 5.0), weights)[0] == 0.0

    def test_linear_ramp_closed_form(self):
        h, w = 10, 12
        depth = 5.0 + 0.25 * np.tile(np.arange(w, dtype=float), (h, 1))
        img = np.full((h, w, 1), 0.5)  # constant image: edge weights are 1
        disp = 1.0 / depth
        dhat = disp / disp.mean()
        expected = np.abs(np.diff(dhat, axis=1))[: h - 1, :].mean()
        value = _smoothness_forward(depth, _image_gradient_weights(img))[0]
        assert value == pytest.approx(expected, rel=1e-12)

    def test_image_edge_suppresses_depth_step(self):
        h, w = 8, 12
        depth = np.full((h, w), 5.0)
        depth[:, w // 2 :] = 7.0
        flat = np.full((h, w, 1), 0.5)
        edged = flat.copy()
        g = 0.4
        edged[:, w // 2 :, 0] += g  # hard image edge collocated with the step
        loss_flat = _smoothness_forward(depth, _image_gradient_weights(flat))[0]
        loss_edged = _smoothness_forward(depth, _image_gradient_weights(edged))[0]
        assert loss_edged == pytest.approx(loss_flat * math.exp(-g), rel=1e-12)

    def test_scale_invariance_of_normalized_disparity(self):
        rng = np.random.default_rng(8)
        depth = rng.uniform(3, 12, (9, 9))
        weights = _image_gradient_weights(rng.uniform(0, 1, (9, 9, 1)))
        a = _smoothness_forward(depth, weights)[0]
        b = _smoothness_forward(3.7 * depth, weights)[0]
        assert a == pytest.approx(b, rel=1e-12)


class TestReprojectedDistance:
    def test_pred_equals_gt_is_zero(self):
        scene = small_scene()
        _, pose = scene.contexts[0]
        out = _rep_distance(
            scene.gt_depth, scene.labels.depth, pose, scene.intrinsics, want_grad=False
        )[0]
        assert out.value == 0.0
        assert out.count == scene.labels.n_labels

    def test_single_pixel_hand_computed(self):
        k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
        gt = np.zeros((4, 4))
        gt[0, 0] = 2.0
        pred = np.full((4, 4), 4.0)
        pose = PoseSE3(translation=(1.0, 0.0, 0.0))
        out = _rep_distance(pred, gt, pose, k, want_grad=False)[0]
        # pi(T*(4,0,0,1)-ray) = 1/4 + 0 = 0.25 ; pi with d=2 -> 0.5
        assert out.value == pytest.approx(0.25, abs=1e-15)
        assert out.count == 1

    def test_identity_pose_is_zero_for_any_prediction(self):
        scene = small_scene()
        pred = scene.gt_depth * 3.1
        out = _rep_distance(
            pred, scene.labels.depth, PoseSE3.identity(), scene.intrinsics, want_grad=False
        )[0]
        assert out.value == pytest.approx(0.0, abs=1e-12)

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
            values.append(_rep_distance(pred, gt, pose, k, want_grad=False)[0].value)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_no_labels_raises(self):
        scene = small_scene()
        with pytest.raises(NoSupervisionError):
            _rep_distance(
                scene.gt_depth, np.zeros_like(scene.gt_depth),
                scene.contexts[0][1], scene.intrinsics, want_grad=False,
            )

    def test_behind_camera_labels_dropped(self):
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=1.5, cy=1.5, width=4, height=4)
        gt = np.zeros((4, 4))
        gt[0, 0] = 1.0
        gt[1, 1] = 5.0
        pred = np.where(gt > 0, gt * 1.1, 0.0)
        pose = PoseSE3(translation=(0.0, 0.0, -2.0))  # pulls near labels behind
        out = _rep_distance(pred, gt, pose, k, want_grad=False)[0]
        assert out.count == 1
        assert out.dropped == 1


class TestBaselines:
    def test_zero_error(self):
        gt = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert _depth_error(gt, gt, "l1", want_grad=False)[0] == 0.0
        assert _depth_error(gt, gt, "berhu", want_grad=False)[0] == 0.0

    def test_l1_single_error(self):
        gt = np.array([[2.0, 0.0]])
        pred = np.array([[7.0, 0.5]])
        assert _depth_error(pred, gt, "l1", want_grad=False)[0] == pytest.approx(5.0)

    def test_berhu_hand_computed_branches(self):
        gt = np.array([[1.0, 1.0]])
        pred = np.array([[2.0, 11.0]])  # errors 1 and 10, c = 0.2 * 10 = 2
        expected = (1.0 + (100 + 4) / 4.0) / 2.0
        assert _depth_error(pred, gt, "berhu", want_grad=False)[0] == pytest.approx(expected)

    def test_berhu_default_threshold(self):
        gt = np.array([[1.0, 1.0]])
        pred = np.array([[2.0, 6.0]])  # errors 1, 5 -> c = 1
        c = 0.2 * 5.0
        expected = ((1.0**2 + c * c) / (2 * c) + (25 + c * c) / (2 * c)) / 2.0
        assert _depth_error(pred, gt, "berhu", want_grad=False)[0] == pytest.approx(expected)

    def test_empty_overlap(self):
        with pytest.raises(NoSupervisionError):
            _depth_error(np.zeros((2, 2)), np.zeros((2, 2)), "l1", want_grad=False)


def scaled_contexts(contexts, s):
    return [
        (img, PoseSE3(rotation=p.rotation, translation=tuple(s * np.asarray(p.translation))))
        for img, p in contexts
    ]


class TestTotalLoss:
    def test_breakdown_invariant(self):
        scene = small_scene()
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1e4)
        bd = total_loss(
            scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, w,
            labels=scene.labels.depth,
        )
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
        bd = total_loss(
            scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, w,
            labels=scene.labels.depth,
        )
        assert bd.photo < 1e-3

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_scale_ambiguity_invariance(self, s):
        scene = small_scene(geometry="slant", slant=15.0)
        rng = np.random.default_rng(9)
        depth = scene.gt_depth * np.exp(rng.normal(0, 0.08, scene.gt_depth.shape))
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=0.0)
        a = total_loss(scene.target, scene.contexts, depth, scene.intrinsics, w)
        b = total_loss(
            scene.target, scaled_contexts(scene.contexts, s), s * depth,
            scene.intrinsics, w,
        )
        assert b.total == pytest.approx(a.total, rel=1e-9)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_scale_breaking_with_supervision(self, s):
        scene = small_scene()
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1e4)
        base = total_loss(
            scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, w,
            labels=scene.labels.depth,
        )
        scaled = total_loss(
            scene.target, scaled_contexts(scene.contexts, s), s * scene.gt_depth,
            scene.intrinsics, w, labels=scene.labels.depth,
        )
        assert scaled.total > base.total

    def test_static_scene_raises_degenerate_mask(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(0, 1, (16, 16, 1))
        k = CameraIntrinsics(fx=16, fy=16, cx=7.5, cy=7.5, width=16, height=16)
        depth = np.full((16, 16), 4.0)
        with pytest.raises(DegenerateMaskError):
            total_loss(
                img, [(img.copy(), PoseSE3.identity())], depth, k,
                LossWeights(lambda_rep=0.0),
            )

    def test_missing_labels_with_positive_weight_raises(self):
        scene = small_scene()
        w = LossWeights(lambda_rep=1.0)
        with pytest.raises(NoSupervisionError):
            total_loss(
                scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, w,
                labels=np.zeros_like(scene.gt_depth),
            )

    def test_supervised_l1_and_berhu_variants(self):
        scene = small_scene()
        w = LossWeights(lambda_rep=1.0)
        pred = scene.gt_depth * 1.3
        for mode in ("l1", "berhu"):
            bd = total_loss(
                scene.target, scene.contexts, pred, scene.intrinsics, w,
                labels=scene.labels.depth, supervised=mode,
            )
            oracle = _depth_error(pred, scene.labels.depth, mode, want_grad=False)[0]
            assert bd.rep == pytest.approx(oracle, rel=1e-12)


class TestTotalLossGrad:
    def test_gradient_zero_cases(self):
        scene = small_scene()
        w = LossWeights(alpha=0.85, lambda_smooth=0.0, lambda_rep=1.0)
        _, d_depth, d_poses = total_loss_grad(
            scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, w,
            labels=scene.labels.depth, terms=("smooth", "rep"),
        )
        # at pred == gt the reprojected term sits at the subgradient-zero minimum
        assert np.abs(d_depth).max() == 0.0
        assert np.abs(d_poses).max() == 0.0

    def test_constant_images_zero_photo_gradient(self):
        # constant images would be fully removed by the static-pixel mask, so
        # force the mask open via the cache override: the flat photometric
        # landscape must still give exactly zero depth/pose gradients
        k = CameraIntrinsics(fx=16, fy=16, cx=7.5, cy=7.5, width=16, height=16)
        img = np.full((16, 16, 1), 0.5)
        ctx_img = np.full((16, 16, 1), 0.6)
        depth = np.full((16, 16), 4.0)
        pose = PoseSE3(translation=(0.2, 0.0, 0.0))
        w = LossWeights(alpha=0.0, lambda_smooth=0.0, lambda_rep=0.0)
        _, d_depth, d_poses = total_loss_grad(
            img, [(ctx_img, pose)], depth, k, w,
            unwarped_min=np.full((16, 16), 0.5),
        )
        assert np.abs(d_depth).max() == 0.0
        assert np.abs(d_poses).max() == 0.0

    def test_matches_finite_differences_on_random_scene(self):
        from sfm_losskit.optimize import gradcheck

        scene = small_scene(geometry="slant", slant=10.0)
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=1.0)
        report = gradcheck(scene, w, n_samples=688, h=1e-5, tol=1e-4, seed=0)
        assert report.passed, report.failures[:5]

    def test_pyramid_gradients_match_finite_differences(self):
        from sfm_losskit.optimize import gradcheck

        scene = small_scene(width=48, height=40)
        w = LossWeights(alpha=0.85, lambda_smooth=1e-2, lambda_rep=1.0)
        report = gradcheck(
            scene, w, n_samples=688, h=1e-5, tol=1e-4, seed=1, num_scales=4
        )
        assert report.passed, report.failures[:5]

    def test_pyramid_forward_reduces_to_single_scale_at_level_zero(self):
        scene = small_scene(width=48, height=40)
        w = LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=0.0)
        one = total_loss(scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, w)
        four = total_loss(
            scene.target, scene.contexts, scene.gt_depth, scene.intrinsics, w,
            num_scales=4,
        )
        # constant-depth pyramid levels reproduce the same depth, so photo agrees
        assert four.photo == pytest.approx(one.photo, rel=1e-9)


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
        cache = losses._ssim_channel(a, b, m, n)
        s, grad_b = direct_ssim_channel(a, b, m, n)
        assert same_bits(cache.ssim, s)
        g = rng.uniform(-1, 1, (11, 13))
        assert same_bits(losses._ssim_channel_grad_b(cache, a, b, m, g), grad_b(g))

    def test_photometric_marks_invalid_pixels_inf(self):
        rng = np.random.default_rng(8)
        target, synth = rng.uniform(0, 1, (2, 6, 9, 3))
        for mask in (rng.uniform(size=(6, 9)) > 0.4, np.ones((6, 9), bool),
                     np.zeros((6, 9), bool)):
            # the objective passes the warp chain's mask without a copy, so
            # the term must only read it: a write into it raises
            mask.setflags(write=False)
            loss = _photometric_forward(target, synth, mask, 0.85)[0]
            assert np.isposinf(loss[~mask]).all() and np.isfinite(loss[mask]).all()


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
        assert [lv.factor for lv in levels] == [2**s for s in range(num_scales)]
        assert levels[0].depth is x
        # every entry is a sum of at most h + w weighted terms (dense matmul),
        # with weights of total magnitude ~1: allow (h + w) eps per side
        tol = 2 * (h + w) * EPS
        for s in range(1, num_scales):
            row_op, col_op = dense_level_operators(h, w, s)
            y = rng.uniform(-1, 1, shape)
            ax = levels[s].depth
            aty = losses._pyramid_level_t(y, 2**s)
            assert np.abs(ax - row_op @ x @ col_op.T).max() <= tol
            assert np.abs(aty - row_op.T @ y @ col_op).max() <= tol
            lhs, rhs = np.sum(ax * y), np.sum(x * aty)
            scale = np.sum(np.abs(ax * y)) + np.sum(np.abs(x * aty))
            assert abs(lhs - rhs) <= (h + w + np.log2(x.size)) * EPS * scale
