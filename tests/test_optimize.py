import math
from dataclasses import replace

import numpy as np
import pytest

from sfm_losskit import losses
from sfm_losskit.errors import ConfigError, DivergedError, NoSupervisionError
from sfm_losskit.geometry import PoseSE3
from sfm_losskit.losses import LossWeights
from sfm_losskit.optimize import (
    GradCheckReport,
    OptimConfig,
    OptimState,
    adam_update,
    gradcheck,
    init_state,
    run,
    step,
)
from sfm_losskit.synth import SceneSpec, make_scene


def quick_scene(**kw):
    kw.setdefault("geometry", "plane")
    kw.setdefault("width", 64)
    kw.setdefault("height", 48)
    kw.setdefault("d0", 8.0)
    kw.setdefault("baseline", 0.4)
    kw.setdefault("seed", 5)
    kw.setdefault("label_frac", 0.05)
    kw.setdefault("texture_cycles", 0.1)
    return make_scene(SceneSpec(**kw))


def quick_config(**kw):
    kw.setdefault("seed", 1)
    kw.setdefault("init_depth", 8.0)
    kw.setdefault("weights", LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=0.01))
    kw.setdefault("phase_a_iters", 120)
    kw.setdefault("phase_b_iters", 120)
    kw.setdefault("tol", 0.0)
    kw.setdefault("pose_init_trans_std", 0.05)
    return OptimConfig(**kw)


def scalar_state(x0):
    return OptimState(log_depth=np.array([[x0]]), pose_params=np.zeros((1, 6)))


class TestAdamUpdate:
    def test_matches_hand_stepped_trace(self):
        # quadratic f(x) = (x - 3)^2 / 2, gradient x - 3, three literal steps
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        cfg = OptimConfig(lr_depth=lr, beta1=b1, beta2=b2, epsilon=eps,
                          weights=LossWeights())
        state = scalar_state(0.0)
        x, m, v = 0.0, 0.0, 0.0
        for t in (1, 2, 3):
            g = x - 3.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

            g_state = state.log_depth[0, 0] - 3.0
            adam_update(state, np.array([[g_state]]), np.zeros((1, 6)), cfg)
            assert state.log_depth[0, 0] == x

    def test_pose_block_matches_hand_stepped_trace(self):
        # f(p) = |p - c|^2 / 2 over one pose vector, three literal steps with
        # the rotations at lr_pose / 10 and the translations at lr_pose
        lr, b1, b2, eps = 0.02, 0.8, 0.99, 1e-6
        cfg = OptimConfig(lr_pose=lr, beta1=b1, beta2=b2, epsilon=eps,
                          weights=LossWeights())
        state = scalar_state(0.0)
        c = [0.3, -0.2, 0.1, 1.5, -0.5, 0.25]
        p, m, v = [0.0] * 6, [0.0] * 6, [0.0] * 6
        for t in (1, 2, 3):
            for i in range(6):
                g = p[i] - c[i]
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                lr_i = lr / 10.0 if i < 3 else lr
                p[i] = p[i] - lr_i * (m[i] / (1 - b1**t)) / (math.sqrt(v[i] / (1 - b2**t)) + eps)

            g_state = state.pose_params - np.array([c])
            adam_update(state, np.zeros((1, 1)), g_state, cfg)
            assert state.pose_params[0].tolist() == p
        assert state.log_depth[0, 0] == 0.0

    def test_zero_gradient_is_fixed_point(self):
        cfg = OptimConfig(weights=LossWeights())
        state = scalar_state(1.234)
        state.pose_params = np.full((1, 6), 0.5)
        before = (state.log_depth.copy(), state.pose_params.copy())
        adam_update(state, np.zeros((1, 1)), np.zeros((1, 6)), cfg)
        assert (state.log_depth == before[0]).all()
        assert (state.pose_params == before[1]).all()

    def test_zero_learning_rate_freezes_parameters(self):
        cfg = OptimConfig(lr_depth=0.0, lr_pose=0.0, weights=LossWeights())
        state = scalar_state(0.7)
        before = state.log_depth.copy()
        adam_update(state, np.ones((1, 1)), np.ones((1, 6)), cfg)
        assert (state.log_depth == before).all()
        assert (state.pose_params == 0).all()

    def test_rotation_steps_at_a_tenth_of_lr_pose(self):
        # the rotation rate follows lr_pose, also after dataclasses.replace
        cfg = replace(OptimConfig(lr_pose=0.01, weights=LossWeights()), lr_pose=0.05)
        state = scalar_state(0.0)
        adam_update(state, np.zeros((1, 1)), np.ones((1, 6)), cfg)
        # a first Adam step under a constant gradient moves each parameter by ~lr
        assert state.pose_params[0, :3] == pytest.approx([-0.005] * 3, rel=1e-6)
        assert state.pose_params[0, 3:] == pytest.approx([-0.05] * 3, rel=1e-6)


class TestStep:
    def test_step_appends_history_and_increments(self):
        scene = quick_scene()
        cfg = quick_config()
        state = init_state(scene, cfg)
        out = step(state, scene, cfg)
        assert out is state
        assert state.iteration == 1
        assert len(state.loss_history) == 1

    def test_lr_zero_leaves_parameters(self):
        scene = quick_scene()
        cfg = quick_config(lr_depth=0.0, lr_pose=0.0)
        state = init_state(scene, cfg)
        log0 = state.log_depth.copy()
        pose0 = state.pose_params.copy()
        step(state, scene, cfg)
        assert (state.log_depth == log0).all()
        assert (state.pose_params == pose0).all()
        assert state.iteration == 1

    def test_non_finite_gradient_raises_diverged(self, monkeypatch):
        scene = quick_scene()
        cfg = quick_config()
        state = init_state(scene, cfg)
        state.iteration = 7

        def bad_grad(*args, **kwargs):
            bd = losses.LossBreakdown(
                photo=np.nan, smooth=0.0, rep=0.0, total=np.nan,
                masked_pixel_count=1,
            )
            return bd, np.full(scene.gt_depth.shape, np.nan), np.zeros((2, 6))

        monkeypatch.setattr(losses, "total_loss_grad", bad_grad)
        with pytest.raises(DivergedError) as exc:
            step(state, scene, cfg)
        assert exc.value.iteration == 7


class TestRun:
    def test_two_phase_improves_scale(self):
        scene = quick_scene()
        cfg = quick_config(init_depth=8.0 * 1.6, phase_a_iters=250, phase_b_iters=250)
        state, report = run(scene, cfg)
        assert abs(report.median_ratio_b - 1.0) < abs(report.median_ratio_a - 1.0)
        assert report.final.total < state.loss_history[0].total

    def test_phase_a_lands_on_scale_valley(self):
        scene = quick_scene()
        cfg = quick_config(phase_a_iters=250, phase_b_iters=1,
                           init_depth=8.0 * 1.4)
        state, report = run(scene, cfg)
        # re-evaluate the unsupervised objective under joint rescaling
        weights_a = replace(cfg.weights, lambda_rep=0.0)
        depth = state.depth()

        def total_at(scale):
            ctx = []
            for (img, _), params in zip(scene.contexts, state.pose_params):
                pose = PoseSE3.from_params(params)
                ctx.append(
                    (img, PoseSE3(rotation=pose.rotation,
                                  translation=tuple(scale * pose.translation_vector())))
                )
            return losses.total_loss(
                scene.target, ctx, scale * depth, scene.intrinsics, weights_a
            ).total

        base = total_at(1.0)
        for s in (0.5, 2.0):
            assert total_at(s) == pytest.approx(base, rel=1e-6)

    def test_no_labels_raises(self):
        scene = quick_scene(label_frac=0.0, beams=0)
        with pytest.raises(NoSupervisionError):
            run(scene, quick_config())

    def test_zero_baseline_scene_raises(self):
        scene = quick_scene(baseline=0.0)
        with pytest.raises(NoSupervisionError):
            run(scene, quick_config())

    def test_zero_supervised_weight_rejected(self):
        scene = quick_scene()
        cfg = quick_config(weights=LossWeights(lambda_rep=0.0))
        with pytest.raises(ConfigError):
            run(scene, cfg)

    def test_determinism_bit_identical_histories(self):
        scene = quick_scene()
        cfg = quick_config(phase_a_iters=40, phase_b_iters=30)
        _, rep_a = run(scene, cfg)
        state_a_hist = [bd.total for bd in _.loss_history]
        state_b, rep_b = run(scene, quick_config(phase_a_iters=40, phase_b_iters=30))
        state_b_hist = [bd.total for bd in state_b.loss_history]
        assert state_a_hist == state_b_hist
        assert rep_a.median_history == rep_b.median_history

    def test_convergence_tolerance_stops_early(self):
        scene = quick_scene()
        cfg = quick_config(tol=0.5, tol_window=3, phase_a_iters=200,
                           phase_b_iters=200)
        state, report = run(scene, cfg)
        assert report.iters_a < 200

    def test_reports_written(self, tmp_path):
        scene = quick_scene()
        cfg = quick_config(phase_a_iters=20, phase_b_iters=15)
        run(scene, cfg, out_dir=tmp_path)
        hist = (tmp_path / "loss_history.csv").read_text().splitlines()
        assert hist[0] == "iteration,photo,smooth,rep,total,median_ratio"
        assert len(hist) == 36
        assert (tmp_path / "metrics.csv").exists()


class TestGradcheck:
    def test_all_terms_zero_weights(self):
        scene = quick_scene()
        report = gradcheck(
            scene, LossWeights(lambda_smooth=0.0, lambda_rep=0.0),
            n_samples=20, terms=(), seed=0,
        )
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_rep_only_single_label_exhaustive(self):
        scene = quick_scene(label_frac=0.0, beams=0, width=48, height=40)
        labels = np.zeros_like(scene.gt_depth)
        labels[20, 24] = scene.gt_depth[20, 24]
        scene.labels.depth = labels
        scene.labels.beam_id = np.where(labels > 0, 0, -1)
        scene.labels.num_beams = 1
        report = gradcheck(
            scene, LossWeights(lambda_rep=1.0), n_samples=1, h=1e-5,
            tol=1e-6, seed=3, terms=("rep",),
        )
        assert report.n_checked == 13  # 1 depth pixel + 12 pose parameters
        assert report.passed, report.failures

    def test_invalid_h_rejected(self):
        scene = quick_scene()
        with pytest.raises(ConfigError):
            gradcheck(scene, LossWeights(), h=0.0)

    def test_report_structure(self):
        scene = quick_scene(width=48, height=40)
        report = gradcheck(scene, LossWeights(lambda_rep=1.0), n_samples=40, seed=2)
        assert isinstance(report, GradCheckReport)
        assert report.n_checked == 40 + 12
        assert 0 <= report.n_passed <= report.n_checked


class TestOptimState:
    def test_poses_round_trip(self):
        state = OptimState(
            log_depth=np.zeros((4, 4)),
            pose_params=np.array([[0.1, -0.2, 0.3, 1.0, 2.0, 3.0]]),
        )
        pose = PoseSE3.from_params(state.pose_params[0])
        assert pose.rotation == pytest.approx((0.1, -0.2, 0.3))
        assert pose.translation == pytest.approx((1.0, 2.0, 3.0))

    def test_reset_moments_clears_adam(self):
        state = OptimState(log_depth=np.zeros((2, 2)), pose_params=np.zeros((1, 6)))
        state.m_depth += 1.0
        state.adam_t = 9
        state.reset_moments()
        assert (state.m_depth == 0).all()
        assert state.adam_t == 0
