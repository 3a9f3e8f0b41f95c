import math
import re
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from sfm_losskit import geometry, io_codecs, losses, metrics, optimize
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
    kw.setdefault("beams", 8)
    kw.setdefault("px_per_beam", 12)
    kw.setdefault("texture_cycles", 0.1)
    return make_scene(SceneSpec(**kw))


def quick_config(**kw):
    kw.setdefault("seed", 1)
    kw.setdefault("init_depth", 8.0)
    kw.setdefault("weights", LossWeights(alpha=0.85, lambda_smooth=1e-3, lambda_rep=0.01))
    kw.setdefault("phase_a_iters", 120)
    kw.setdefault("phase_b_iters", 120)
    kw.setdefault("tol", 0.0)
    return OptimConfig(**kw)


def scene_objective(scene, cfg):
    """The objective `run` builds for phase B of ``cfg`` on ``scene``."""
    return losses.Objective(
        scene.target, [img for img, _ in scene.contexts], scene.intrinsics, cfg.weights,
        labels=scene.labels.depth, num_scales=cfg.num_scales, supervised=cfg.supervised_loss,
    )


def scalar_state(x0):
    return OptimState(log_depth=np.array([[x0]]), pose_params=np.zeros((1, 6)))


class TestAdamUpdate:
    def test_matches_hand_stepped_trace(self):
        # quadratic f(x) = (x - 3)^2 / 2, gradient x - 3, three literal steps
        lr, b1, b2, eps = optimize.LR_DEPTH, optimize.BETA1, optimize.BETA2, optimize.EPSILON
        state = scalar_state(0.0)
        x, m, v = 0.0, 0.0, 0.0
        for t in (1, 2, 3):
            g = x - 3.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

            g_state = state.log_depth[0, 0] - 3.0
            adam_update(state, np.array([[g_state]]), np.zeros((1, 6)))
            assert state.log_depth[0, 0] == x

    def test_pose_block_matches_hand_stepped_trace(self):
        # f(p) = |p - c|^2 / 2 over one pose vector, three literal steps with
        # the rotations at LR_POSE / 10 and the translations at LR_POSE
        lr, b1, b2, eps = optimize.LR_POSE, optimize.BETA1, optimize.BETA2, optimize.EPSILON
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
            adam_update(state, np.zeros((1, 1)), g_state)
            assert state.pose_params[0].tolist() == p
        assert state.log_depth[0, 0] == 0.0

    def test_zero_gradient_is_fixed_point(self):
        state = scalar_state(1.234)
        state.pose_params = np.full((1, 6), 0.5)
        before = (state.log_depth.copy(), state.pose_params.copy())
        adam_update(state, np.zeros((1, 1)), np.zeros((1, 6)))
        assert (state.log_depth == before[0]).all()
        assert (state.pose_params == before[1]).all()

    def test_rotation_steps_at_a_tenth_of_lr_pose(self):
        state = scalar_state(0.0)
        adam_update(state, np.zeros((1, 1)), np.ones((1, 6)))
        # a first Adam step under a constant gradient moves each parameter by ~lr
        lr = optimize.LR_POSE
        assert state.pose_params[0, :3] == pytest.approx([-lr / 10] * 3, rel=1e-6)
        assert state.pose_params[0, 3:] == pytest.approx([-lr] * 3, rel=1e-6)


class TestStep:
    def test_step_appends_history_and_increments(self):
        scene = quick_scene()
        cfg = quick_config()
        state = init_state(scene, cfg)
        out = step(state, scene_objective(scene, cfg))
        assert out is state
        assert state.iteration == 1
        assert len(state.loss_history) == 1

    def test_non_finite_gradient_raises_diverged(self, monkeypatch):
        scene = quick_scene()
        cfg = quick_config()
        state = init_state(scene, cfg)
        state.iteration = 7
        objective = scene_objective(scene, cfg)

        def bad_grad(*args, **kwargs):
            bd = losses.LossBreakdown(
                photo=np.nan, smooth=0.0, rep=0.0, total=np.nan,
                masked_pixel_count=1,
            )
            return bd, np.full(scene.gt_depth.shape, np.nan), np.zeros((2, 6))

        monkeypatch.setattr(losses, "total_loss_grad", bad_grad)
        with pytest.raises(DivergedError) as exc:
            step(state, objective)
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
        objective = scene_objective(scene, cfg).unsupervised()
        depth = state.depth()

        def total_at(scale):
            poses = []
            for params in state.pose_params:
                pose = PoseSE3.from_params(params)
                poses.append(PoseSE3(rotation=pose.rotation,
                                     translation=tuple(scale * pose.translation_vector())))
            return losses.total_loss(objective, poses, scale * depth).total

        base = total_at(1.0)
        for s in (0.5, 2.0):
            assert total_at(s) == pytest.approx(base, rel=1e-6)

    def test_no_labels_raises(self):
        scene = quick_scene(beams=0)
        with pytest.raises(NoSupervisionError):
            run(scene, quick_config())

    def test_step_without_labels_raises(self):
        # a positive supervised weight and no label: the term is not dropped,
        # so the objective a step needs cannot be built
        scene = quick_scene(beams=0)
        cfg = quick_config()
        with pytest.raises(NoSupervisionError):
            scene_objective(scene, cfg)
        cfg = replace(cfg, weights=replace(cfg.weights, lambda_rep=0.0))
        state = step(init_state(scene, cfg), scene_objective(scene, cfg))
        assert state.loss_history[-1].rep_pixel_count == 0

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
        cfg = quick_config(tol=0.5, phase_a_iters=200, phase_b_iters=200)
        state, report = run(scene, cfg)
        assert report.iters_a < 200

    def test_each_phase_starts_its_own_tolerance_window(self):
        # at tol 1 every step after a phase's first counts as flat; phase A's
        # last loss, from another objective, must not count for phase B
        cfg = quick_config(tol=1.0, phase_a_iters=200, phase_b_iters=200)
        _, report = run(quick_scene(), cfg)
        assert report.iters_a == report.iters_b == optimize.TOL_WINDOW + 1

    def test_reports_written(self, tmp_path):
        scene = quick_scene()
        cfg = quick_config(phase_a_iters=20, phase_b_iters=15)
        run(scene, cfg, out_dir=tmp_path)
        hist = (tmp_path / "loss_history.csv").read_text().splitlines()
        assert hist[0] == "iteration,photo,smooth,rep,total,median_ratio"
        assert len(hist) == 36
        assert (tmp_path / "metrics.csv").exists()

    def test_estimated_depth_written(self, tmp_path):
        # depth.pfm holds the final depth, rounded to float32, and scores as
        # metrics.csv within that rounding
        scene = quick_scene()
        cfg = quick_config(phase_a_iters=20, phase_b_iters=15)
        state, report = run(scene, cfg, out_dir=tmp_path)
        written = io_codecs.read_pfm(tmp_path / "depth.pfm")
        assert written.dtype == np.float32
        assert (written == state.depth().astype(np.float32)).all()
        rescored = metrics.evaluate(written.astype(np.float64), scene.gt_depth)
        for f in fields(metrics.DepthMetrics):
            assert getattr(rescored, f.name) == pytest.approx(
                getattr(report.metrics_all, f.name), rel=1e-6), f.name

    def test_unwarped_min_computed_once_per_run(self, monkeypatch):
        # phase A's objective shares phase B's static-pixel reference
        calls = []
        unwarped = losses.unwarped_min_photometric

        def counting(objective):
            calls.append(objective)
            return unwarped(objective)

        monkeypatch.setattr(losses, "unwarped_min_photometric", counting)
        run(quick_scene(), quick_config(phase_a_iters=3, phase_b_iters=3))
        assert len(calls) == 1


class TestGradcheck:
    def test_all_terms_zero_weights(self):
        # no term checks nothing, which is an error, not a PASS with max_rel 0
        scene = quick_scene()
        with pytest.raises(ConfigError, match=r"terms \[\], weight 0 for \[\]"):
            gradcheck(scene, LossWeights(lambda_smooth=0.0, lambda_rep=0.0),
                      n_samples=20, terms=(), seed=0)

    @pytest.mark.parametrize("terms, weights, named", [
        (("smooth",), LossWeights(lambda_smooth=0.0), "['smooth']"),
        (("rep",), LossWeights(lambda_rep=0.0), "['rep']"),
        (losses.TERMS, LossWeights(lambda_smooth=0.0, lambda_rep=0.0), "['smooth', 'rep']"),
    ])
    def test_zero_weight_term_rejected(self, terms, weights, named):
        with pytest.raises(ConfigError, match=f"weight 0 for {re.escape(named)}$"):
            gradcheck(quick_scene(width=48, height=40), weights, n_samples=2, terms=terms)

    def test_call_structure(self, monkeypatch):
        # one gradient and two forward evaluations per probe, each warping
        # every context at every scale, and no warp outside them: the
        # structure `make smoke` pins on the benchmark's gradcheck workload
        calls = {"total_loss": 0, "total_loss_grad": 0}
        warps = []  # warp_chain calls of each evaluation
        running = [False]
        stray = []

        def counted(name):
            evaluate = getattr(losses, name)

            def wrapper(*args):
                calls[name] += 1
                warps.append(0)
                running[0] = True
                try:
                    return evaluate(*args)
                finally:
                    running[0] = False
            monkeypatch.setattr(losses, name, wrapper)

        warp_chain = geometry.warp_chain

        def chain(*args):
            if running[0]:
                warps[-1] += 1
            else:
                stray.append(args)
            return warp_chain(*args)

        for name in calls:
            counted(name)
        monkeypatch.setattr(geometry, "warp_chain", chain)
        scene = quick_scene(width=48, height=40, channels=3)
        gradcheck(scene, LossWeights(lambda_rep=1.0), n_samples=5, num_scales=2)
        probes = 5 + 6 * len(scene.contexts)
        assert calls == {"total_loss": 2 * probes, "total_loss_grad": 1}
        assert warps == [2 * len(scene.contexts)] * (2 * probes + 1)
        assert stray == []

    @pytest.mark.parametrize("terms, expected", [(losses.TERMS, 1), (("photo",), 1),
                                                 (("smooth", "rep"), 0)])
    def test_unwarped_min_computed_once_with_photo(self, monkeypatch, terms, expected):
        calls = []
        unwarped = losses.unwarped_min_photometric

        def counting(objective):
            calls.append(objective)
            return unwarped(objective)

        monkeypatch.setattr(losses, "unwarped_min_photometric", counting)
        gradcheck(quick_scene(width=48, height=40), LossWeights(lambda_rep=1.0),
                  n_samples=2, terms=terms)
        assert len(calls) == expected

    def test_unknown_term_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss terms"):
            gradcheck(quick_scene(), LossWeights(), terms=("photo", "foo"))

    def test_rep_only_single_label_exhaustive(self, monkeypatch):
        scene = quick_scene(beams=0, width=48, height=40)
        labels = np.zeros_like(scene.gt_depth)
        labels[20, 24] = scene.gt_depth[20, 24]
        scene.labels.depth = labels
        scene.labels.beam_id = np.where(labels > 0, 0, -1)
        scene.labels.num_beams = 1
        monkeypatch.setattr(optimize, "FD_TOL", 1e-6)
        report = gradcheck(scene, LossWeights(lambda_rep=1.0), n_samples=1, seed=3,
                           terms=("rep",))
        assert report.n_checked == 13  # 1 depth pixel + 12 pose parameters
        assert report.passed, report.failures

    def test_negative_n_samples_rejected(self):
        scene = quick_scene()
        with pytest.raises(ConfigError, match="n_samples must be nonnegative, got -3"):
            gradcheck(scene, LossWeights(), n_samples=-3)

    def test_report_structure(self):
        scene = quick_scene(width=48, height=40)
        report = gradcheck(scene, LossWeights(lambda_rep=1.0), n_samples=40, seed=2)
        assert isinstance(report, GradCheckReport)
        assert report.n_checked == 40 + 12
        assert 0 <= report.n_passed <= report.n_checked


    def test_failure_analytic_values_are_the_gradient_at_the_point(self, monkeypatch):
        # every failure names its coordinate in the depth or the pose block,
        # and its analytic value is total_loss_grad's at gradcheck's point;
        # a coarse step with no tolerance makes both blocks fail
        scene = quick_scene(width=48, height=40)
        weights = LossWeights(lambda_rep=1.0)
        monkeypatch.setattr(optimize, "FD_STEP", 1e-2)
        monkeypatch.setattr(optimize, "FD_TOL", 0.0)
        report = gradcheck(scene, weights, n_samples=24, seed=4)
        rng = np.random.default_rng(4)
        depth = scene.gt_depth * np.exp(rng.normal(0.0, 0.05, scene.gt_depth.shape))
        params = np.stack([pose.as_params() for _, pose in scene.contexts])
        params[:, :3] += rng.normal(0.0, 0.01, params[:, :3].shape)
        params[:, 3:] += rng.normal(0.0, 0.02, params[:, 3:].shape)
        poses = [PoseSE3.from_params(p) for p in params]
        objective = scene_objective(scene, quick_config(weights=weights))
        _, d_depth, d_poses = losses.total_loss_grad(objective, poses, depth)
        kinds = {kind for kind, *_ in report.failures}
        assert kinds == {"depth", "pose"}
        for kind, i, analytic, _, _ in report.failures:
            assert analytic == (d_depth if kind == "depth" else d_poses).flat[i]

    def test_depth_probes_build_no_rotation(self, monkeypatch):
        # gradcheck builds the point's poses once: the gradient evaluation
        # builds their rotation factors, every depth probe reuses them and
        # every pose probe builds its own
        scene = quick_scene(width=48, height=40, channels=3)
        n_samples, contexts = 5, len(scene.contexts)
        factors = [0]  # _axis_rotation calls of each evaluation, set-up first
        axis_rotation = geometry._axis_rotation

        def counted(*args):
            factors[-1] += 1
            return axis_rotation(*args)

        def evaluation(name):
            evaluate = getattr(losses, name)

            def wrapper(*args):
                factors.append(0)
                return evaluate(*args)
            monkeypatch.setattr(losses, name, wrapper)

        for name in ("total_loss", "total_loss_grad"):
            evaluation(name)
        monkeypatch.setattr(geometry, "_axis_rotation", counted)
        gradcheck(scene, LossWeights(lambda_rep=1.0), n_samples=n_samples, num_scales=2)
        setup, grad, *probes = factors
        assert setup == 0 and grad == 3 * contexts
        assert probes[:2 * n_samples] == [0] * (2 * n_samples)
        assert probes[2 * n_samples:] == [3 * contexts] * (2 * 6 * contexts)

    def test_threads_env_starts_no_thread(self, monkeypatch):
        # the probe loop is serial: gradcheck starts no thread and ignores
        # SFM_LOSSKIT_THREADS
        scene = quick_scene(width=48, height=40, channels=3)
        weights = LossWeights(lambda_rep=1.0)
        monkeypatch.delenv("SFM_LOSSKIT_THREADS", raising=False)
        serial = gradcheck(scene, weights, n_samples=24, seed=2)

        def refuse(thread):
            raise AssertionError(f"gradcheck started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setenv("SFM_LOSSKIT_THREADS", "2")
        report = gradcheck(scene, weights, n_samples=24, seed=2)
        assert serial.failures and serial.max_rel_err > 0.0
        for f in fields(GradCheckReport):
            assert getattr(report, f.name) == getattr(serial, f.name), f.name


class TestProbeReference:
    """gradcheck's objective keeps a record of its gradient evaluation (loss
    maps, masked minimum, argmin, mask and count per level; no warps), and
    each forward probe re-scores only the pixels its warp moved; every field
    of every breakdown must equal a fresh objective's."""

    @pytest.mark.parametrize("channels, num_scales, terms, supervised", [
        (1, 1, losses.TERMS, "rep"),
        (3, 1, losses.TERMS, "l1"),
        (1, 2, ("photo",), "rep"),
        (3, 2, ("photo", "rep"), "berhu"),
        (1, 3, ("smooth", "rep"), "rep"),
        (3, 3, ("photo", "rep"), "rep"),
    ])
    def test_probes_equal_fresh_objective(self, channels, num_scales, terms, supervised):
        scene = quick_scene(width=48, height=40, channels=channels)
        probing, fresh = (losses.Objective(
            scene.target, [img for img, _ in scene.contexts], scene.intrinsics,
            LossWeights(lambda_rep=1.0), labels=scene.labels.depth, num_scales=num_scales,
            supervised=supervised, terms=terms) for _ in range(2))
        probing._recording = True  # as gradcheck's objective
        rng = np.random.default_rng(7)
        depth0 = scene.gt_depth * np.exp(rng.normal(0.0, 0.05, scene.gt_depth.shape))
        params0 = np.stack([pose.as_params() for _, pose in scene.contexts])
        params0 += rng.normal(0.0, 0.01, params0.shape)
        losses.total_loss_grad(probing, [PoseSE3.from_params(p) for p in params0], depth0)

        h, w = depth0.shape
        labeled = np.flatnonzero(scene.labels.depth > 0)
        pixels = [0, w - 1, (h - 1) * w, h * w - 1, labeled[0], labeled[-1], h // 2 * w + w // 2]
        depths = [(p, depth0.flat[p] * f) for p in pixels for f in (1 + 1e-6, 1 - 1e-6, 1.3)]
        # a point right in front of the camera warps off the image, one far
        # away back onto it
        flips = [(p, d) for p in pixels for d in (0.05, 1e4)]
        k, poses0 = scene.intrinsics, [PoseSE3.from_params(p) for p in params0]
        valid0 = [geometry.warp_chain(depth0, pose, k).valid.flat for pose in poses0]
        photo = "photo" in terms

        def argmin_and_mask(depth):
            min_map, argmin = losses.min_photometric(fresh, poses0, depth)
            return argmin, losses._static_mask(fresh.unwarped_min, min_map)

        if photo:
            argmin0, mask0 = argmin_and_mask(depth0)
        flipped, sources_flipped, masks_flipped = set(), 0, 0
        for p, d in depths + flips:
            depth = depth0.copy()
            depth.flat[p] = d
            got, want = (losses.total_loss(o, poses0, depth) for o in (probing, fresh))
            assert got == want, (p, d)
            flipped |= {(bool(v[p]), not v[p]) for pose, v in zip(poses0, valid0)
                        if geometry.warp_chain(depth, pose, k).valid.flat[p] != v[p]}
            if photo:
                argmin, mask = argmin_and_mask(depth)
                sources_flipped += int(((argmin != argmin0) & (argmin >= 0) & (argmin0 >= 0)).sum())
                masks_flipped += int((mask != mask0).sum())
        assert flipped == {(True, False), (False, True)}
        # the probes move pixels between sources and across the static mask,
        # so the patched minimum, argmin, mask and count are exercised
        if photo:
            assert sources_flipped and masks_flipped
        for i in range(params0.size):
            for step in (1e-5, -1e-5):
                params = params0.copy()
                params.flat[i] += step
                poses = [PoseSE3.from_params(p) for p in params]
                got, want = (losses.total_loss(o, poses, depth0) for o in (probing, fresh))
                assert got == want, (i, step)

    @pytest.mark.parametrize("channels, num_scales, terms, supervised", [
        (3, 1, losses.TERMS, "rep"),
        (1, 2, losses.TERMS, "l1"),
        (1, 3, losses.TERMS, "rep"),
        (3, 3, ("smooth", "rep"), "berhu"),
    ])
    def test_combined_and_repeated_probes(self, channels, num_scales, terms, supervised,
                                          monkeypatch):
        # several inputs moved at once, a pose parameter flipped from 0.0 to
        # -0.0 (moved by its bytes) and a probe repeated after others, which
        # finds the record as the gradient evaluation left it; no warp
        # window holds a single pixel, whose rotation product rounds apart,
        # and a probe that moves depth and a pose warps every context whole
        windows = []
        warp_chain = geometry.warp_chain

        def chain(depth, pose, k, window=None):
            windows.append(window)
            return warp_chain(depth, pose, k, window)

        monkeypatch.setattr(geometry, "warp_chain", chain)
        scene = quick_scene(width=48, height=40, channels=channels)
        probing, fresh = (losses.Objective(
            scene.target, [img for img, _ in scene.contexts], scene.intrinsics,
            LossWeights(lambda_rep=1.0), labels=scene.labels.depth, num_scales=num_scales,
            supervised=supervised, terms=terms) for _ in range(2))
        probing._recording = True  # as gradcheck's objective
        rng = np.random.default_rng(11)
        depth0 = scene.gt_depth * np.exp(rng.normal(0.0, 0.05, scene.gt_depth.shape))
        params0 = np.stack([pose.as_params() for _, pose in scene.contexts])
        params0 += rng.normal(0.0, 0.01, params0.shape)
        params0[0, 0] = params0[1, 4] = 0.0
        losses.total_loss_grad(probing, [PoseSE3.from_params(p) for p in params0], depth0)

        def probe(moves, param=None, step=0.0):
            depth, params = depth0.copy(), params0.copy()
            for p, factor in moves:
                depth.flat[p] *= factor
            if param is not None:
                params[param] = -0.0 if step == 0.0 else params[param] + step
            poses = [PoseSE3.from_params(p) for p in params]
            got, want = (losses.total_loss(o, poses, depth) for o in (probing, fresh))
            assert got == want, (moves, param, step)
            return got

        h, w = depth0.shape
        labeled = np.flatnonzero(scene.labels.depth > 0)
        distant = [(0, 1 + 1e-6), (h * w - 1, 1 - 1e-6)]
        first = probe(distant)
        probe([(labeled[0], 1.3), (labeled[-1], 0.9)])
        both = len(windows)
        probe([(h // 2 * w + w // 2, 1 + 1e-6)], (1, 2), 1e-5)
        probe([(labeled[0], 1 - 1e-6)], (0, 3), -1e-5)
        probe([(0, 1.3), (h * w - 1, 0.7)], (1, 5), 1e-3)
        both = windows[both:]
        flip = len(windows)
        probe([], (0, 0))
        flip = windows[flip:]
        probe([], (1, 4))
        assert probe(distant) == first
        sizes = {(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in filter(None, windows)}
        if "photo" not in terms:
            assert windows == []
            return
        # 3 probes of the probing and of the fresh objective
        assert both == [None] * (2 * 3 * len(scene.contexts) * num_scales)
        assert flip[0] == (0, h, 0, w)  # the flipped pose re-warps its whole context
        assert 1 not in sizes and min(sizes) == 0 and max(sizes) == h * w
        assert len(sizes) > 2  # windows between empty and the whole image


    @pytest.mark.parametrize("channels, num_scales, terms, supervised", [
        (3, 1, losses.TERMS, "rep"),
        (1, 3, losses.TERMS, "l1"),
        (3, 2, ("photo", "rep"), "berhu"),
    ])
    def test_probes_write_no_recorded_array(self, channels, num_scales, terms, supervised):
        # probes read the recorded arrays in place: after depth, pose and
        # combined probes and a write to the caller's depth, the objective
        # keeps the same record, and every field of it the bytes the
        # gradient evaluation left
        def snapshot(value):
            if isinstance(value, np.ndarray):
                return value.dtype.str, value.shape, value.tobytes()
            if isinstance(value, (tuple, list)):
                return tuple(snapshot(v) for v in value)
            return repr(value)

        scene = quick_scene(width=48, height=40, channels=channels)
        probing = losses.Objective(
            scene.target, [img for img, _ in scene.contexts], scene.intrinsics,
            LossWeights(lambda_rep=1.0), labels=scene.labels.depth, num_scales=num_scales,
            supervised=supervised, terms=terms)
        probing._recording = True  # as gradcheck's objective
        rng = np.random.default_rng(13)
        depth0 = scene.gt_depth * np.exp(rng.normal(0.0, 0.05, scene.gt_depth.shape))
        params0 = np.stack([pose.as_params() for _, pose in scene.contexts])
        params0 += rng.normal(0.0, 0.01, params0.shape)
        owned = depth0.copy()
        losses.total_loss_grad(probing, [PoseSE3.from_params(p) for p in params0], owned)
        record = probing._record
        recorded = snapshot(record)
        owned[:] = 1.0  # the caller's array, which the record copies
        assert len(record.levels) == num_scales
        assert (record.levels[0].photo is None) == ("photo" not in terms)

        h, w = depth0.shape
        pixels = [0, w + 1, h // 2 * w + w // 2, h * w - 1]
        probes = [([(p, f)], None) for p in pixels for f in (1 + 1e-5, 1 - 1e-5, 0.05, 1e4)]
        probes += [([], (s, i, d)) for s in range(len(params0)) for i in range(6)
                   for d in (1e-5, -1e-5)]
        probes += [([(p, 1.3), (h * w - 1 - p, 0.7)], (s, 5, 1e-3))
                   for p in pixels for s in range(len(params0))]
        for moves, pose_move in probes:
            depth, params = depth0.copy(), params0.copy()
            for p, factor in moves:
                depth.flat[p] *= factor
            if pose_move is not None:
                s, i, d = pose_move
                params[s, i] += d
            losses.total_loss(probing, [PoseSE3.from_params(p) for p in params], depth)
            assert probing._record is record
            assert snapshot(record) == recorded, (moves, pose_move)

    def test_only_gradcheck_records_without_warps(self, monkeypatch):
        # gradcheck's record holds no level's warps or adjoints, which would
        # raise peak RSS, and an objective of optimize.run keeps no record
        seen = []
        evaluate = losses._evaluate

        def spy(objective, *args, **kwargs):
            seen.append(objective)
            return evaluate(objective, *args, **kwargs)

        monkeypatch.setattr(losses, "_evaluate", spy)
        scene = quick_scene(width=48, height=40, channels=3)
        gradcheck(scene, LossWeights(lambda_rep=1.0), n_samples=4, num_scales=2)
        record = seen[0]._record
        assert {id(o) for o in seen} == {id(seen[0])} and len(record.levels) == 2
        for level in record.levels:
            photo = level.photo
            assert photo.warps is None and photo.adjoints is None
            assert [m.shape for m in photo.maps] == [(40, 48)] * len(scene.contexts)
            assert photo.masked.shape == photo.argmin.shape == photo.mask.shape == (40, 48)
        seen.clear()
        run(scene, quick_config(phase_a_iters=3, phase_b_iters=3))
        assert seen
        for objective in seen:
            assert objective._record is None and not objective._recording


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
