import math

import numpy as np
import pytest

from sfm_losskit import losses, warp
from sfm_losskit.errors import ConfigError
from sfm_losskit.geometry import PoseSE3, project, unproject, warp_coords
from sfm_losskit.config import load_config
from sfm_losskit.synth import (
    SceneSpec,
    _noise_texture,
    make_scene,
    render_view,
    render_view_with_depth,
)


def photometric_consistency(scene, ctx_index, alpha=0.85):
    src, pose = scene.contexts[ctx_index]
    coords, valid = warp_coords(scene.gt_depth, pose, scene.intrinsics)
    synth, mask = warp.sample_bilinear(src, coords, valid)
    loss = losses.photometric(scene.target, synth, mask, alpha)
    if scene.occluded:
        mask = mask & ~scene.occluded[ctx_index]
    return loss[mask].mean()


class TestMakeScene:
    def test_identity_context_equals_target(self):
        spec = SceneSpec(geometry="plane", baseline=0.0, seed=3, beams=0,
                         width=48, height=40)
        scene = make_scene(spec)
        for img, pose in scene.contexts:
            assert np.asarray(pose.translation == (0, 0, 0)).all()
            assert np.abs(img - scene.target).max() == 0.0

    def test_uniform_disparity_shift_five_columns(self):
        spec = SceneSpec(geometry="plane", width=128, height=96, d0=10.0,
                         baseline=0.5, fx=100, fy=100, cx=64, cy=48,
                         seed=3, beams=0)
        scene = make_scene(spec)
        ctx, pose = scene.contexts[0]
        assert pose.translation == (0.5, 0.0, 0.0)
        assert np.abs(ctx[:, 5:] - scene.target[:, :-5]).max() < 1e-12

    def test_two_plane_occlusion_band_hand_computed(self):
        spec = SceneSpec(geometry="two_plane", width=64, height=48, d0=10.0,
                         d1=4.0, strip_min=-2.0, strip_max=-0.2, baseline=0.8,
                         seed=5, beams=0)
        scene = make_scene(spec)
        k = scene.intrinsics
        band = scene.occluded[0]
        assert band.any()
        # closed form: bg point (x, y, d0) is hidden from the camera at
        # (-b, 0, 0) iff the ray crosses z=d1 inside the strip
        b = spec.baseline
        lam = spec.d1 / spec.d0
        x_lo = (spec.strip_min + b) / lam - b
        x_hi = (spec.strip_max + b) / lam - b
        cols = np.nonzero(band.any(axis=0))[0]
        xs = (cols - k.cx) / k.fx * spec.d0
        # every flagged background column lies in the predicted interval
        bg_cols = xs[(xs >= spec.strip_min * spec.d0 / spec.d1)]
        assert xs.min() >= x_lo - 2 * spec.d0 / k.fx
        assert xs.max() <= x_hi + 2 * spec.d0 / k.fx

    def test_gt_depth_positive_everywhere(self):
        for geom in ("plane", "slant", "two_plane"):
            spec = SceneSpec(geometry=geom, slant=20.0 if geom == "slant" else 0.0,
                             width=40, height=32, seed=1, beams=0)
            scene = make_scene(spec)
            assert (scene.gt_depth > 0).all()

    def test_labels_modes(self):
        lidar = make_scene(SceneSpec(width=64, height=48, seed=2, beams=8, px_per_beam=6))
        assert lidar.labels.num_beams == 8
        assert lidar.labels.n_labels == 48
        frac = make_scene(SceneSpec(width=64, height=48, seed=2, label_frac=0.05))
        assert frac.labels.n_labels == round(0.05 * 64 * 48)
        none = make_scene(SceneSpec(width=64, height=48, seed=2, beams=0))
        assert none.labels.n_labels == 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            make_scene(SceneSpec(geometry="sphere"))
        with pytest.raises(ConfigError):
            make_scene(SceneSpec(geometry="two_plane", d1=20.0, d0=10.0))
        with pytest.raises(ConfigError):
            make_scene(SceneSpec(texture="marble"))


class TestRenderView:
    def test_identity_pose_renders_target(self):
        spec = SceneSpec(width=48, height=40, seed=4, beams=0)
        scene = make_scene(spec)
        again = render_view(scene.geometry, PoseSE3.identity(), scene.intrinsics)
        assert np.abs(again - scene.target).max() == 0.0

    def test_warp_consistency_ground_truth(self):
        spec = SceneSpec(geometry="slant", slant=12.0, width=64, height=48,
                         d0=8.0, baseline=0.37, seed=6, beams=0,
                         texture_cycles=0.02)
        scene = make_scene(spec)
        for idx in range(2):
            assert photometric_consistency(scene, idx) < 1e-3

    def test_warp_consistency_random_baselines_and_depths(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            spec = SceneSpec(
                geometry="plane",
                width=48, height=40,
                d0=float(rng.uniform(5, 20)),
                baseline=float(rng.uniform(0.1, 1.0)),
                seed=int(rng.integers(1e6)),
                beams=0,
                texture_cycles=0.02,
            )
            scene = make_scene(spec)
            assert photometric_consistency(scene, 0) < 1e-3

    def test_rotation_only_view_is_homography(self):
        spec = SceneSpec(width=64, height=48, d0=10.0, baseline=0.0,
                         seed=8, beams=0, texture_cycles=0.02)
        scene = make_scene(spec)
        pose = PoseSE3(rotation=(0.0, np.radians(2.0), 0.0))
        view = render_view(scene.geometry, pose, scene.intrinsics)
        k = scene.intrinsics
        # spot-check correspondences: target pixel -> rotated-view pixel
        for (u, v) in [(12, 10), (40, 30), (25, 20), (50, 12)]:
            p = unproject((u, v), scene.gt_depth[v, u], k)
            q = project(tuple(pose.rotation_matrix() @ np.array(p)), k)
            coords = np.array([[[q.u, q.v]]])
            sampled, _ = warp.sample_bilinear(view, coords, np.ones((1, 1), bool))
            assert abs(sampled[0, 0, 0] - scene.target[v, u, 0]) < 5e-3

    def test_checker_texture_renders_binaryish(self):
        spec = SceneSpec(width=40, height=32, seed=9, beams=0, texture="checker",
                         checker_size=3.0)
        scene = make_scene(spec)
        assert scene.target.min() >= 0.0 and scene.target.max() <= 1.0
        # cell edges blend under bilinear lookup, interiors stay binary
        near_binary = (scene.target < 0.2) | (scene.target > 0.8)
        assert near_binary.mean() > 0.5
        assert scene.target.min() < 0.1 and scene.target.max() > 0.9

    def test_three_channel_scene(self):
        scene = make_scene(SceneSpec(width=40, height=32, seed=10, beams=0, channels=3))
        assert scene.target.shape == (32, 40, 3)
        # channels carry distinct textures
        assert np.abs(scene.target[..., 0] - scene.target[..., 1]).max() > 0.05

    def test_depth_from_view_matches_plane_equation(self):
        spec = SceneSpec(geometry="slant", slant=18.0, width=40, height=32,
                         d0=9.0, seed=11, beams=0)
        scene = make_scene(spec)
        _, depth = render_view_with_depth(
            scene.geometry, PoseSE3.identity(), scene.intrinsics
        )
        assert np.abs(depth - scene.gt_depth).max() < 1e-12
        assert depth.std() > 0.1  # slant actually varies depth


class TestSceneSpecIO:
    def test_flat_key_value_file(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "# demo scene\n"
            "geometry = two_plane\n"
            "width = 64\n"
            "height = 48\n"
            "d0 = 12.5\n"
            "d1 = 5.0\n"
            "baseline = 0.4\n"
            "seed = 17\n"
            "beams = 8\n"
        )
        spec = load_config(path).scene
        assert spec.geometry == "two_plane"
        assert spec.d0 == 12.5
        assert spec.seed == 17

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("geometry = plane\nwobble = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("geometry = plane\nd0 = ten\n")
        with pytest.raises(ConfigError):
            load_config(path)


def reference_noise_texture(rng, extent, spacing, cycles_per_px, amp, channels):
    """The direct per-texel evaluation of the plane-wave sum, with the RNG
    draws in the order _noise_texture makes them."""
    n = int(math.ceil(2 * extent / spacing)) + 1
    axis = -extent + spacing * np.arange(n)
    xx, yy = np.meshgrid(axis, axis)
    f_max = cycles_per_px / spacing
    raster = np.empty((n, n, channels))
    for c in range(channels):
        val = np.full((n, n), 0.5)
        mags = f_max * rng.uniform(0.2, 1.0, 8)
        dirs = rng.uniform(0.0, 2 * math.pi, 8)
        phases = rng.uniform(0.0, 2 * math.pi, 8)
        amps = rng.uniform(0.4, 1.0, 8)
        amps *= amp / amps.sum()
        for m, d, p, a in zip(mags, dirs, phases, amps):
            val += a * np.cos(2 * math.pi * m * (xx * math.cos(d) + yy * math.sin(d)) + p)
        raster[..., c] = val
    return np.clip(raster, 0.0, 1.0)


class TestNoiseTexture:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("cycles_per_px, amp", [(0.03, 0.42), (0.25, 0.45)])
    def test_matches_direct_per_texel_sum(self, channels, cycles_per_px, amp):
        # 321 x 321 texels; phase arguments reach ~350 rad at 0.25 cycles/px
        args = (4.0, 0.025, cycles_per_px, amp, channels)
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        tex = _noise_texture(rng, *args)
        ref = reference_noise_texture(ref_rng, *args)
        assert tex.raster.shape == ref.shape == (321, 321, channels)
        assert tex.raster.flags.c_contiguous
        assert np.abs(tex.raster - ref).max() <= 1e-12
        # the same number of draws in the same order: the generators agree after
        assert rng.random() == ref_rng.random()


def test_scene_determinism():
    spec = SceneSpec(width=48, height=40, seed=12, beams=8)
    a = make_scene(spec)
    b = make_scene(SceneSpec(width=48, height=40, seed=12, beams=8))
    assert (a.target == b.target).all()
    assert (a.gt_depth == b.gt_depth).all()
    assert (a.labels.depth == b.labels.depth).all()
