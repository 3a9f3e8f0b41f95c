import math

import numpy as np
import pytest

from sfm_losskit import cli, losses, synth, warp
from sfm_losskit.errors import ConfigError
from sfm_losskit.geometry import PoseSE3, warp_chain
from sfm_losskit.config import load_config
from sfm_losskit.synth import (
    GEOMETRIES,
    STRIP_DEPTH,
    STRIP_X,
    SceneSpec,
    _build_geometry,
    _noise_texture,
    _render,
    make_scene,
)


def photometric_consistency(scene, ctx_index, alpha=0.85):
    src, pose = scene.contexts[ctx_index]
    chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
    at = warp.sampling(chain.coords, chain.valid, src.shape[1:])
    synth = warp.sample_bilinear(src, at)
    mask = chain.valid
    loss = losses._photometric_forward(scene.target, synth, mask, alpha)[0]
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

    @pytest.mark.parametrize("channels", [1, 3])
    def test_images_are_planar(self, channels):
        scene = make_scene(SceneSpec(width=24, height=16, channels=channels, beams=0))
        for img in [scene.target] + [img for img, _ in scene.contexts]:
            assert img.shape == (channels, 16, 24)
            assert img.flags.c_contiguous

    def test_uniform_disparity_shift_five_columns(self):
        # fx = 0.78125 * 128 = 100, so disparity fx * baseline / d0 = 5 px
        spec = SceneSpec(geometry="plane", width=128, height=96, d0=10.0,
                         baseline=0.5, seed=3, beams=0)
        scene = make_scene(spec)
        k = scene.intrinsics
        assert (k.fx, k.fy, k.cx, k.cy) == (100.0, 100.0, 63.5, 47.5)
        ctx, pose = scene.contexts[0]
        assert pose.translation == (0.5, 0.0, 0.0)
        assert np.abs(ctx[:, :, 5:] - scene.target[:, :, :-5]).max() < 1e-12

    def test_two_plane_occlusion_band_hand_computed(self):
        spec = SceneSpec(geometry="two_plane", width=64, height=48, d0=10.0,
                         baseline=1.8, seed=5, beams=0)
        scene = make_scene(spec)
        k = scene.intrinsics
        band = scene.occluded[0]
        assert band.any()
        # closed form: bg point (x, y, d0) is hidden from the camera at
        # (-b, 0, 0) iff the ray crosses z=STRIP_DEPTH inside the strip
        b = spec.baseline
        lam = STRIP_DEPTH / spec.d0
        x_lo = (STRIP_X[0] + b) / lam - b
        x_hi = (STRIP_X[1] + b) / lam - b
        cols = np.nonzero(band.any(axis=0))[0]
        xs = (cols - k.cx) / k.fx * spec.d0
        # every flagged background column lies in the predicted interval
        assert xs.min() >= x_lo - 2 * spec.d0 / k.fx
        assert xs.max() <= x_hi + 2 * spec.d0 / k.fx

    def test_gt_depth_positive_everywhere(self):
        for geom in ("plane", "slant", "two_plane"):
            spec = SceneSpec(geometry=geom, slant=20.0 if geom == "slant" else 0.0,
                             width=40, height=32, seed=1, beams=0)
            scene = make_scene(spec)
            assert (scene.gt_depth > 0).all()

    @pytest.mark.parametrize("geometry", ["plane", "two_plane"])
    def test_slant_leaves_other_geometries_unchanged(self, geometry):
        # slant tilts the slant geometry's plane only, texture extent included
        flat, tilted = (make_scene(SceneSpec(geometry=geometry, width=40, height=32,
                                             seed=1, slant=slant, beams=0))
                        for slant in (0.0, 50.0))
        assert (flat.target == tilted.target).all()
        assert (flat.gt_depth == tilted.gt_depth).all()
        for (img_a, _), (img_b, _) in zip(flat.contexts, tilted.contexts):
            assert (img_a == img_b).all()

    def test_labels_modes(self):
        lidar = make_scene(SceneSpec(width=64, height=48, seed=2, beams=8, px_per_beam=6))
        assert lidar.labels.num_beams == 8
        assert lidar.labels.n_labels == 48
        # the default px_per_beam (16) exceeds an 8-pixel width, and without
        # beams it is not read
        none = make_scene(SceneSpec(width=8, height=8, seed=2, beams=0))
        assert none.labels.num_beams == 0
        assert none.labels.n_labels == 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            make_scene(SceneSpec(geometry="sphere"))
        with pytest.raises(ConfigError, match="two_plane needs d0 > 6.0"):
            make_scene(SceneSpec(geometry="two_plane", d0=STRIP_DEPTH))


class TestRenderView:
    def test_identity_pose_renders_target(self):
        spec = SceneSpec(width=48, height=40, seed=4, beams=0)
        scene = make_scene(spec)
        geometry = _build_geometry(spec, spec.intrinsics())
        again = _render(geometry, PoseSE3.identity(), scene.intrinsics, 1)[0]
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
        view = _render(_build_geometry(spec, spec.intrinsics()), pose, scene.intrinsics, 1)[0]
        chain = warp_chain(scene.gt_depth, pose, scene.intrinsics)
        # spot-check correspondences: target pixel -> rotated-view pixel
        for (u, v) in [(12, 10), (40, 30), (25, 20), (50, 12)]:
            coords = chain.coords[:, v : v + 1, u : u + 1]
            sampled = warp.sample_bilinear(
                view, warp.sampling(coords, np.ones((1, 1), bool), view.shape[1:])
            )
            assert abs(sampled[0, 0, 0] - scene.target[0, v, u]) < 5e-3

    def test_three_channel_scene(self):
        scene = make_scene(SceneSpec(width=40, height=32, seed=10, beams=0, channels=3))
        assert scene.target.shape == (3, 32, 40)
        # channels carry distinct textures
        assert np.abs(scene.target[0] - scene.target[1]).max() > 0.05

    def test_depth_from_view_matches_plane_equation(self):
        spec = SceneSpec(geometry="slant", slant=18.0, width=40, height=32,
                         d0=9.0, seed=11, beams=0)
        scene = make_scene(spec)
        # the plane -sin(s) y + cos(s) z = d0 cos(s) along each ray (x, y, 1)
        rays = np.moveaxis(scene.intrinsics.pixel_rays(), 0, -1)
        s = math.radians(18.0)
        depth = 9.0 * math.cos(s) / (rays[..., 2] * math.cos(s) - rays[..., 1] * math.sin(s))
        assert np.abs(depth - scene.gt_depth).max() < 1e-12
        assert depth.std() > 0.1  # slant actually varies depth


class TestSceneSpecIO:
    def test_flat_key_value_file(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "# demo scene\n"
            "scene.geometry = two_plane\n"
            "scene.width = 64\n"
            "scene.height = 48\n"
            "scene.d0 = 12.5\n"
            "scene.baseline = 0.4\n"
            "scene.seed = 17\n"
            "scene.beams = 8\n"
        )
        spec = load_config(path).scene
        assert spec.geometry == "two_plane"
        assert spec.d0 == 12.5
        assert spec.seed == 17

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("scene.geometry = plane\nscene.wobble = 3\n")
        with pytest.raises(ConfigError, match="unknown config key scene.wobble"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("scene.geometry = plane\nscene.d0 = ten\n")
        with pytest.raises(ConfigError, match="scene.d0: cannot parse 'ten'"):
            load_config(path)


def reference_noise_texture(rng, extent, spacing, cycles_per_px, amp, channels):
    """The direct per-texel evaluation of the plane-wave sum, with the RNG
    draws in the order _noise_texture makes them."""
    n = int(math.ceil(2 * extent / spacing)) + 1
    axis = -extent + spacing * np.arange(n)
    xx, yy = np.meshgrid(axis, axis)
    f_max = cycles_per_px / spacing
    raster = np.empty((channels, n, n))
    for c in range(channels):
        val = np.full((n, n), 0.5)
        mags = f_max * rng.uniform(0.2, 1.0, 8)
        dirs = rng.uniform(0.0, 2 * math.pi, 8)
        phases = rng.uniform(0.0, 2 * math.pi, 8)
        amps = rng.uniform(0.4, 1.0, 8)
        amps *= amp / amps.sum()
        for m, d, p, a in zip(mags, dirs, phases, amps):
            val += a * np.cos(2 * math.pi * m * (xx * math.cos(d) + yy * math.sin(d)) + p)
        raster[c] = val
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
        assert tex.raster.shape == ref.shape == (channels, 321, 321)
        assert tex.raster.flags.c_contiguous
        tex.fill(0, 321, 0, 321)  # every texel, as one block
        assert np.abs(tex.raster - ref).max() <= 1e-12
        # the same number of draws in the same order: the generators agree after
        assert rng.random() == ref_rng.random()

    def test_raster_size_guard(self, tmp_path, capsys):
        # n = ceil(2 * extent / spacing) + 1 texels a side; the raster is
        # allocated unwritten, so the accepted size costs no pages here
        rng = np.random.default_rng(0)
        assert _noise_texture(rng, 2047.5, 1.0, 0.03, 0.42, 1).raster.shape == (1, 4096, 4096)
        with pytest.raises(ConfigError, match="texture raster of 4097 texels"):
            _noise_texture(rng, 2048.0, 1.0, 0.03, 0.42, 1)
        # through the CLI: a 200 m baseline widens the patch to over 4096 texels
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("scene.width = 48\nscene.height = 40\nscene.d0 = 8.0\n"
                       "scene.baseline = 200\nscene.seed = 1\n")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("sfm-losskit: error: ConfigError: texture raster of ")
        assert err[0].endswith(" texels is unreasonably large")
        assert not (tmp_path / "s").exists()


class TestLazyFill:
    """A render fills only the texel blocks it reads. Every texel starts as
    NaN here, so a read of one left unfilled would show, and the views must
    equal those of fully filled rasters bit for bit."""

    POSE = PoseSE3(rotation=(0.04, -0.06, 0.02), translation=(0.6, -0.25, 0.3))

    @staticmethod
    def record_textures(monkeypatch, eager):
        """Make every texture built from now on start NaN (lazy) or fully
        filled (eager), and return the list they are appended to."""
        built = []

        def noise_texture(*args):
            tex = _noise_texture(*args)
            tex.raster.fill(np.nan)
            if eager:
                tex.fill(0, tex.raster.shape[1], 0, tex.raster.shape[2])
            built.append(tex)
            return tex

        monkeypatch.setattr(synth, "_noise_texture", noise_texture)
        return built

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_lazy_render_equals_eager(self, monkeypatch, geometry, channels):
        spec = SceneSpec(geometry=geometry, slant=20.0 if geometry == "slant" else 0.0,
                         width=64, height=48, channels=channels, seed=3, beams=4,
                         px_per_beam=8)
        k = spec.intrinsics()
        outputs = {}
        for eager in (False, True):
            built = self.record_textures(monkeypatch, eager)
            scene = make_scene(spec)
            view = _render(_build_geometry(spec, k), self.POSE, k, channels)
            outputs[eager] = [scene.target, scene.gt_depth, scene.labels.depth,
                              *(img for img, _ in scene.contexts), *scene.occluded, *view]
            assert len(built) == 2 * (1 + (geometry == "two_plane"))
            if not eager:
                assert not np.isnan(scene.target).any() and not np.isnan(view[0]).any()
                # most texels are never filled
                assert all(np.isnan(tex.raster).mean() > 0.5 for tex in built)
        for lazy, eager in zip(outputs[False], outputs[True]):
            assert lazy.dtype == eager.dtype and lazy.shape == eager.shape
            assert lazy.tobytes() == eager.tobytes()


def test_scene_determinism():
    spec = SceneSpec(width=48, height=40, seed=12, beams=8)
    a = make_scene(spec)
    b = make_scene(SceneSpec(width=48, height=40, seed=12, beams=8))
    assert (a.target == b.target).all()
    assert (a.gt_depth == b.gt_depth).all()
    assert (a.labels.depth == b.labels.depth).all()
