import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfm_losskit import cli, io_codecs
from sfm_losskit.errors import CodecError, DimensionError
from sfm_losskit.geometry import PoseSE3
from sfm_losskit.synth import SceneSpec, make_scene


def write_ppm(path, img):
    """Write a (C, H, W) image as the 16-bit PPM that write_scene_dir writes."""
    path.write_bytes(io_codecs._ppm_bytes(img))


def read_ppm(path):
    """A PPM's (3, H, W) samples as floats in [0, 1]."""
    samples, maxval = io_codecs.read_ppm(path)
    return samples / maxval


class TestPfmCodec:
    def test_round_trip_single_channel(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.uniform(-100, 100, (13, 17)).astype(np.float32)
        path = tmp_path / "x.pfm"
        io_codecs.write_pfm(path, data)
        back = io_codecs.read_pfm(path)
        assert back.dtype == np.float32
        assert (back == data).all()

    def test_round_trip_three_channel(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 1, (6, 8, 3)).astype(np.float32)
        path = tmp_path / "x.pfm"
        io_codecs.write_pfm(path, data)
        assert (io_codecs.read_pfm(path) == data).all()

    def test_round_trip_arbitrary_float32(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "v.pfm"
        for _ in range(60):
            raw = rng.integers(0, 2**32, size=4, dtype=np.uint32)
            data = raw.view(np.float32).reshape(2, 2)
            data = np.where(np.isfinite(data), data, np.float32(0))
            io_codecs.write_pfm(path, data)
            assert (io_codecs.read_pfm(path) == data).all()

    def test_finite_value_beyond_float32_rejected(self, tmp_path):
        path = tmp_path / "x.pfm"
        with pytest.raises(CodecError, match="beyond the float32 range"):
            io_codecs.write_pfm(path, np.full((2, 2), -1e39))
        # NaN and inf are written as they are
        data = np.array([[np.nan, np.inf], [-np.inf, 3.4e38]])
        io_codecs.write_pfm(path, data)
        back = io_codecs.read_pfm(path)
        assert np.isnan(back[0, 0]) and (back[0, 1:] == data[0, 1:]).all()
        assert (back[1] == data[1].astype(np.float32)).all()

    def test_header_convention(self, tmp_path):
        path = tmp_path / "x.pfm"
        io_codecs.write_pfm(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n3 2\n-1.0\n")

    def test_truncated_stream_rejected(self, tmp_path):
        path = tmp_path / "x.pfm"
        io_codecs.write_pfm(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CodecError):
            io_codecs.read_pfm(path)


class TestPpmCodec:
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_round_trip_representable_levels(self, tmp_path, maxval):
        # the codec writes 16-bit files; 8-bit ones come from other tools
        # the file interleaves the samples, (H, W, 3); images are (3, H, W)
        rng = np.random.default_rng(2)
        levels = rng.integers(0, maxval + 1, (9, 7, 3))
        img = np.moveaxis(levels, -1, 0) / maxval
        path = tmp_path / "x.ppm"
        if maxval == 255:
            path.write_bytes(b"P6\n7 9\n255\n" + levels.astype("u1").tobytes())
        else:
            write_ppm(path, img)
            assert path.read_bytes() == b"P6\n7 9\n65535\n" + levels.astype(">u2").tobytes()
        back = read_ppm(path)
        assert back.shape == (3, 9, 7)
        assert (back == img).all()

    def test_16bit_exhaustive_level_sweep(self, tmp_path):
        # every one of the 65536 levels survives the round trip exactly
        levels = np.arange(65536, dtype=np.float64).reshape(256, 256)
        img = np.repeat((levels / 65535)[None], 3, axis=0)
        path = tmp_path / "sweep.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert (back == img).all()

    def test_gray_images_replicate_channels(self, tmp_path):
        img = np.random.default_rng(3).uniform(0, 1, (1, 5, 6))
        path = tmp_path / "g.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 5, 6)
        assert (back[0] == back[1]).all() and (back[0] == back[2]).all()

    def test_interleaved_image_rejected(self, tmp_path):
        # an image in the (H, W, C) layout, H and W not in {1, 3}
        with pytest.raises(DimensionError):
            write_ppm(tmp_path / "x.ppm", np.zeros((5, 6, 3)))

    @pytest.mark.parametrize("channels", [1, 3])
    def test_encoder_equals_float_interleave(self, channels):
        # the encoder quantizes the planes before interleaving them; the
        # bytes equal those of interleaving (gray replicated) the floats first
        def float_interleave(img):
            img = np.repeat(img.transpose(1, 2, 0), 3 // img.shape[0], axis=2)
            levels = np.clip(np.rint(img * 65535), 0, 65535)
            h, w = img.shape[:2]
            return f"P6\n{w} {h}\n65535\n".encode("ascii") + levels.astype(">u2").tobytes()

        rng = np.random.default_rng(21)
        ties = (rng.integers(0, 65535, 300) + 0.5) / 65535  # half-level ties
        edges = np.array([0.0, 1.0, -0.1, 1.2, -0.0, 0.5 / 65535, 65534.5 / 65535])
        values = np.concatenate([rng.uniform(-0.2, 1.2, channels * 17 * 23 - 307), ties, edges])
        img = rng.permutation(values).reshape(channels, 17, 23)
        assert io_codecs._ppm_bytes(img) == float_interleave(img)
        # and on a rendered scene's target, a strided view of it included
        target = make_scene(SceneSpec(width=24, height=16, channels=channels, beams=0)).target
        assert io_codecs._ppm_bytes(target) == float_interleave(target)
        view = target[:, ::2, 1::3]
        assert io_codecs._ppm_bytes(view) == float_interleave(view)

    def test_invalid_maxval(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n2 2\n1023\n" + bytes(24))
        with pytest.raises(CodecError, match="unsupported maxval 1023"):
            io_codecs.read_ppm(path)


class TestLabelsCodec:
    def test_round_trip(self, tmp_path):
        scene = make_scene(SceneSpec(width=48, height=40, seed=4, beams=8, px_per_beam=6))
        path = tmp_path / "labels.pfm"
        io_codecs.write_labels_pfm(path, scene.labels)
        back = io_codecs.read_labels_pfm(path)
        assert (back.depth == scene.labels.depth.astype(np.float32)).all()
        assert (back.beam_id == scene.labels.beam_id).all()
        assert back.num_beams == scene.labels.num_beams


class TestManifest:
    def test_round_trip(self, tmp_path):
        scene = make_scene(SceneSpec(width=48, height=40, seed=5, beams=8))
        # rotated context poses, so the manifest carries a full rotation block
        scene.contexts = [(img, PoseSE3(rotation=(0.01, 0.0175, -0.02),
                                        translation=pose.translation))
                          for img, pose in scene.contexts]
        io_codecs.write_scene_dir(tmp_path / "scene", scene)
        loaded = io_codecs.read_scene_dir(tmp_path / "scene")
        assert loaded.intrinsics == scene.intrinsics
        assert loaded.target.shape == scene.target.shape
        assert len(loaded.contexts) == 2
        for (img_a, pose_a), (img_b, pose_b) in zip(loaded.contexts, scene.contexts):
            assert np.abs(pose_a.matrix() - pose_b.matrix()).max() < 1e-12
            assert np.abs(img_a - img_b).max() <= 1.0 / 65535

    @pytest.mark.parametrize("channels", [1, 3])
    def test_images_load_planar(self, tmp_path, channels):
        # each image equals its PPM's samples all converted to float, cut
        # to the scene's channels, as C-contiguous float64 planes: as
        # written (16-bit), then rewritten at 8 bits as other tools write it
        scene = make_scene(SceneSpec(width=24, height=16, channels=channels, beams=0))
        io_codecs.write_scene_dir(tmp_path / "scene", scene)
        paths = [tmp_path / "scene" / name
                 for name in ("target.ppm", "context_00.ppm", "context_01.ppm")]
        for maxval in (65535, 255):
            expected = []
            for path in paths:
                samples, _ = io_codecs.read_ppm(path)
                if maxval == 255:
                    samples = samples >> 8
                    path.write_bytes(b"P6\n24 16\n255\n"
                                     + samples.transpose(1, 2, 0).astype("u1").tobytes())
                expected.append((samples.astype(np.float64) / maxval)[:channels])
            loaded = io_codecs.read_scene_dir(tmp_path / "scene")
            for img, want in zip([loaded.target] + [img for img, _ in loaded.contexts],
                                 expected):
                assert img.shape == (channels, 16, 24) and img.dtype == np.float64
                assert img.flags.c_contiguous
                assert img.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_colour_image_in_gray_scene_rejected(self, tmp_path):
        gray = make_scene(SceneSpec(width=24, height=16, channels=1, beams=0))
        colour = make_scene(SceneSpec(width=24, height=16, channels=3, beams=0))
        io_codecs.write_scene_dir(tmp_path / "scene", gray)
        write_ppm(tmp_path / "scene" / "context_00.ppm", colour.contexts[0][0])
        with pytest.raises(CodecError, match="context_00.ppm"):
            io_codecs.read_scene_dir(tmp_path / "scene")

    @pytest.mark.parametrize("channel", [1, 2])
    def test_one_differing_sample_in_gray_scene_rejected(self, tmp_path, channel):
        # a single G or B sample one level off the pixel's R sample
        gray = make_scene(SceneSpec(width=24, height=16, channels=1, beams=0))
        io_codecs.write_scene_dir(tmp_path / "scene", gray)
        path = tmp_path / "scene" / "target.ppm"
        samples, _ = io_codecs.read_ppm(path)
        samples = samples.transpose(1, 2, 0).copy()
        samples[11, 5, channel] ^= 1
        path.write_bytes(b"P6\n24 16\n65535\n" + samples.astype(">u2").tobytes())
        with pytest.raises(CodecError, match="target.ppm is in colour"):
            io_codecs.read_scene_dir(tmp_path / "scene")


def write_config(path, extra=""):
    path.write_text(
        "scene.geometry = plane\n"
        "scene.width = 48\n"
        "scene.height = 40\n"
        "scene.d0 = 8.0\n"
        "scene.baseline = 0.4\n"
        "scene.seed = 9\n"
        "scene.beams = 8\n"
        "scene.px_per_beam = 6\n"
        "scene.texture_cycles = 0.1\n"
        "optimizer.seed = 1\n"
        + extra
    )


class TestCommands:
    def test_synth_writes_expected_files(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        out = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert names == [
            "context_00.ppm", "context_01.ppm", "depth.pfm", "labels.pfm",
            "manifest.txt", "target.ppm",
        ]

    def test_synth_requires_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene.geometry = plane\n")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1

    def test_synth_depth_round_trips_bit_exact(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        out = tmp_path / "scene"
        cli.main(["synth", "--config", str(cfg), "--out", str(out)])
        scene = make_scene(
            SceneSpec(geometry="plane", width=48, height=40, d0=8.0, baseline=0.4,
                      seed=9, beams=8, px_per_beam=6, texture_cycles=0.1)
        )
        back = io_codecs.read_pfm(out / "depth.pfm")
        assert (back == scene.gt_depth.astype(np.float32)).all()

    def test_unknown_override_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        code = cli.main(
            ["synth", "--config", str(cfg), "--out", str(tmp_path / "s"),
             "--scene.wobble=1"]
        )
        assert code == 1

    def test_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        out = tmp_path / "scene"
        cli.main(["synth", "--config", str(cfg), "--out", str(out),
                  "--scene.beams=4", "--scene.px_per_beam=1"])
        labels = io_codecs.read_labels_pfm(out / "labels.pfm")
        assert labels.num_beams == 4
        assert labels.n_labels == 4

    def test_decimate_counting_oracle(self, tmp_path, capsys):
        from sfm_losskit.supervision import decimate

        scene = make_scene(SceneSpec(width=64, height=96, seed=6, beams=32, px_per_beam=10))
        src = tmp_path / "labels.pfm"
        io_codecs.write_labels_pfm(src, scene.labels)
        out = tmp_path / "labels4.pfm"
        assert cli.main(["decimate", str(src), "--keep", "4", "--out", str(out)]) == 0
        back = io_codecs.read_labels_pfm(out)
        oracle = decimate(scene.labels, 4)
        assert back.n_labels == oracle.n_labels
        assert (back.depth == oracle.depth.astype(np.float32)).all()

    def test_decimate_shipped_example_labels(self, tmp_path, capsys):
        # the example's 8 beams of 12 labels thin to 4 beams
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "example_plane.cfg")
        scene_dir, out = tmp_path / "scene", tmp_path / "labels4.pfm"
        assert cli.main(["synth", "--config", config, "--out", str(scene_dir)]) == 0
        capsys.readouterr()
        code = cli.main(["decimate", str(scene_dir / "labels.pfm"), "--keep", "4",
                         "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "decimate: kept 48 of 96 labels (4 of 8 beams)\n"
        assert io_codecs.read_labels_pfm(out).n_labels == 48

    def test_decimate_invalid_spec_exit_code(self, tmp_path):
        scene = make_scene(SceneSpec(width=48, height=40, seed=6, beams=8))
        src = tmp_path / "labels.pfm"
        io_codecs.write_labels_pfm(src, scene.labels)
        code = cli.main(["decimate", str(src), "--keep", "3", "--out", str(tmp_path / "o.pfm")])
        assert code == 1

    def test_decimate_labels_without_beams(self, tmp_path, capsys):
        # a scene.beams=0 scene records num_beams 0: no beam stride exists
        scene = make_scene(SceneSpec(width=48, height=40, seed=6, beams=0))
        src = tmp_path / "labels.pfm"
        io_codecs.write_labels_pfm(src, scene.labels)
        out = tmp_path / "o.pfm"
        code = cli.main(["decimate", str(src), "--keep", "1", "--out", str(out)])
        assert_codec_error_exit(code, capsys, kind="ConfigError")
        assert not out.exists()

    def test_eval_perfect_prediction(self, tmp_path, capsys):
        scene = make_scene(SceneSpec(width=48, height=40, seed=7, beams=8))
        gt_path = tmp_path / "labels.pfm"
        io_codecs.write_labels_pfm(gt_path, scene.labels)
        pred_path = tmp_path / "pred.pfm"
        io_codecs.write_pfm(pred_path, scene.gt_depth.astype(np.float32))
        assert cli.main(["eval", str(pred_path), str(gt_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("abs_rel,")
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == 0.0 and row[4] == 1.0 and row[6] == 1.0

    def test_eval_reads_each_raster_once(self, tmp_path, capsys, monkeypatch):
        scene = make_scene(SceneSpec(width=48, height=40, seed=7, beams=8))
        gt_path, pred_path = tmp_path / "labels.pfm", tmp_path / "pred.pfm"
        io_codecs.write_labels_pfm(gt_path, scene.labels)
        io_codecs.write_pfm(pred_path, scene.gt_depth.astype(np.float32))
        reads = []
        read_pfm = io_codecs.read_pfm

        def counting_read_pfm(path):
            reads.append(os.path.basename(path))
            return read_pfm(path)

        monkeypatch.setattr(io_codecs, "read_pfm", counting_read_pfm)
        assert cli.main(["eval", str(pred_path), str(gt_path)]) == 0
        assert sorted(reads) == ["labels.pfm", "pred.pfm"]

    def test_eval_accepts_plain_depth_gt(self, tmp_path, capsys):
        scene = make_scene(SceneSpec(width=48, height=40, seed=7, beams=8))
        gt_path = tmp_path / "gt.pfm"
        io_codecs.write_pfm(gt_path, scene.gt_depth.astype(np.float32))
        pred_path = tmp_path / "pred.pfm"
        io_codecs.write_pfm(pred_path, (scene.gt_depth * 2).astype(np.float32))
        assert cli.main(["eval", str(pred_path), str(gt_path), "--median-scaling"]) == 0
        row = [float(v) for v in capsys.readouterr().out.strip().splitlines()[1].split(",")]
        assert row[0] == pytest.approx(0.0, abs=1e-6)

    def test_gradcheck_command(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        code = cli.main(
            ["gradcheck", "--config", str(cfg), "--terms", "rep"]
        )
        assert code == 0
        assert "result=PASS" in capsys.readouterr().out

    def test_gradcheck_rep_without_labels_fails(self, capsys):
        # the rep term with no label to supervise it is NoSupervisionError,
        # not a check of an empty term that passes with max_rel 0
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "example_plane.cfg")
        code = cli.main(["gradcheck", "--config", config, "--terms", "rep",
                         "--scene.beams=0"])
        assert code == 2
        out, err = capsys.readouterr()
        assert "result=PASS" not in out
        assert err.startswith("sfm-losskit: error: NoSupervisionError: ")

    @pytest.mark.parametrize("term, weight", [("rep", "lambda_rep"),
                                              ("smooth", "lambda_smooth")])
    def test_gradcheck_zero_weight_term_fails(self, capsys, term, weight):
        # a selected term of weight 0 is not in the total: checking it
        # checks nothing, which is an error, not a PASS with max_rel 0
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "example_plane.cfg")
        code = cli.main(["gradcheck", "--config", config, "--terms", term,
                         f"--weights.{weight}=0"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("sfm-losskit: error: ConfigError: ")
        assert err.rstrip().endswith(f"weight 0 for ['{term}']")

    def test_synth_idempotent_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["synth", "--config", str(cfg), "--out", str(out_a)])
        cli.main(["synth", "--config", str(cfg), "--out", str(out_b)])
        for name in os.listdir(out_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_optimize_command_produces_reports(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(
            cfg,
            "weights.lambda_rep = 0.01\n"
            "optimizer.phase_a_iters = 40\n"
            "optimizer.phase_b_iters = 30\n"
            "optimizer.tol = 0\n",
        )
        scene_dir = tmp_path / "scene"
        cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)])
        out = tmp_path / "report"
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(out)])
        assert code == 0
        history = (out / "loss_history.csv").read_text().splitlines()
        assert history[0] == "iteration,photo,smooth,rep,total,median_ratio"
        assert len(history) == 1 + 70
        metrics_lines = (out / "metrics.csv").read_text().splitlines()
        assert metrics_lines[0].startswith("abs_rel,")

    def test_optimize_depth_scores_as_its_metrics(self, tmp_path, capsys):
        # eval of the written depth against the scene's ground truth gives
        # the metrics.csv row, up to the float32 rounding of depth.pfm
        cfg = tmp_path / "run.cfg"
        write_config(cfg, "weights.lambda_rep = 0.01\noptimizer.phase_a_iters = 20\n"
                          "optimizer.phase_b_iters = 20\n")
        scene_dir, out = tmp_path / "scene", tmp_path / "report"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        assert cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", str(out / "depth.pfm"), str(scene_dir / "depth.pfm")]) == 0
        header, row = capsys.readouterr().out.splitlines()
        written = (out / "metrics.csv").read_text().splitlines()
        assert header == written[0]
        rescored = [float(v) for v in row.split(",")]
        assert rescored == pytest.approx([float(v) for v in written[1].split(",")], rel=1e-6)

    def test_evaluation_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        code = cli.main(["optimize", str(tmp_path / "scene"), "--config", str(cfg),
                         "--out", str(tmp_path / "report"), "--evaluation.max_depth=5"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["sfm-losskit: error: ConfigError: unknown config section 'evaluation'"]

    @pytest.mark.parametrize(
        "override, message",
        [
            ("optimizer.tol=inf", "tol must be finite, got inf"),
            ("optimizer.init_depth=nan", "init_depth must be finite, got nan"),
            # at or below the in-front cut-off EPS_Z the first step's depth check fails
            ("optimizer.init_depth=1e-7", "init_depth must exceed EPS_Z=1e-06, got 1e-07"),
            ("optimizer.init_depth=1e-6", "init_depth must exceed EPS_Z=1e-06, got 1e-06"),
            ("weights.lambda_rep=nan", "loss weights must be finite"),
            ("weights.lambda_smooth=nan", "loss weights must be finite"),
            ("optimizer.tol=-0.1", "invalid convergence tolerance"),
            ("scene.d0=inf", "d0 must be finite, got inf"),
        ],
    )
    def test_invalid_config_value_rejected(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        code = cli.main(["optimize", str(tmp_path / "scene"), "--config", str(cfg),
                         "--out", str(tmp_path / "report"), f"--{override}"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"sfm-losskit: error: ConfigError: {message}"]

    def test_optimize_no_labels_exit_code_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir),
                         "--scene.beams=0"]) == 0
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "rep")])
        assert code == 2

    def test_optimize_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(
            cfg,
            "weights.lambda_rep = 0.01\n"
            "optimizer.phase_a_iters = 25\n"
            "optimizer.phase_b_iters = 15\n",
        )
        scene_dir = tmp_path / "scene"
        cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)])
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        cli.main(["optimize", str(scene_dir), "--config", str(cfg), "--out", str(out_a)])
        cli.main(["optimize", str(scene_dir), "--config", str(cfg), "--out", str(out_b)])
        for name in ("loss_history.csv", "metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize", "scene"], "the following arguments are required: --config, --out"),
            (["decimate", "labels.pfm", "--keep", "abc", "--out", "kept.pfm"],
             "argument --keep: invalid int value: 'abc'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            # flags match only when spelled in full: --o is no --out
            (["decimate", "labels.pfm", "--keep", "4", "--o", "kept.pfm"],
             "the following arguments are required: --out"),
            # nor --t a --terms, and --n (once a prefix of a flag) is no flag
            (["gradcheck", "--config", "run.cfg", "--t", "rep"],
             "unrecognized argument '--t' (expected --section.key=value)"),
            (["gradcheck", "--config", "run.cfg", "--n", "2"],
             "unrecognized argument '--n' (expected --section.key=value)"),
        ],
        ids=["missing-flag", "non-integer", "unknown-command", "prefix-o", "prefix-t",
             "prefix-n"],
    )
    def test_argument_error_exit_1(self, capsys, argv, message):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"sfm-losskit: error: ConfigError: {message}")

    @pytest.mark.parametrize("argv", [["--help"], ["gradcheck", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sfm-losskit")


def assert_codec_error_exit(code, capsys, kind="CodecError"):
    """Exit 1 with the one-line error message of ``kind`` and no traceback."""
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"sfm-losskit: error: {kind}: ")


class TestMalformedInput:
    def test_eval_pfm_non_numeric_scale(self, tmp_path, capsys):
        pred = tmp_path / "pred.pfm"
        pred.write_bytes(b"Pf\n2 2\nabc\n")
        assert_codec_error_exit(cli.main(["eval", str(pred), str(pred)]), capsys)

    @pytest.mark.parametrize("scale", ["0", "-0.0", "nan", "inf"])
    def test_eval_pfm_zero_or_non_finite_scale(self, tmp_path, capsys, scale):
        # no byte order follows from such a scale: read as big-endian, 4.0
        # would come back as a positive subnormal that passes eval's checks
        gt, pred = tmp_path / "gt.pfm", tmp_path / "pred.pfm"
        io_codecs.write_pfm(gt, np.full((2, 2), 4.0, dtype=np.float32))
        pred.write_bytes(f"Pf\n2 2\n{scale}\n".encode() + np.full(4, 4.0, "<f4").tobytes())
        assert_codec_error_exit(cli.main(["eval", str(pred), str(gt)]), capsys)

    def test_eval_pfm_non_positive_size(self, tmp_path, capsys):
        pred = tmp_path / "pred.pfm"
        pred.write_bytes(b"Pf\n-2 -2\n-1.0\n" + bytes(16))
        assert_codec_error_exit(cli.main(["eval", str(pred), str(pred)]), capsys)

    @pytest.mark.parametrize(
        "key, index, token",
        [
            ("width", 1, "48.5"),  # non-integer size field
            ("height", 1, "forty"),
            ("channels", 1, "one"),
            ("intrinsics", 3, "abc"),  # non-numeric intrinsics row
            ("intrinsics", 4, ""),  # intrinsics row one value short
            ("intrinsics", 1, "-40.0"),  # CameraIntrinsics rejects fx <= 0
            ("width", 1, "1"),  # CameraIntrinsics rejects a 1-pixel-wide image
            ("context", 5, "abc"),  # non-numeric pose entry
            ("channels", 1, "2"),  # neither gray nor RGB
            ("context", 5, "nan"),  # non-finite pose entry
            ("intrinsics", 3, "inf"),  # non-finite cx
            ("context", 2, "3.0"),  # R[0,0] of 3: not orthonormal
            ("context", 2, "-1.0"),  # a reflection: orthonormal, det -1
        ],
    )
    def test_optimize_malformed_manifest(self, tmp_path, capsys, key, index, token):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        manifest = scene_dir / io_codecs.MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.split()[0] == key)
        parts = lines[row].split()
        parts[index] = token
        lines[row] = " ".join(p for p in parts if p)
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    def test_optimize_manifest_without_context(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        manifest = scene_dir / io_codecs.MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(ln for ln in lines if not ln.startswith("context")))
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    @pytest.mark.parametrize("extra", ["widht 99", "channels 3", "width 48", "depth depth.pfm",
                                       "intrinsics 40.0 40.0 23.5 19.5"])
    def test_optimize_manifest_unknown_or_repeated_field(self, tmp_path, capsys, extra):
        # a repeated field must not override the first (an appended
        # "channels 3" would load this 1-channel scene in 3 channels), even
        # when it agrees, and an unknown field (a misspelt one) must not pass
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        manifest = scene_dir / io_codecs.MANIFEST_NAME
        manifest.write_text(manifest.read_text() + extra + "\n")
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    def test_optimize_manifest_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        manifest = scene_dir / io_codecs.MANIFEST_NAME
        manifest.write_bytes(b"# \xff\n" + manifest.read_bytes())
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    def test_synth_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        cfg.write_bytes(cfg.read_bytes() + b"scene.d0 = 8\xff\n")
        code = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scene")])
        assert_codec_error_exit(code, capsys, kind="ConfigError")

    @pytest.mark.parametrize(
        "which, pixels, bad",
        [("pred", (2, 3), np.nan), ("pred", (2, 3), np.inf), ("pred", slice(None), np.nan),
         ("gt", (2, 3), np.nan), ("gt", (2, 3), np.inf),
         ("pred", (2, 3), -1.0), ("pred", (2, 3), 0.0), ("pred", slice(None), 0.0),
         ("gt", (2, 3), -5.0)],
        ids=["pred-nan", "pred-inf", "pred-all-nan", "gt-nan", "gt-inf",
             "pred-negative", "pred-zero", "pred-all-zero", "gt-negative"],
    )
    def test_eval_non_finite_raster(self, tmp_path, capsys, which, pixels, bad):
        # a predicted depth must be positive as well as finite, and a
        # single-channel ground truth nonnegative (0 = no ground truth)
        rasters = {"gt": np.full((8, 10), 4.0, dtype=np.float32),
                   "pred": np.full((8, 10), 4.5, dtype=np.float32)}
        rasters[which][pixels] = bad
        for name, raster in rasters.items():
            io_codecs.write_pfm(tmp_path / f"{name}.pfm", raster)
        code = cli.main(["eval", str(tmp_path / "pred.pfm"), str(tmp_path / "gt.pfm")])
        assert_codec_error_exit(code, capsys)

    @pytest.mark.parametrize("command", ["synth", "optimize"])
    def test_out_names_existing_file(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        capsys.readouterr()
        taken = tmp_path / "taken"
        taken.write_text("")
        args = ["synth"] if command == "synth" else ["optimize", str(scene_dir)]
        code = cli.main([*args, "--config", str(cfg), "--out", str(taken)])
        assert_codec_error_exit(code, capsys, kind="FileExistsError")

    def test_eval_size_mismatch(self, tmp_path, capsys):
        gt_path, pred_path = tmp_path / "gt.pfm", tmp_path / "pred.pfm"
        io_codecs.write_pfm(gt_path, np.full((8, 10), 4.0, dtype=np.float32))
        io_codecs.write_pfm(pred_path, np.full((8, 9), 4.0, dtype=np.float32))
        assert_codec_error_exit(cli.main(["eval", str(pred_path), str(gt_path)]), capsys)

    @pytest.mark.parametrize("command", ["optimize", "gradcheck"])
    def test_num_scales_too_deep_for_image(self, tmp_path, capsys, command):
        # 48x40 divides by 8 but not by 16, the coarsest factor of 5 scales
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        capsys.readouterr()
        if command == "optimize":
            args = ["optimize", str(scene_dir), "--out", str(tmp_path / "report")]
        else:
            args = ["gradcheck"]
        code = cli.main([*args, "--config", str(cfg), "--optimizer.num_scales=5"])
        assert_codec_error_exit(code, capsys, kind="ConfigError")

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -2.0])
    def test_optimize_bad_ground_truth_depth(self, tmp_path, capsys, bad):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        depth = io_codecs.read_pfm(scene_dir / "depth.pfm").copy()
        depth[3, 5] = bad
        io_codecs.write_pfm(scene_dir / "depth.pfm", depth)
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    def test_optimize_three_channel_ground_truth_depth(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        depth = io_codecs.read_pfm(scene_dir / "depth.pfm")
        io_codecs.write_pfm(scene_dir / "depth.pfm", np.stack([depth] * 3, axis=2))
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    def test_synth_depth_beyond_float32(self, tmp_path, capsys):
        # a background at 1e39 m cannot be stored as a float32 depth
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scene"),
                             "--scene.d0=1e39"])
        assert_codec_error_exit(code, capsys)

    def test_synth_failure_leaves_no_partial_scene(self, tmp_path, capsys):
        # every raster is encoded before the first file is opened
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "example_plane.cfg")
        big = tmp_path / "big"
        code = cli.main(["synth", "--config", config, "--scene.d0=1e39", "--out", str(big)])
        assert_codec_error_exit(code, capsys)
        assert not big.exists() or list(big.iterdir()) == []

    @pytest.mark.parametrize(
        "read, header",
        [(io_codecs.read_pfm, b"Pf\n100000 100000\n-1.0\n"),
         (io_codecs.read_ppm, b"P6\n100000 100000\n65535\n")],
    )
    def test_header_size_beyond_file_rejected(self, tmp_path, read, header):
        # 40-60 GB promised by the header: rejected before any read allocates it
        path = tmp_path / "huge"
        path.write_bytes(header + bytes(64))
        with pytest.raises(CodecError, match="truncated payload"):
            read(path)

    @pytest.mark.parametrize("size", [b"-48 40", b"-48 -40", b"48 0"])
    def test_optimize_ppm_non_positive_size(self, tmp_path, capsys, size):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        target = scene_dir / "target.ppm"
        raw = target.read_bytes()
        assert raw.startswith(b"P6\n48 40\n")
        target.write_bytes(b"P6\n" + size + raw[len(b"P6\n48 40"):])
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    @pytest.mark.parametrize("name", ["context_00.ppm", "labels.pfm"])
    def test_optimize_raster_size_disagrees_with_manifest(self, tmp_path, capsys, name):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        path = scene_dir / name
        if name.endswith(".ppm"):
            write_ppm(path, read_ppm(path)[:, :24])
        else:
            io_codecs.write_pfm(path, io_codecs.read_pfm(path)[:, :24])
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    def test_optimize_labels_channels_disagree(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        labels = io_codecs.read_pfm(scene_dir / "labels.pfm").copy()
        row, col = np.argwhere(labels[..., 0] > 0)[0]
        labels[row, col, 1] = -1.0  # a labeled pixel without a beam
        io_codecs.write_pfm(scene_dir / "labels.pfm", labels)
        capsys.readouterr()
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "report")])
        assert_codec_error_exit(code, capsys)

    @pytest.mark.parametrize("beam_id", [-1.0, 0.0])
    @pytest.mark.parametrize("command", ["optimize", "eval"])
    def test_negative_label_depth(self, tmp_path, capsys, command, beam_id):
        # a negative depth is neither a label nor the 0 of an unlabeled pixel,
        # whatever beam id it carries
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        labels = io_codecs.read_pfm(scene_dir / "labels.pfm").copy()
        row, col = np.argwhere(labels[..., 0] == 0)[0]
        labels[row, col, :2] = -5.0, beam_id
        io_codecs.write_pfm(scene_dir / "labels.pfm", labels)
        capsys.readouterr()
        if command == "optimize":
            args = ["optimize", str(scene_dir), "--config", str(cfg),
                    "--out", str(tmp_path / "report")]
        else:
            args = ["eval", str(scene_dir / "depth.pfm"), str(scene_dir / "labels.pfm")]
        assert cli.main(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"sfm-losskit: error: CodecError: {scene_dir / 'labels.pfm'}: "
                       "label depth must be >= 0 (0 = no label)"]

    @pytest.mark.parametrize(
        "channel, bad",
        # 8.5 would truncate to the scene's 8 beams, 0.3 round to beam 0;
        # a beam id of 1e20 overflows the int64 cast
        [(0, np.inf), (2, np.inf), (1, np.nan), (1, 0.3), (2, 8.5), (2, -3.0),
         (1, 1e20), (2, 1e20)],
        ids=["depth-inf", "beam_count-inf", "beam_id-nan", "beam_id-fraction",
             "beam_count-fraction", "beam_count-negative", "beam_id-huge",
             "beam_count-huge"],
    )
    @pytest.mark.parametrize("command", ["optimize", "decimate", "eval"])
    def test_non_finite_labels(self, tmp_path, capsys, command, channel, bad):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        scene_dir = tmp_path / "scene"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)]) == 0
        labels = io_codecs.read_pfm(scene_dir / "labels.pfm").copy()
        if channel == 2:
            labels[..., 2] = bad  # still constant, so only the value rejects it
            if bad < 0:  # no labels, so no beam id is checked against the count
                labels[..., 0], labels[..., 1] = 0.0, -1.0
        else:
            row, col = np.argwhere(labels[..., 0] > 0)[0]
            labels[row, col, channel] = bad
        io_codecs.write_pfm(scene_dir / "labels.pfm", labels)
        capsys.readouterr()
        if command == "optimize":
            args = ["optimize", str(scene_dir), "--config", str(cfg),
                    "--out", str(tmp_path / "report")]
        elif command == "decimate":
            args = ["decimate", str(scene_dir / "labels.pfm"), "--keep", "1",
                    "--out", str(tmp_path / "kept.pfm")]
        else:
            args = ["eval", str(scene_dir / "depth.pfm"), str(scene_dir / "labels.pfm")]
        assert_codec_error_exit(cli.main(args), capsys)


class TestGolden:
    def test_optimize_reproduces_golden_history(self, tmp_path):
        here = os.path.dirname(__file__)
        golden_path = os.path.join(here, "data", "golden_loss_history.csv")
        config_path = os.path.join(here, "..", "configs", "example_plane.cfg")
        scene_dir = tmp_path / "scene"
        out = tmp_path / "report"
        assert cli.main(["synth", "--config", config_path, "--out", str(scene_dir)]) == 0
        assert cli.main(["optimize", str(scene_dir), "--config", config_path,
                         "--out", str(out)]) == 0
        golden = (
            np.genfromtxt(golden_path, delimiter=",", skip_header=1),
            (out / "loss_history.csv"),
        )
        fresh = np.genfromtxt(golden[1], delimiter=",", skip_header=1)
        assert fresh.shape == golden[0].shape
        assert np.abs(fresh - golden[0]).max() < 1e-9

