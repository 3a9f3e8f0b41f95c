import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfm_losskit import cli, io_codecs
from sfm_losskit.errors import CodecError, ConfigError
from sfm_losskit.geometry import PoseSE3
from sfm_losskit.supervision import SparseDepth
from sfm_losskit.synth import SceneSpec, make_scene


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
        rng = np.random.default_rng(2)
        levels = rng.integers(0, maxval + 1, (9, 7, 3))
        img = levels / maxval
        path = tmp_path / "x.ppm"
        io_codecs.write_ppm(path, img, maxval)
        back = io_codecs.read_ppm(path)
        assert (back == img).all()

    def test_16bit_exhaustive_level_sweep(self, tmp_path):
        # every one of the 65536 levels survives the round trip exactly
        levels = np.arange(65536, dtype=np.float64).reshape(256, 256)
        img = np.repeat((levels / 65535)[..., None], 3, axis=2)
        path = tmp_path / "sweep.ppm"
        io_codecs.write_ppm(path, img, 65535)
        back = io_codecs.read_ppm(path)
        assert (back == img).all()

    def test_gray_images_replicate_channels(self, tmp_path):
        img = np.random.default_rng(3).uniform(0, 1, (5, 6, 1))
        path = tmp_path / "g.ppm"
        io_codecs.write_ppm(path, img, 255)
        back = io_codecs.read_ppm(path)
        assert back.shape == (5, 6, 3)
        assert (back[..., 0] == back[..., 1]).all()

    def test_invalid_maxval(self, tmp_path):
        with pytest.raises(ConfigError):
            io_codecs.write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 1)), 1023)


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
        scene = make_scene(SceneSpec(width=48, height=40, seed=5, beams=8, rotation=1.0))
        io_codecs.write_scene_dir(tmp_path / "scene", scene)
        loaded = io_codecs.read_scene_dir(tmp_path / "scene")
        assert loaded.intrinsics == scene.intrinsics
        assert loaded.target.shape == scene.target.shape
        assert len(loaded.contexts) == 2
        for (img_a, pose_a), (img_b, pose_b) in zip(loaded.contexts, scene.contexts):
            assert np.abs(pose_a.matrix() - pose_b.matrix()).max() < 1e-12
            assert np.abs(img_a - img_b).max() <= 1.0 / 65535


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
        from sfm_losskit.supervision import DecimationSpec, decimate

        scene = make_scene(SceneSpec(width=64, height=96, seed=6, beams=32, px_per_beam=10))
        src = tmp_path / "labels.pfm"
        io_codecs.write_labels_pfm(src, scene.labels)
        out = tmp_path / "labels4.pfm"
        assert cli.main(["decimate", str(src), "--keep", "4", "--out", str(out)]) == 0
        back = io_codecs.read_labels_pfm(out)
        oracle = decimate(scene.labels, DecimationSpec(keep_beams=4))
        assert back.n_labels == oracle.n_labels
        assert (back.depth == oracle.depth.astype(np.float32)).all()

    def test_decimate_invalid_spec_exit_code(self, tmp_path):
        scene = make_scene(SceneSpec(width=48, height=40, seed=6, beams=8))
        src = tmp_path / "labels.pfm"
        io_codecs.write_labels_pfm(src, scene.labels)
        code = cli.main(["decimate", str(src), "--keep", "3", "--out", str(tmp_path / "o.pfm")])
        assert code == 1

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
            ["gradcheck", "--config", str(cfg), "--scenes", "1",
             "--n-samples", "200", "--terms", "rep"]
        )
        assert code == 0
        assert "result=PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--h", "nan", "finite-difference step h must be positive and finite, got nan"),
            ("--tol", "nan", "tol must be nonnegative and finite, got nan"),
            ("--n-samples", "-3", "n_samples must be nonnegative, got -3"),
            ("--scenes", "0", "--scenes must be at least 1, got 0"),
            ("--scenes", "-2", "--scenes must be at least 1, got -2"),
        ],
    )
    def test_gradcheck_invalid_argument(self, tmp_path, capsys, flag, value, message):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        code = cli.main(["gradcheck", "--config", str(cfg), "--scenes", "1", flag, value])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"sfm-losskit: error: ConfigError: {message}"]

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
            "scene.label_frac = 0.05\n"
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
            ("optimizer.lr_depth=inf", "lr_depth must be finite, got inf"),
            ("optimizer.init_depth=nan", "init_depth must be finite, got nan"),
            ("weights.lambda_rep=nan", "loss weights must be finite"),
            ("weights.lambda_smooth=nan", "loss weights must be finite"),
            ("optimizer.pose_init_trans_std=-0.1",
             "pose_init_rot_std and pose_init_trans_std must be nonnegative"),
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
        write_config(cfg, "scene.beams = 0\n")
        scene_dir = tmp_path / "scene"
        cli.main(["synth", "--config", str(cfg), "--out", str(scene_dir)])
        code = cli.main(["optimize", str(scene_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "rep")])
        assert code == 2

    def test_optimize_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(
            cfg,
            "scene.label_frac = 0.05\n"
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

    def test_eval_pfm_non_positive_size(self, tmp_path, capsys):
        pred = tmp_path / "pred.pfm"
        pred.write_bytes(b"Pf\n-2 -2\n-1.0\n" + bytes(16))
        assert_codec_error_exit(cli.main(["eval", str(pred), str(pred)]), capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-depth", "inf"],  # the inf prediction pixel survives the clamp
            ["--min-depth", "nan"],
            ["--max-depth", "nan"],
            ["--min-depth", "-1"],
            ["--min-depth", "5", "--max-depth", "1"],  # inverted range
        ],
    )
    def test_eval_invalid_depth_range(self, tmp_path, capsys, flags):
        gt = np.full((8, 10), 4.0, dtype=np.float32)
        pred = gt.copy()
        pred[2, 3] = np.inf
        gt_path, pred_path = tmp_path / "gt.pfm", tmp_path / "pred.pfm"
        io_codecs.write_pfm(gt_path, gt)
        io_codecs.write_pfm(pred_path, pred)
        code = cli.main(["eval", str(pred_path), str(gt_path), *flags])
        assert_codec_error_exit(code, capsys, kind="ConfigError")

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
            io_codecs.write_ppm(path, io_codecs.read_ppm(path)[:, :24])
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


def test_threads_env_validation(monkeypatch):
    from sfm_losskit.optimize import thread_count

    monkeypatch.delenv("SFM_LOSSKIT_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("SFM_LOSSKIT_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("SFM_LOSSKIT_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.setenv("SFM_LOSSKIT_THREADS", "lots")
    with pytest.raises(ConfigError):
        thread_count()
