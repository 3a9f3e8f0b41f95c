import argparse
from dataclasses import fields

import pytest

from sfm_losskit import cli, config
from sfm_losskit.errors import ConfigError
from sfm_losskit.losses import LossWeights
from sfm_losskit.optimize import OptimConfig
from sfm_losskit.synth import SceneSpec

SECTION_CLASSES = {
    "scene": SceneSpec,
    "weights": LossWeights,
    "optimizer": OptimConfig,
}

SETTABLE_KEYS = {
    "scene": ["geometry", "width", "height", "channels", "d0", "d1", "strip_min",
              "strip_max", "slant", "baseline", "rotation", "seed", "beams",
              "px_per_beam", "label_frac", "texture_cycles", "texture_amp"],
    "weights": ["alpha", "lambda_smooth", "lambda_rep"],
    "optimizer": ["lr_depth", "lr_pose", "beta1", "beta2", "epsilon", "phase_a_iters",
                  "phase_b_iters", "tol", "tol_window", "init_depth",
                  "pose_init_rot_std", "pose_init_trans_std", "supervised_loss",
                  "num_scales", "seed"],
}

CLI_FLAGS = {
    "synth": ["--config", "--out"],
    "optimize": ["--config", "--out"],
    "gradcheck": ["--config", "--n-samples", "--terms"],
    "decimate": ["--keep", "--out"],
    "eval": ["--median-scaling", "--out"],
}

UNRECOGNIZED = "unrecognized argument '{}' (expected --section.key=value)"

# Options no longer taken: the command given them and its error for the
# ``--x=v`` form; the ``--x v`` form is an unrecognized argument everywhere.
# A bare key is scene shorthand in config files only, so an undotted
# ``--x=v`` is unrecognized too.
REMOVED_OPTIONS = [
    ("optimize", "--scene.ppm_maxval", "unknown config key scene.ppm_maxval"),
    ("optimize", "--scene.baseline_z", "unknown config key scene.baseline_z"),
    ("optimize", "--decimation.keep_beams", "unknown config section 'decimation'"),
    ("optimize", "--decimation.offset", "unknown config section 'decimation'"),
    ("gradcheck", "--scenes", UNRECOGNIZED.format("--scenes=1")),
    ("gradcheck", "--h", UNRECOGNIZED.format("--h=1")),
    ("gradcheck", "--tol", UNRECOGNIZED.format("--tol=1")),
    ("decimate", "--offset", UNRECOGNIZED.format("--offset=1")),
    ("eval", "--min-depth", UNRECOGNIZED.format("--min-depth=1")),
    ("eval", "--max-depth", UNRECOGNIZED.format("--max-depth=1")),
]


def assert_rejected(argv, capsys, message):
    """Exit 1 with the one-line ConfigError ``message``."""
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"sfm-losskit: error: ConfigError: {message}"]


def settable_keys(kind=None):
    return [
        (section, key)
        for section, keys in config._SECTIONS.items()
        for key, key_kind in keys.items()
        if kind is None or key_kind == kind
    ]


class TestSchema:
    def test_every_key_is_a_dataclass_field(self):
        assert set(config._SECTIONS) == set(SECTION_CLASSES)
        for section, cls in SECTION_CLASSES.items():
            by_field = {f.name: f.type for f in fields(cls)}
            keys = dict(config._SECTIONS[section])
            if section == "optimizer":
                by_field.pop("weights")  # the weights section
            assert keys == by_field

    def test_settable_key_count(self):
        assert {section: list(keys) for section, keys in config._SECTIONS.items()} \
            == SETTABLE_KEYS
        assert len(settable_keys()) == 35

    def test_cli_flag_count(self):
        # optional flags of each subcommand, --help aside; with the config
        # keys and SFM_LOSSKIT_THREADS, 47 settable options in all
        subcommands = next(
            action.choices for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            name: [flag for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)
                   for flag in action.option_strings]
            for name, sub in subcommands.items()
        }
        assert flags == CLI_FLAGS
        assert sum(map(len, flags.values())) == 11

    @pytest.mark.parametrize("section, key", settable_keys("int"))
    def test_non_integer_value_rejected(self, section, key):
        with pytest.raises(ConfigError, match=f"{section}.{key}: cannot parse '1.5'"):
            config.parse_pairs({f"{section}.{key}": "1.5"})

    @pytest.mark.parametrize("section, key", settable_keys("float"))
    def test_non_numeric_value_rejected(self, section, key):
        with pytest.raises(ConfigError, match=f"{section}.{key}: cannot parse 'abc'"):
            config.parse_pairs({f"{section}.{key}": "abc"})

    def test_values_reach_their_fields(self):
        cfg = config.parse_pairs({
            "width": "40", "scene.texture_amp": "0.3",
            "weights.alpha": "0.5", "optimizer.phase_b_iters": "7",
            "optimizer.supervised_loss": "l1",
        })
        assert cfg.scene.width == 40 and cfg.scene.texture_amp == 0.3
        assert cfg.optimizer.weights.alpha == 0.5
        assert cfg.optimizer.phase_b_iters == 7 and cfg.optimizer.supervised_loss == "l1"

    def test_max_iters_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene.seed = 1\noptimizer.seed = 1\n")
        optimize = ["optimize", str(tmp_path / "scene"), "--config", str(cfg),
                    "--out", str(tmp_path / "report")]
        assert_rejected([*optimize, "--optimizer.max_iters=10"], capsys,
                        "unknown config key optimizer.max_iters")
        assert_rejected([*optimize, "--optimizer.max_iters", "10"], capsys,
                        "unrecognized argument '--optimizer.max_iters' "
                        "(expected --section.key=value)")

    @pytest.mark.parametrize("command, option, message", REMOVED_OPTIONS,
                             ids=[option for _, option, _ in REMOVED_OPTIONS])
    def test_removed_option_is_rejected(self, tmp_path, capsys, command, option, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene.seed = 1\noptimizer.seed = 1\n")
        argv = {
            "optimize": ["optimize", str(tmp_path / "scene"), "--config", str(cfg),
                         "--out", str(tmp_path / "report")],
            "gradcheck": ["gradcheck", "--config", str(cfg)],
            "decimate": ["decimate", str(tmp_path / "labels.pfm"), "--keep", "4",
                         "--out", str(tmp_path / "kept.pfm")],
            "eval": ["eval", str(tmp_path / "pred.pfm"), str(tmp_path / "gt.pfm")],
        }[command]
        assert_rejected([*argv, f"{option}=1"], capsys, message)
        assert_rejected([*argv, option, "1"], capsys, UNRECOGNIZED.format(option))

    def test_bare_key_is_scene_shorthand_in_files_only(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nwidth = 40\n")
        assert config.load_config(cfg).scene.width == 40
        assert_rejected(["synth", "--config", str(cfg), "--out", str(tmp_path / "s"),
                         "--width=40"], capsys, UNRECOGNIZED.format("--width=40"))

    @pytest.mark.parametrize("key", [
        "optimizer.optimize_pose", "optimizer.lr_halve_every", "scene.texture",
        "scene.checker_size", "scene.fx", "scene.fy", "scene.cx", "scene.cy",
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene.seed = 1\noptimizer.seed = 1\n")
        code = cli.main(["optimize", str(tmp_path / "scene"), "--config", str(cfg),
                         "--out", str(tmp_path / "report"), f"--{key}=1"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"sfm-losskit: error: ConfigError: unknown config key {key}"]
