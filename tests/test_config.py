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
    "scene": ["geometry", "width", "height", "channels", "d0", "slant", "baseline",
              "seed", "beams", "px_per_beam", "texture_cycles"],
    "weights": ["alpha", "lambda_smooth", "lambda_rep"],
    "optimizer": ["phase_a_iters", "phase_b_iters", "tol", "init_depth",
                  "supervised_loss", "num_scales", "seed"],
}

CLI_FLAGS = {
    "synth": ["--config", "--out"],
    "optimize": ["--config", "--out"],
    "gradcheck": ["--config", "--terms"],
    "decimate": ["--keep", "--out"],
    "eval": ["--median-scaling", "--out"],
}

UNRECOGNIZED = "unrecognized argument '{}' (expected --section.key=value)"

# Options no longer taken: the command given them and its error for the
# ``--x=v`` form; the ``--x v`` form is an unrecognized argument everywhere.
# A key is always dotted, so an undotted ``--x=v`` is unrecognized too.
# The Adam rates and moments, the convergence window, the initial pose
# spread and the two_plane strip and texture amplitude are module
# constants, and the context poses carry no rotation.
CONSTANT_KEYS = [
    "optimizer.lr_depth", "optimizer.lr_pose", "optimizer.beta1", "optimizer.beta2",
    "optimizer.epsilon", "optimizer.tol_window", "optimizer.pose_init_rot_std",
    "optimizer.pose_init_trans_std", "scene.d1", "scene.strip_min", "scene.strip_max",
    "scene.texture_amp", "scene.rotation",
]
REMOVED_OPTIONS = [
    *[("optimize", f"--{key}", f"unknown config key {key}") for key in CONSTANT_KEYS],
    ("optimize", "--scene.ppm_maxval", "unknown config key scene.ppm_maxval"),
    ("optimize", "--scene.baseline_z", "unknown config key scene.baseline_z"),
    ("optimize", "--decimation.keep_beams", "unknown config section 'decimation'"),
    ("optimize", "--decimation.offset", "unknown config section 'decimation'"),
    ("gradcheck", "--scenes", UNRECOGNIZED.format("--scenes=1")),
    ("gradcheck", "--h", UNRECOGNIZED.format("--h=1")),
    ("gradcheck", "--tol", UNRECOGNIZED.format("--tol=1")),
    ("gradcheck", "--n-samples", UNRECOGNIZED.format("--n-samples=1")),
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
        assert len(settable_keys()) == 21

    def test_cli_flag_count(self):
        # optional flags of each subcommand, --help aside; with the config
        # keys, 31 settable options in all
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
        assert sum(map(len, flags.values())) == 10

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
            "scene.width": "40", "scene.texture_cycles": "0.2",
            "weights.alpha": "0.5", "optimizer.phase_b_iters": "7",
            "optimizer.supervised_loss": "l1",
        })
        assert cfg.scene.width == 40 and cfg.scene.texture_cycles == 0.2
        assert cfg.provided == {"scene.width", "scene.texture_cycles", "weights.alpha",
                                "optimizer.phase_b_iters", "optimizer.supervised_loss"}
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

    def test_bare_key_is_rejected_in_files_and_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene.seed = 1\nwidth = 40\n")
        synth = ["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]
        assert_rejected(synth, capsys,
                        "config key 'width' is not dotted (expected section.key)")
        assert not (tmp_path / "s").exists()
        cfg.write_text("scene.seed = 1\n")
        assert_rejected([*synth, "--width=40"], capsys, UNRECOGNIZED.format("--width=40"))

    def test_repeated_key_is_rejected_in_files_and_flags(self, tmp_path, capsys):
        # a key is given once in a file and once among the flags; a flag
        # still overrides the file's value
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "s"
        cfg.write_text("scene.seed = 1\nscene.width = 40\nscene.seed = 2\n")
        synth = ["synth", "--config", str(cfg), "--out", str(out)]
        assert_rejected(synth, capsys, f"{cfg}:3: repeated config key scene.seed")
        cfg.write_text("scene.seed = 1\n")
        assert_rejected([*synth, "--scene.seed=1", "--scene.seed=2"], capsys,
                        "repeated config key --scene.seed")
        assert not out.exists()
        assert cli.main([*synth, "--scene.seed=2", "--scene.width=40"]) == 0
        assert config.load_config(cfg, {"scene.seed": "2"}).scene.seed == 2

    @pytest.mark.parametrize("key", [
        "optimizer.optimize_pose", "optimizer.lr_halve_every", "scene.texture",
        "scene.checker_size", "scene.fx", "scene.fy", "scene.cx", "scene.cy",
        "scene.label_frac",
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene.seed = 1\noptimizer.seed = 1\n")
        code = cli.main(["optimize", str(tmp_path / "scene"), "--config", str(cfg),
                         "--out", str(tmp_path / "report"), f"--{key}=1"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"sfm-losskit: error: ConfigError: unknown config key {key}"]
