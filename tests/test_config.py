import argparse
from dataclasses import fields

import pytest

from sfm_losskit import cli, config
from sfm_losskit.errors import ConfigError
from sfm_losskit.losses import LossWeights
from sfm_losskit.optimize import OptimConfig
from sfm_losskit.supervision import DecimationSpec
from sfm_losskit.synth import SceneSpec

SECTION_CLASSES = {
    "scene": SceneSpec,
    "weights": LossWeights,
    "optimizer": OptimConfig,
    "decimation": DecimationSpec,
}


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
            if section == "scene":
                assert keys.pop("ppm_maxval") == "int"  # RunConfig.ppm_maxval
            if section == "optimizer":
                by_field.pop("weights")  # the weights section
            assert keys == by_field

    def test_settable_key_count(self):
        assert len(settable_keys()) == 39
        assert ("optimizer", "max_iters") not in settable_keys()

    def test_cli_flag_count(self):
        # optional flags of each subcommand, --help aside; with the config
        # keys and SFM_LOSSKIT_THREADS, 57 settable options in all
        subcommands = next(
            action.choices for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            name: sum(1 for action in sub._actions if action.option_strings
                      and not isinstance(action, argparse._HelpAction))
            for name, sub in subcommands.items()
        }
        assert flags == {"synth": 2, "optimize": 2, "gradcheck": 6, "decimate": 3, "eval": 4}
        assert sum(flags.values()) == 17

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
            "width": "40", "scene.texture_amp": "0.3", "scene.ppm_maxval": "255",
            "weights.alpha": "0.5", "optimizer.phase_b_iters": "7",
            "optimizer.supervised_loss": "l1", "decimation.keep_beams": "4",
        })
        assert cfg.scene.width == 40 and cfg.scene.texture_amp == 0.3
        assert cfg.ppm_maxval == 255
        assert cfg.optimizer.weights.alpha == 0.5
        assert cfg.optimizer.phase_b_iters == 7 and cfg.optimizer.supervised_loss == "l1"
        assert cfg.decimation == DecimationSpec(keep_beams=4)

    def test_max_iters_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene.seed = 1\noptimizer.seed = 1\n")
        code = cli.main(["optimize", str(tmp_path / "scene"), "--config", str(cfg),
                         "--out", str(tmp_path / "report"), "--optimizer.max_iters=10"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["sfm-losskit: error: ConfigError: unknown config key optimizer.max_iters"]

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
