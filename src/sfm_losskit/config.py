"""Sectioned key=value run configuration.

Config files hold ``section.key = value`` lines (``#`` starts a comment).
Bare keys are accepted as shorthand for the scene section, so plain scene
files (``geometry = plane``) parse too. Command-line ``--section.key=value``
flags override file values, which override defaults. Unknown keys are
rejected and every numeric range is validated at parse time.

Seeds are mandatory: a config used to synthesize must set scene.seed and a
config used to optimize must set optimizer.seed. Nothing is ever seeded
from the clock, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .losses import LossWeights
from .optimize import OptimConfig
from .supervision import DecimationSpec
from .synth import SceneSpec

_SCENE_KEYS = {f.name for f in fields(SceneSpec)}

_WEIGHT_KEYS = {"alpha", "lambda_smooth", "lambda_rep"}

_OPTIMIZER_KEYS = {
    "lr_depth", "lr_pose", "beta1", "beta2", "epsilon",
    "max_iters", "phase_a_iters", "phase_b_iters", "tol", "tol_window",
    "optimize_pose", "init_depth", "pose_init_rot_std", "pose_init_trans_std",
    "supervised_loss", "num_scales", "lr_halve_every", "seed",
}

_DECIMATION_KEYS = {"keep_beams", "offset"}

_SECTIONS = {
    "scene": _SCENE_KEYS | {"ppm_maxval"},
    "weights": _WEIGHT_KEYS,
    "optimizer": _OPTIMIZER_KEYS,
    "decimation": _DECIMATION_KEYS,
}


@dataclass
class RunConfig:
    scene: SceneSpec
    optimizer: OptimConfig
    decimation: DecimationSpec | None
    ppm_maxval: int = 65535
    provided: frozenset = frozenset()

    def require(self, *keys: str) -> None:
        """Assert that dotted keys were given explicitly (file or flag)."""
        missing = [key for key in keys if key not in self.provided]
        if missing:
            raise ConfigError(f"required config keys not set: {', '.join(missing)}")


def _coerce(section: str, key: str, value: str):
    bool_keys = {"optimize_pose"}
    int_keys = {
        "width", "height", "channels", "seed", "beams", "px_per_beam",
        "max_iters", "phase_a_iters", "phase_b_iters", "tol_window",
        "num_scales", "lr_halve_every", "keep_beams", "offset", "ppm_maxval",
    }
    str_keys = {"geometry", "texture", "supervised_loss"}
    try:
        if key in bool_keys:
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if key in int_keys:
            return int(value)
        if key in str_keys:
            return value
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {value!r}") from exc


def parse_pairs(pairs: dict[str, str]) -> RunConfig:
    """Build a validated RunConfig from dotted-key -> string pairs."""
    by_section: dict[str, dict] = {name: {} for name in _SECTIONS}
    for dotted, value in pairs.items():
        if "." in dotted:
            section, key = dotted.split(".", 1)
        else:
            section, key = "scene", dotted
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        by_section[section][key] = _coerce(section, key, value)

    try:
        ppm_maxval = by_section["scene"].pop("ppm_maxval", 65535)
        if ppm_maxval not in (255, 65535):
            raise ConfigError(f"scene.ppm_maxval must be 255 or 65535, got {ppm_maxval}")
        scene = SceneSpec(**by_section["scene"])
        scene.validate()
        weights = LossWeights(**by_section["weights"])
        optimizer = OptimConfig(weights=weights, **by_section["optimizer"])
        decimation = None
        if by_section["decimation"]:
            decimation = DecimationSpec(
                keep_beams=by_section["decimation"].get("keep_beams", 0),
                offset=by_section["decimation"].get("offset", 0),
            )
            if decimation.keep_beams < 1:
                raise ConfigError("decimation.keep_beams must be >= 1")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    provided = frozenset(
        dotted if "." in dotted else f"scene.{dotted}" for dotted in pairs
    )
    return RunConfig(
        scene=scene,
        optimizer=optimizer,
        decimation=decimation,
        ppm_maxval=ppm_maxval,
        provided=provided,
    )


def read_config_file(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            pairs[key] = value
    return pairs


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Defaults < config file < command-line overrides."""
    pairs: dict[str, str] = {}
    if path is not None:
        pairs.update(read_config_file(path))
    if overrides:
        pairs.update(overrides)
    return parse_pairs(pairs)
