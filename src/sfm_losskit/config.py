"""Sectioned key=value run configuration.

Config files hold ``section.key = value`` lines (``#`` starts a comment).
Bare keys are accepted as shorthand for the scene section, so plain scene
files (``geometry = plane``) parse too. Command-line ``--section.key=value``
flags override file values, which override defaults. Each section's keys
and value types are the fields of its dataclass (SceneSpec plus ppm_maxval,
LossWeights, OptimConfig without weights, DecimationSpec). Unknown keys are
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


def _schema(cls, skip=()) -> dict[str, str]:
    """Settable keys of a dataclass and their value types, from its fields."""
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


# section -> {key: value type}
_SECTIONS = {
    "scene": {**_schema(SceneSpec), "ppm_maxval": "int"},
    "weights": _schema(LossWeights),
    "optimizer": _schema(OptimConfig, skip={"weights"}),
    "decimation": _schema(DecimationSpec),
}

_PARSERS = {"int": int, "float": float, "str": str}


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
        kind = _SECTIONS[section].get(key)
        if kind is None:
            raise ConfigError(f"unknown config key {section}.{key}")
        try:
            by_section[section][key] = _PARSERS[kind](value)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {value!r}") from exc

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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, raw in enumerate(lines, 1):
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
