"""Sectioned key=value run configuration.

Config files hold ``section.key = value`` lines (``#`` starts a comment).
Command-line ``--section.key=value`` flags override file values, which
override defaults; a key is always dotted, in a file as on the command line,
and given at most once in each.
Each section's keys and value types are the fields of its dataclass: the
three sections are scene (SceneSpec), weights (LossWeights) and optimizer
(OptimConfig without weights), 21 keys in all. Unknown keys are rejected
and every numeric range is validated at parse time.

Seeds are mandatory: a config used to synthesize must set scene.seed and a
config used to optimize must set optimizer.seed. Nothing is ever seeded
from the clock, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .losses import LossWeights
from .optimize import OptimConfig
from .synth import SceneSpec


def _schema(cls, skip=()) -> dict[str, str]:
    """Settable keys of a dataclass and their value types, from its fields."""
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


# section -> {key: value type}
_SECTIONS = {
    "scene": _schema(SceneSpec),
    "weights": _schema(LossWeights),
    "optimizer": _schema(OptimConfig, skip={"weights"}),
}

_PARSERS = {"int": int, "float": float, "str": str}


@dataclass
class RunConfig:
    scene: SceneSpec
    optimizer: OptimConfig
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
        section, dot, key = dotted.partition(".")
        if not dot:
            raise ConfigError(f"config key {dotted!r} is not dotted (expected section.key)")
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
        scene = SceneSpec(**by_section["scene"])
        scene.validate()
        weights = LossWeights(**by_section["weights"])
        optimizer = OptimConfig(weights=weights, **by_section["optimizer"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(scene=scene, optimizer=optimizer, provided=frozenset(pairs))


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
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key}")
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
