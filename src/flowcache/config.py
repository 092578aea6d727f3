"""Experiment configuration: one JSON document drives the whole pipeline.

Every stochastic choice in a run is a function of the config's seed (plus
the distribution's own seed); environment variables are never consulted.
Unknown keys are rejected, at the top level and in every section, so typos
fail loudly with exit code 2.

One reader turns each section into the dataclasses that `SECTION_FIELDS`
names for it, and the top-level keys into `ExperimentConfig`'s own fields.
Every value is checked against its field's annotation:

- a bool comes only from true or false;
- an int only from an integral number, never from true or false;
- a float from a number, or from a string that parses as one, and only
  if it is finite (NaN, inf and 1e999 are refused);
- a str only from a string;
- a tuple only from a list or a tuple (what `dataclasses.asdict` leaves),
  each item checked against the item type;
- a `| None` annotation also admits null.

A value of another type raises ConfigError naming the section and the key,
and so does any ContractViolation the dataclass raises for a value out of
its range. Each key of `DEFAULTS` is a field of exactly one of the
dataclasses that read its section.

Each section shapes the stage that introduces it (`distribution` and
`model` train-base, the `cfg_distill` range distill-cfg) and later stages,
`sample` and `bench` read the snapshot.

The `schedule` section is read into `cache.ScheduleSpec`, the one schedule
type: the sampler walks `config.schedule` itself, and the spec works out and
checks its step modes as it is read. So a spec the sampler cannot walk
(max_interval 0, a (total_steps, max_interval) with no `cache.FIXTURE_MODES`
row, warmup_full >= total_steps, an explicit list of the wrong length or
with a bad mode) fails at load, for every command. Of `explicit`, `fixture`
and the warmup-then-blocks pattern, the first that applies gives the step
modes; `warmup_full` shapes only the pattern, so a nonzero warmup_full with
a fixture or an explicit list fails too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .cache import ScheduleSpec, Strategy
from .distill import CfgConfig, RestrictConfig
from .errors import ConfigError, ContractViolation
from .flow import ToyDistribution
from .nets import PredictorConfig, VelocityModelConfig
from .optim import TrainSettings
from .predictor_train import PredictorTrainConfig

STRATEGY_NAMES = ("none", *(s.value for s in Strategy))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    distribution: ToyDistribution
    model: VelocityModelConfig  # the base model's
    base_train: TrainSettings
    cfg_distill: CfgConfig
    cfg_train: TrainSettings
    restrict: RestrictConfig
    meanflow_train: TrainSettings
    predictor: PredictorConfig
    predictor_train: PredictorTrainConfig
    schedule: ScheduleSpec
    strategies: tuple[str, ...]
    taylor_order: int
    sample_cfg_scale: float
    metric_samples: int
    metric_seed: int
    emit_samples: bool  # only false; configs that set it still load

    def __post_init__(self):
        for key, seed in (("seed", self.seed), ("metric_seed", self.metric_seed)):
            if seed < 0:
                raise ContractViolation(f"{key} must be >= 0, got {seed}")
        if not self.strategies:
            raise ContractViolation("strategies must name at least one strategy")
        for i, s in enumerate(self.strategies):
            if s not in STRATEGY_NAMES:
                raise ContractViolation(f"unknown strategy '{s}' "
                                        f"(expected one of {STRATEGY_NAMES})")
            if s in self.strategies[:i]:
                raise ContractViolation(f"strategies names '{s}' twice")
        if self.metric_samples < 2:
            raise ContractViolation("metric_samples must be >= 2")
        if self.taylor_order < 0:
            raise ContractViolation("taylor_order must be >= 0")
        if self.emit_samples:
            raise ContractViolation("emit_samples must be false: bench writes "
                                    "no samples, `flowcache sample` does")
        mf = self.meanflow_train
        if mf.batch_size % mf.groups_per_step:
            raise ContractViolation(
                f"'meanflow': batch_size {mf.batch_size} is not a multiple "
                f"of groups_per_step {mf.groups_per_step}")


# The ExperimentConfig fields read from each section, in reading order; the
# field's annotation is the dataclass that reads the section's keys.
SECTION_FIELDS = {
    "distribution": ("distribution",),
    "cfg_distill": ("cfg_distill", "cfg_train"),
    "model": ("model",),
    "base_train": ("base_train",),
    "meanflow": ("restrict", "meanflow_train"),
    "predictor": ("predictor", "predictor_train"),
    "schedule": ("schedule",),
}

DEFAULTS: dict = {
    "seed": 0,
    "distribution": {"kind": "checkerboard", "sigma": 1.0, "seed": 0},
    "model": {"hidden_dim": 96, "depth": 4, "time_embed_dim": 16,
              "cfg_features": 16},
    "base_train": {"iters": 4000, "batch_size": 256, "lr": 3e-3,
                   "lr_final": 2e-4, "p_uncond": 0.1},
    "cfg_distill": {"g_min": 1.0, "g_max": 8.0, "iters": 4000,
                    "batch_size": 256, "lr": 2e-3, "lr_final": 1e-4},
    "meanflow": {"restrict_factor": 0.2, "iters": 6000, "batch_size": 128,
                 "groups_per_step": 4, "lr": 1e-3, "lr_final": 5e-5,
                 "grad_clip": 1.0},
    "predictor": {"hidden_dim": 24, "depth": 2, "time_embed_dim": 8,
                  "parameter_budget_ratio": 0.04, "delta_max": 0.2,
                  "mse_iters": 500, "gan_iters": 1000, "lambda_adv": 1.0,
                  "lr_predictor": 1e-4, "lr_discriminator": 1e-2,
                  "batch_size": 128, "disc_hidden_dim": 32,
                  "spectral_norm": True},
    "schedule": {"total_steps": 20, "max_interval": 2, "warmup_full": 0,
                 "fixture": True, "explicit": None},
    "strategies": ["none", "naive", "taylor", "learned"],
    "taylor_order": 1,
    "sample_cfg_scale": 1.0,
    "metric_samples": 2048,
    "metric_seed": 777,
    "emit_samples": False,
}


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError


def _as_int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError


def _as_float(value) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float, str))
            or not math.isfinite(float(value))):
        raise ValueError
    return float(value)


def _as_str(value) -> str:
    if isinstance(value, str):
        return value
    raise ValueError


_SCALARS = {bool: ("true or false", _as_bool), int: ("an integer", _as_int),
            float: ("a finite number", _as_float), str: ("a string", _as_str)}


def _value_reader(hint):
    """(what a JSON value must be, the cast that raises ValueError on any
    other value) for a field annotation; TypeError for an annotation the
    reader does not support."""
    if isinstance(hint, UnionType) and type(None) in get_args(hint):
        rest = [a for a in get_args(hint) if a is not type(None)]
        if len(rest) == 1:
            what, cast = _value_reader(rest[0])
            return f"{what}, or null", lambda v: None if v is None else cast(v)
    if hint in _SCALARS:
        return _SCALARS[hint]
    if get_origin(hint) is tuple and get_args(hint)[1:] == (Ellipsis,):
        what, cast = _value_reader(get_args(hint)[0])

        def cast_list(value):
            if not isinstance(value, (list, tuple)):
                raise ValueError
            return tuple(cast(item) for item in value)
        return f"a list of items each {what}", cast_list
    raise TypeError(f"unsupported field annotation {hint!r}")


def read_dataclass(section: str | None, cls, values: dict, /, **given):
    """`cls` built from `given` and from the keys of `values` that name its
    fields, each read as its field's annotation. A value of another type,
    or one the dataclass rejects, raises ConfigError naming the section."""
    where = "" if section is None else f"'{section}': "
    hints = get_type_hints(cls)
    for key, value in values.items():
        if key in hints:
            what, cast = _value_reader(hints[key])
            try:
                given[key] = cast(value)
            except ValueError:
                raise ConfigError(f"{where}{key} must be {what}, "
                                  f"got {value!r}") from None
    try:
        return cls(**given)
    except ContractViolation as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _section(raw: dict, name: str) -> dict:
    """The merged section `name`, rejecting keys its defaults do not name."""
    section = raw[name]
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be an object, got {section!r}")
    unknown = set(section) - set(DEFAULTS[name])
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in '{name}'")
    return section


def _merged(user: dict) -> dict:
    merged = {}
    unknown = set(user) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    for key, default in DEFAULTS.items():
        value = user.get(key, default)
        if isinstance(default, dict) and isinstance(value, dict):
            merged[key] = {**default, **value}
        else:
            merged[key] = value
    return merged


def config_from_dict(user: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a plain JSON object."""
    raw = _merged(user)
    types = get_type_hints(ExperimentConfig)
    read = {}
    for section, names in SECTION_FIELDS.items():
        values = _section(raw, section)
        for name in names:
            given = {}
            if name == "model":  # the data fix these
                dist = read["distribution"]
                given = dict(input_dim=dist.dim, condition_vocab=dist.n_classes)
            read[name] = read_dataclass(section, types[name], values, **given)
    top = {k: v for k, v in raw.items() if k not in SECTION_FIELDS}
    return read_dataclass(None, ExperimentConfig, top, **read)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(data)


def default_config(**overrides) -> ExperimentConfig:
    """The shipped defaults with shallow per-section overrides applied."""
    return config_from_dict(overrides)
