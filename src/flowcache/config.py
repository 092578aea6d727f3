"""Experiment configuration: one JSON document drives the whole pipeline.

Every stochastic choice in a run is a function of the config's seed (plus
the distribution's own seed); environment variables are never consulted.
Unknown keys are rejected, at the top level and in every section, so typos
fail loudly with exit code 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .distill import CfgConfig, RestrictConfig
from .errors import ConfigError, ContractViolation
from .flow import ToyDistribution
from .nets import PredictorConfig, VelocityModelConfig
from .predictor_train import PredictorTrainConfig

STRATEGY_NAMES = ("none", "naive", "taylor", "learned")


@dataclass(frozen=True)
class TrainSettings:
    iters: int
    batch_size: int
    lr: float
    lr_final: float | None = None
    p_uncond: float = 0.1  # base stage only
    groups_per_step: int = 4  # mean-velocity stage only
    grad_clip: float | None = 1.0  # mean-velocity stage only


@dataclass(frozen=True)
class ScheduleSpec:
    total_steps: int = 20
    max_interval: int = 2
    warmup_full: int = 0
    fixture: bool = True
    explicit: tuple | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    distribution: ToyDistribution
    model: dict
    base_train: TrainSettings
    cfg_distill: CfgConfig
    cfg_train: TrainSettings
    restrict: RestrictConfig
    meanflow_train: TrainSettings
    predictor: PredictorConfig
    predictor_train: PredictorTrainConfig
    disc_hidden_dim: int
    spectral_norm: bool
    schedule: ScheduleSpec
    strategies: tuple[str, ...]
    taylor_order: int
    sample_cfg_scale: float
    metric_samples: int
    metric_seed: int
    emit_samples: bool

    def velocity_config(self, accepts_r: bool, accepts_cfg: bool) -> VelocityModelConfig:
        return VelocityModelConfig(
            input_dim=self.distribution.dim,
            condition_vocab=self.distribution.n_classes,
            accepts_r=accepts_r,
            accepts_cfg=accepts_cfg,
            cfg_min=self.cfg_distill.g_min,
            cfg_max=self.cfg_distill.g_max,
            **self.model,
        )


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


def _section(raw: dict, name: str) -> dict:
    """The merged section `name`, rejecting keys its defaults do not name."""
    section = raw[name]
    unknown = set(section) - set(DEFAULTS[name])
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in '{name}'")
    return section


def _float_or_none(value):
    return None if value is None else float(value)


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
    try:
        raw = _merged(user)
        dist = ToyDistribution(**_section(raw, "distribution"))
        model = _section(raw, "model")
        base = _section(raw, "base_train")
        base_train = TrainSettings(iters=int(base["iters"]),
                                   batch_size=int(base["batch_size"]),
                                   lr=float(base["lr"]),
                                   lr_final=_float_or_none(base["lr_final"]),
                                   p_uncond=float(base["p_uncond"]))
        cd = _section(raw, "cfg_distill")
        cfg_distill = CfgConfig(g_min=float(cd["g_min"]), g_max=float(cd["g_max"]))
        cfg_train = TrainSettings(iters=int(cd["iters"]),
                                  batch_size=int(cd["batch_size"]),
                                  lr=float(cd["lr"]),
                                  lr_final=_float_or_none(cd["lr_final"]))
        mf = _section(raw, "meanflow")
        restrict = RestrictConfig(restrict_factor=float(mf["restrict_factor"]))
        meanflow_train = TrainSettings(iters=int(mf["iters"]),
                                       batch_size=int(mf["batch_size"]),
                                       lr=float(mf["lr"]),
                                       lr_final=_float_or_none(mf["lr_final"]),
                                       groups_per_step=int(mf["groups_per_step"]),
                                       grad_clip=_float_or_none(mf["grad_clip"]))
        pr = _section(raw, "predictor")
        predictor = PredictorConfig(
            hidden_dim=int(pr["hidden_dim"]), depth=int(pr["depth"]),
            time_embed_dim=int(pr["time_embed_dim"]),
            parameter_budget_ratio=float(pr["parameter_budget_ratio"]))
        predictor_train = PredictorTrainConfig(
            delta_max=float(pr["delta_max"]), mse_iters=int(pr["mse_iters"]),
            gan_iters=int(pr["gan_iters"]), lambda_adv=float(pr["lambda_adv"]),
            lr_predictor=float(pr["lr_predictor"]),
            lr_discriminator=float(pr["lr_discriminator"]),
            batch_size=int(pr["batch_size"]))
        sc = _section(raw, "schedule")
        schedule = ScheduleSpec(total_steps=int(sc["total_steps"]),
                                max_interval=int(sc["max_interval"]),
                                warmup_full=int(sc["warmup_full"]),
                                fixture=bool(sc["fixture"]),
                                explicit=None if sc["explicit"] is None
                                else tuple(sc["explicit"]))
        strategies = tuple(raw["strategies"])
        for s in strategies:
            if s not in STRATEGY_NAMES:
                raise ConfigError(f"unknown strategy '{s}' "
                                  f"(expected one of {STRATEGY_NAMES})")
        if raw["metric_samples"] < 2:
            raise ConfigError("metric_samples must be >= 2")
        return ExperimentConfig(
            seed=int(raw["seed"]), distribution=dist, model=model,
            base_train=base_train, cfg_distill=cfg_distill,
            cfg_train=cfg_train, restrict=restrict,
            meanflow_train=meanflow_train, predictor=predictor,
            predictor_train=predictor_train,
            disc_hidden_dim=int(pr["disc_hidden_dim"]),
            spectral_norm=bool(pr["spectral_norm"]), schedule=schedule,
            strategies=strategies, taylor_order=int(raw["taylor_order"]),
            sample_cfg_scale=float(raw["sample_cfg_scale"]),
            metric_samples=int(raw["metric_samples"]),
            metric_seed=int(raw["metric_seed"]),
            emit_samples=bool(raw["emit_samples"]))
    except ConfigError:
        raise
    except (ContractViolation, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
