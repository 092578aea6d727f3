"""Workload definitions: pinned configs and the CLI commands each run issues.

Every config is written out in full rather than relying on the shipped
defaults, so the benchmark keeps measuring the same work when a default
changes. `workers` is left out: its default is 1, which the set-up checks,
and leaving it out keeps the configs valid if the option is removed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

TOTAL_STEPS = 20
# FULL steps of the shipped 20-step fixtures, keyed by max interval N.
FIXTURE_FULL = {2: 13, 3: 11, 4: 8}
STRATEGIES = ("none", "naive", "taylor", "learned")

# The bench checkpoints are trained from a pinned config, seed included, so
# their digests are the same in every invocation: a cross-process
# reproducibility check. At 1% of the iterations some seeds barely learn
# (gaussian1d seed 4: `none` energy 0.179 against the noise's 0.235), which
# would make the sweep's quality check depend on the seed. The bench's own
# sampling seed still comes from --seed.
FIXTURE_SEED = 0

MODEL = {"hidden_dim": 96, "depth": 4, "time_embed_dim": 16, "cfg_features": 16}
METRIC_SEED = 777


def _training(base_iters, cfg_iters, meanflow_iters, mse_iters, gan_iters,
              distribution):
    return {
        "distribution": distribution,
        "model": dict(MODEL),
        "base_train": {"iters": base_iters, "batch_size": 256, "lr": 3e-3,
                       "lr_final": 2e-4, "p_uncond": 0.1},
        "cfg_distill": {"g_min": 1.0, "g_max": 8.0, "iters": cfg_iters,
                        "batch_size": 256, "lr": 2e-3, "lr_final": 1e-4},
        "meanflow": {"restrict_factor": 0.2, "iters": meanflow_iters,
                     "batch_size": 128, "groups_per_step": 4, "lr": 1e-3,
                     "lr_final": 5e-5, "grad_clip": 1.0},
        "predictor": {"hidden_dim": 24, "depth": 2, "time_embed_dim": 8,
                      "parameter_budget_ratio": 0.04, "delta_max": 0.2,
                      "mse_iters": mse_iters, "gan_iters": gan_iters,
                      "lambda_adv": 1.0, "lr_predictor": 1e-4,
                      "lr_discriminator": 1e-2, "batch_size": 128,
                      "disc_hidden_dim": 32, "spectral_norm": True},
    }


def _bench(distribution, points, n):
    return {
        "distribution": distribution,
        "schedule": {"total_steps": TOTAL_STEPS, "max_interval": n,
                     "warmup_full": 0, "fixture": True, "explicit": None},
        "strategies": list(STRATEGIES),
        "taylor_order": 1,
        "sample_cfg_scale": 1.0,
        "metric_samples": points,
        "metric_seed": METRIC_SEED,
        "emit_samples": False,
    }


CHECKERBOARD = {"kind": "checkerboard", "sigma": 1.0, "seed": 0}
GAUSSIAN = {"kind": "gaussian1d", "sigma": 0.25, "seed": 0}

# 5% of the shipped iteration counts.
TRAIN_CONFIG = _training(200, 200, 300, 25, 50, CHECKERBOARD)


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload run; `samples` is the work it does."""

    name: str
    argv: tuple[str, ...]
    samples: int
    stage: str  # "train" or "bench"
    n: int | None = None  # fixture max interval, bench ops only


@dataclass(frozen=True)
class Workload:
    fixtures: dict | None  # tiny training config for the bench checkpoints
    configs: dict[str, dict]
    # the target is known (gaussian1d): `none` samples must beat the noise
    quality_check: bool = False


WORKLOADS = {
    "train": Workload(
        fixtures=None,
        configs={"train": TRAIN_CONFIG}),
    "bench": Workload(
        # 1% of the shipped iteration counts: checkpoints for the bench only.
        fixtures=_training(40, 40, 60, 5, 10, CHECKERBOARD),
        configs={"n2": _bench(CHECKERBOARD, 2048, 2)}),
    "sweep-1d": Workload(
        fixtures=_training(40, 40, 60, 5, 10, GAUSSIAN),
        configs={f"n{n}": _bench(GAUSSIAN, 4096, n) for n in (2, 3, 4)},
        quality_check=True),
}


def _samples(config: dict) -> dict[str, int]:
    pr = config["predictor"]
    mf = config["meanflow"]
    per_group = mf["batch_size"] // mf["groups_per_step"]
    return {
        "train_base": config["base_train"]["iters"] * config["base_train"]["batch_size"],
        "distill_cfg": config["cfg_distill"]["iters"] * config["cfg_distill"]["batch_size"],
        "distill_meanflow": mf["iters"] * mf["groups_per_step"] * per_group,
        "train_predictor": (pr["mse_iters"] + pr["gan_iters"]) * pr["batch_size"],
    }


def training_ops(config_path: Path, config: dict, out: Path, seed: int) -> list[Op]:
    """The four training commands, each reading the previous checkpoint."""
    common = ("--config", str(config_path), "--seed", str(seed), "--out", str(out))
    samples = _samples(config)
    steps = [("train_base", "train-base", None),
             ("distill_cfg", "distill-cfg", "base.fck"),
             ("distill_meanflow", "distill-meanflow", "cfg.fck"),
             ("train_predictor", "train-predictor", "meanflow.fck")]
    ops = []
    for name, command, parent in steps:
        argv = (command,) + common
        if parent is not None:
            argv += ("--checkpoint", str(out / parent))
        ops.append(Op(name, argv, samples[name], "train"))
    return ops


def bench_ops(workload: Workload, config_dir: Path, ckpt: Path, out: Path,
              seed: int) -> list[Op]:
    ops = []
    for key, config in workload.configs.items():
        n = config["schedule"]["max_interval"]
        argv = ("bench", "--config", str(config_dir / f"{key}.json"),
                "--seed", str(seed), "--out", str(out / f"bench_{key}"),
                "--checkpoint", str(ckpt / "meanflow.fck"),
                "--checkpoint", str(ckpt / "predictor.fck"))
        points = config["metric_samples"] * len(config["strategies"])
        ops.append(Op(f"bench_{key}", argv, points, "bench", n))
    return ops


def write_configs(workload: Workload, config_dir: Path) -> list[Path]:
    """Write the workload's JSON configs (and the fixture config, if any)."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    items = dict(workload.configs)
    if workload.fixtures is not None:
        items["fixtures"] = workload.fixtures
    for key, config in items.items():
        path = config_dir / f"{key}.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True))
        paths.append(path)
    return paths


def plan(workload: Workload, config_dir: Path, ckpt: Path, out: Path,
         seed: int, fixtures: bool = False) -> list[Op]:
    """The ops one child process runs, in order.

    With `fixtures`, the ops train the bench checkpoints into `ckpt`;
    otherwise they are the workload's timed commands, writing under `out`.
    """
    if fixtures:
        return training_ops(config_dir / "fixtures.json", workload.fixtures,
                            ckpt, FIXTURE_SEED)
    if workload.fixtures is None:
        return training_ops(config_dir / "train.json", workload.configs["train"],
                            out, seed)
    return bench_ops(workload, config_dir, ckpt, out, seed)
