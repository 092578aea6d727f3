"""Pipeline orchestration: stage training entry points, checkpoint wiring,
the sampling loop shared by `sample` and `bench`, and the benchmark runner
with metrics CSV emission.

Sampling sessions (per strategy, class, and 512-row quota chunk) each derive
their own RNG stream from the root seed. Each strategy's sessions run on a
thread pool, since numpy and scipy release the GIL inside their kernels; the
results come back in key order. The pool holds min(sessions, cores // BLAS
threads) workers: the cores this process may run on, divided by the BLAS pin
it runs under (`OPENBLAS_NUM_THREADS`, else `OMP_NUM_THREADS`; a missing or
malformed pin counts as all cores, so an unpinned run samples on one worker).
The keys, not the pool, fix the sample streams, and so every metric value, for
a given seed. `wall_clock_ms` is a strategy's sampling wall time with its
sessions running in parallel, and `metric_ms` the time of its W2 and energy
distance; the timing columns are the only non-deterministic ones in the CSV.

The 512-row chunk is a measured memory and locality choice, not a leftover:
it keeps every step's activations a few hundred kilobytes. Sampling the
4096-point gaussian1d sweep (one class; N=2,3,4, all four strategies) in one
4096-row batch instead raised peak RSS from 84 MB to 105 MB (+24%) and took
10.5-12.2 s against 8.5 s (3 runs each, 2-vCPU x86 VM, BLAS 1 thread).
"""

from __future__ import annotations

import csv
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import distill, flow, predictor_train
from .autodiff import ParameterSet
from .cache import Strategy, cached_sample, fixture_schedule, plan_schedule
from .checkpoint import (Checkpoint, Stage, load_checkpoint, save_checkpoint,
                         verify_parent)
from .config import ExperimentConfig
from .errors import ConfigError, ContractViolation, LineageError
from .flow import mean_velocity_sample, sample_data
from .metrics import energy_distance, w2_distance
from .nets import (Condition, DiscriminatorConfig, Predictor, PredictorConfig,
                   VelocityModel, VelocityModelConfig)

log = logging.getLogger(__name__)

_SESSION_CHUNK = 512


@dataclass
class MetricsRecord:
    run_id: str
    strategy: str
    full_evals: int
    predictor_evals: int
    w2: float
    energy_distance: float
    wall_clock_ms: float
    cache_bytes_peak: int
    metric_ms: float

    def row(self) -> list:
        """The CSV cells in column order; floats as their repr."""
        values = (getattr(self, f.name) for f in fields(self))
        return [repr(v) if isinstance(v, float) else v for v in values]


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


# ---------------------------------------------------------------------------
# Stage runners (each emits a lineage-stamped checkpoint)
# ---------------------------------------------------------------------------

def _load_stage(path, stage: Stage) -> Checkpoint:
    """Load a checkpoint and check that it holds the given stage."""
    ckpt = load_checkpoint(path)
    if ckpt.stage is not stage:
        raise LineageError(f"{path}: expected a {stage.name} checkpoint, "
                           f"found {ckpt.stage.name}")
    return ckpt


def _model_from_snapshot(snapshot: dict) -> VelocityModel:
    return VelocityModel(VelocityModelConfig(**snapshot["velocity"]))


def run_train_base(config: ExperimentConfig, out_path) -> Path:
    vcfg = config.velocity_config(accepts_r=False, accepts_cfg=False)
    model = VelocityModel(vcfg)
    ts = config.base_train
    params, _ = flow.train_base(model, config.distribution, iters=ts.iters,
                                batch_size=ts.batch_size, lr=ts.lr,
                                lr_final=ts.lr_final, p_uncond=ts.p_uncond,
                                seed=config.seed)
    ckpt = Checkpoint(stage=Stage.BASE_FM, params=params,
                      config={"velocity": asdict(vcfg)})
    save_checkpoint(out_path, ckpt)
    return Path(out_path)


def run_distill_cfg(config: ExperimentConfig, base_path, out_path) -> Path:
    base = _load_stage(base_path, Stage.BASE_FM)
    teacher = _model_from_snapshot(base.config)
    vcfg = config.velocity_config(accepts_r=True, accepts_cfg=True)
    student = VelocityModel(vcfg)
    ts = config.cfg_train
    params, _ = distill.train_cfg(student, teacher, base.params,
                                  config.distribution, cfg=config.cfg_distill,
                                  iters=ts.iters, batch_size=ts.batch_size,
                                  lr=ts.lr, lr_final=ts.lr_final,
                                  seed=config.seed)
    ckpt = Checkpoint(stage=Stage.CFG_DISTILLED, params=params,
                      config={"velocity": asdict(vcfg),
                              "cfg": asdict(config.cfg_distill)},
                      parent_stage=Stage.BASE_FM, parent_digest=base.digest)
    save_checkpoint(out_path, ckpt)
    return Path(out_path)


def run_distill_meanflow(config: ExperimentConfig, cfg_path, out_path) -> Path:
    parent = _load_stage(cfg_path, Stage.CFG_DISTILLED)
    model = _model_from_snapshot(parent.config)
    ts = config.meanflow_train
    params, _ = distill.train_meanflow(
        model, parent.params, model, parent.params, config.distribution,
        restrict=config.restrict, cfg=config.cfg_distill, iters=ts.iters,
        batch_size=ts.batch_size, groups_per_step=ts.groups_per_step,
        lr=ts.lr, lr_final=ts.lr_final, clip=ts.grad_clip, seed=config.seed)
    ckpt = Checkpoint(stage=Stage.MEANFLOW, params=params,
                      config={"velocity": parent.config["velocity"],
                              "restrict": asdict(config.restrict)},
                      parent_stage=Stage.CFG_DISTILLED,
                      parent_digest=parent.digest)
    save_checkpoint(out_path, ckpt)
    return Path(out_path)


def run_train_predictor(config: ExperimentConfig, meanflow_path,
                        out_pred, out_disc) -> tuple[Path, Path]:
    parent = _load_stage(meanflow_path, Stage.MEANFLOW)
    backbone = _model_from_snapshot(parent.config)
    predictor = Predictor(config.predictor, backbone)
    restrict = distill.RestrictConfig(**parent.config["restrict"])
    from .nets import default_taps
    disc_cfg = DiscriminatorConfig(
        scales=tuple(default_taps(backbone.config.depth)),
        hidden_dim=config.disc_hidden_dim,
        spectral_norm=config.spectral_norm)
    params, disc, _, _ = predictor_train.train_predictor(
        backbone, parent.params, predictor, config.distribution,
        restrict=restrict, cfg=config.predictor_train, seed=config.seed,
        disc_config=disc_cfg)
    snapshot = {"velocity": parent.config["velocity"],
                "predictor": asdict(config.predictor),
                "delta_max": config.predictor_train.delta_max}
    save_checkpoint(out_pred, Checkpoint(
        stage=Stage.PREDICTOR, params=params, config=snapshot,
        parent_stage=Stage.MEANFLOW, parent_digest=parent.digest))
    disc_entries = dict(disc.params.entries)
    for name, u in disc.u_state.items():
        disc_entries[f"aux.u.{name}"] = u
    save_checkpoint(out_disc, Checkpoint(
        stage=Stage.DISCRIMINATOR, params=ParameterSet(disc_entries),
        config={"velocity": parent.config["velocity"],
                "scales": list(disc_cfg.scales),
                "hidden_dim": disc_cfg.hidden_dim,
                "spectral_norm": disc_cfg.spectral_norm},
        parent_stage=Stage.MEANFLOW, parent_digest=parent.digest))
    return Path(out_pred), Path(out_disc)


def load_sampler(meanflow_path, predictor_path=None):
    """Rebuild (model, params, predictor, predictor_params, delta_max) from
    checkpoints, verifying the lineage chain when both are given."""
    mf = _load_stage(meanflow_path, Stage.MEANFLOW)
    model = _model_from_snapshot(mf.config)
    predictor = pparams = delta_max = None
    if predictor_path is not None:
        pc = _load_stage(predictor_path, Stage.PREDICTOR)
        verify_parent(pc, mf, child_path=str(predictor_path))
        predictor = Predictor(PredictorConfig(**pc.config["predictor"]), model)
        pparams = pc.params
        delta_max = pc.config.get("delta_max")
    return model, mf.params, predictor, pparams, delta_max


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def build_schedule(config: ExperimentConfig):
    sc = config.schedule
    if sc.explicit is not None:
        return plan_schedule(sc.total_steps, sc.max_interval,
                             warmup_full=sc.warmup_full, explicit=list(sc.explicit))
    if sc.fixture:
        return fixture_schedule(sc.max_interval, sc.total_steps)
    return plan_schedule(sc.total_steps, sc.max_interval,
                         warmup_full=sc.warmup_full)


def _class_quotas(n: int, n_classes: int) -> list[int]:
    base, extra = divmod(n, n_classes)
    return [base + (1 if k < extra else 0) for k in range(n_classes)]


def _session_keys(config: ExperimentConfig):
    keys = []
    for class_id, quota in enumerate(
            _class_quotas(config.metric_samples, config.distribution.n_classes)):
        offset = 0
        while offset < quota:
            keys.append((class_id, offset, min(_SESSION_CHUNK, quota - offset)))
            offset += _SESSION_CHUNK
    return keys


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(sessions: int) -> int:
    """Sampling workers: the cores the BLAS pin leaves free, at most one per
    session. The pin is the first of OPENBLAS_NUM_THREADS and OMP_NUM_THREADS
    that holds a positive integer, as OpenBLAS reads them; without one, BLAS
    may use every core and the pool is 1."""
    cores = _usable_cores()
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            pin = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if pin > 0:
            blas = pin
            break
    return max(1, min(sessions, cores // blas))


def _run_session(strategy_name, key, model, params, predictor, pparams,
                 delta_max, schedule, config):
    class_id, offset, count = key
    seq = np.random.SeedSequence([config.seed, config.metric_seed,
                                  class_id, offset])
    rng = np.random.default_rng(seq)
    x1 = rng.standard_normal((count, config.distribution.dim))
    g = config.sample_cfg_scale if model.config.accepts_cfg else None
    cond = Condition(class_id, g)
    if strategy_name == "none":
        out = mean_velocity_sample(model, params.entries,
                                   [s.pair for s in schedule.steps], x1, cond)
        counts = (schedule.total_steps, 0, 0, 0)
    else:
        out, rep = cached_sample(model, params, schedule,
                                 Strategy(strategy_name), x1, cond,
                                 predictor=predictor, predictor_params=pparams,
                                 taylor_order=config.taylor_order,
                                 delta_max=delta_max)
        counts = (rep.full_evals, rep.predictor_evals, rep.cache_bytes_peak,
                  rep.out_of_horizon)
    return out, counts


@dataclass
class StrategySamples:
    """One strategy's samples over the whole sample set, with its NFE
    counts, peak cache bytes and sampling wall time."""
    run_id: str
    strategy: str
    samples: np.ndarray
    full_evals: int
    predictor_evals: int
    cache_bytes_peak: int
    wall_clock_ms: float


def sample_strategies(config: ExperimentConfig, meanflow_path,
                      predictor_path=None,
                      run_tag: str | None = None) -> list[StrategySamples]:
    """Draw config.metric_samples points with every configured strategy.

    A strategy whose learned predictions query the cache past the
    predictor's trained horizon logs one warning with their count."""
    model, params, predictor, pparams, delta_max = load_sampler(
        meanflow_path, predictor_path)
    for name in config.strategies:
        if name == "learned" and predictor is None:
            raise ConfigError("strategy 'learned' needs a predictor checkpoint")
    schedule = build_schedule(config)
    keys = _session_keys(config)
    sched_tag = f"s{schedule.total_steps}n{schedule.max_interval}"
    tag = run_tag or f"{config.seed}:{config.distribution.kind}:{sched_tag}"

    runs = []
    with ThreadPoolExecutor(max_workers=_pool_size(len(keys))) as pool:
        for name in config.strategies:
            t0 = time.perf_counter()
            results = list(pool.map(
                lambda key: _run_session(name, key, model, params, predictor,
                                         pparams, delta_max, schedule, config),
                keys))
            wall_ms = (time.perf_counter() - t0) * 1e3
            full_evals, predictor_evals, peak, _ = results[0][1]
            for _, counts in results:
                if counts[:2] != (full_evals, predictor_evals):
                    raise ContractViolation(
                        f"sampling sessions of '{name}' disagree on NFE "
                        f"counts: {counts[:2]} vs "
                        f"{(full_evals, predictor_evals)}")
                peak = max(peak, counts[2])
            past = sum(counts[3] for _, counts in results)
            if past:
                log.warning("strategy '%s': %d of %d learned predictions "
                            "queried the cache past the predictor's trained "
                            "horizon %.4f", name, past,
                            predictor_evals * len(results), delta_max)
            runs.append(StrategySamples(
                run_id=f"{tag}:{name}", strategy=name,
                samples=np.concatenate([out for out, _ in results], axis=0),
                full_evals=full_evals, predictor_evals=predictor_evals,
                cache_bytes_peak=peak, wall_clock_ms=wall_ms))
    return runs


def run_experiment(config: ExperimentConfig, meanflow_path,
                   predictor_path=None, out_dir=None,
                   run_tag: str | None = None) -> list[MetricsRecord]:
    """Benchmark every configured strategy; appends rows to metrics.csv in
    out_dir (when given) and returns the records. An existing metrics.csv
    of another schema is refused before any sampling."""
    if out_dir is not None:
        _metrics_header(Path(out_dir) / "metrics.csv")
    runs = sample_strategies(config, meanflow_path, predictor_path, run_tag)
    reference = sample_data(config.distribution, config.metric_samples,
                            config.metric_seed)
    records = []
    for run in runs:
        t0 = time.perf_counter()
        w2 = w2_distance(run.samples, reference)
        energy = energy_distance(run.samples, reference)
        records.append(MetricsRecord(
            run_id=run.run_id, strategy=run.strategy,
            full_evals=run.full_evals, predictor_evals=run.predictor_evals,
            w2=w2, energy_distance=energy, wall_clock_ms=run.wall_clock_ms,
            cache_bytes_peak=run.cache_bytes_peak,
            metric_ms=(time.perf_counter() - t0) * 1e3))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        append_metrics(out_dir / "metrics.csv", records)
        if config.emit_samples:
            write_samples(out_dir, runs)
    return records


def write_samples(out_dir, runs: list[StrategySamples]) -> list[Path]:
    """Dump each run's samples to samples-<run_id>.csv in out_dir."""
    paths = []
    for run in runs:
        path = Path(out_dir) / f"samples-{run.run_id.replace(':', '-')}.csv"
        dump_samples(path, run.samples)
        paths.append(path)
    return paths


def _metrics_header(path: Path) -> list[str]:
    """Header of an existing metrics CSV, [] for a missing or empty file. A
    file with another header (an older schema) raises ConfigError."""
    header = []
    if path.exists():
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), [])
    if header and tuple(header) != METRICS_COLUMNS:
        raise ConfigError(
            f"{path} has columns {header}, expected {list(METRICS_COLUMNS)}; "
            f"write to another output directory")
    return header


def append_metrics(path, records: list[MetricsRecord]):
    """Append records to a metrics CSV, writing the header into a new or
    empty file. A file with another header (an older schema) raises
    ConfigError and is left as it was."""
    path = Path(path)
    header = _metrics_header(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not header:
            writer.writerow(METRICS_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())


def dump_samples(path, samples: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(samples.shape[1])])
        for row in samples:
            writer.writerow([repr(v) for v in row])

