"""Pipeline orchestration: stage training entry points, checkpoint wiring,
the sampling loop shared by `sample` and `bench`, and the benchmark runner
with metrics CSV emission.

Every stage file is written by `_save_stage`, with the lineage of the parent
checkpoint it loaded, and read by `_open_stage`, which checks its stage and
rebuilds its network from the snapshot. A snapshot entry (`velocity`,
`restrict`, `predictor`) that is missing or does not hold exactly its
dataclass's fields, each of the right type, a `delta_max` that is neither
null nor a number in (0, 1], and tensors that are not the network's raise
CorruptCheckpointError naming the file and key (exit 3).

Next to each trained stage's `.fck`, `_save_stage` writes `<stage>.jsonl`:
one JSON object per optimizer step, in step order, holding the step index
and the fields of its `optim.StepReport` (`predictor.jsonl` holds the MSE
phase, then the GAN phase). A stage checks that its outputs can be written
before it trains, and `bench` checks `metrics.csv` before it samples: a
directory, or a file or folder without write access, in their place raises
ConfigError (exit 2) naming the path.

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

Every strategy's metrics are measured against one reference set, through one
`ReferenceTerms` holder: the first strategy's 2-D W2 solve is cold and its
`metric_ms` includes the potentials pass, the reference's energy self term
and, in a process that has run no 2-D metric yet, the import of scipy's
solver (about 0.2 s); the later strategies' solves start from those
potentials and reuse that term (see metrics). Each value equals a call
without the holder; the holder changes only the time.

The 512-row chunk is a measured memory and locality choice, not a leftover:
it keeps every step's activations a few hundred kilobytes. Sampling the
4096-point gaussian1d sweep (one class; N=2,3,4, all four strategies) in one
4096-row batch instead raised peak RSS from 84 MB to 105 MB (+24%) and took
10.5-12.2 s against 8.5 s (3 runs each, 2-vCPU x86 VM, BLAS 1 thread).
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import distill, flow, predictor_train
from .autodiff import ParameterSet
from .cache import NfeReport, Strategy, cached_sample
from .checkpoint import (EXPECTED_PARENT, Checkpoint, Stage, load_checkpoint,
                         save_checkpoint, verify_parent)
from .config import ExperimentConfig, read_dataclass
from .errors import (ConfigError, ContractViolation, CorruptCheckpointError,
                     LineageError)
from .flow import mean_velocity_sample, sample_data
from .metrics import ReferenceTerms, energy_distance, w2_distance
from .nets import (Condition, Predictor, PredictorConfig, VelocityModel,
                   VelocityModelConfig)
from .optim import StepReport

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
        """The CSV cells in column order, floats as `_cell` writes them."""
        values = (getattr(self, f.name) for f in fields(self))
        return [_cell(v) if isinstance(v, float) else v for v in values]


def _cell(value) -> str:
    """A float as a CSV cell: the repr of a Python float, numpy's too."""
    return repr(float(value))


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


# ---------------------------------------------------------------------------
# Stage runners (each emits a lineage-stamped checkpoint)
# ---------------------------------------------------------------------------

def _snapshot_entry(path, ckpt: Checkpoint, key: str, cls):
    """The snapshot entry `key` read as `cls`: an object holding exactly
    cls's fields, each read as the config reader reads a section's keys."""
    entry = ckpt.config.get(key)
    if not isinstance(entry, dict):
        raise CorruptCheckpointError(
            f"{path}: snapshot entry '{key}' is missing or not an object")
    names = {f.name for f in fields(cls)}
    if set(entry) != names:
        raise CorruptCheckpointError(
            f"{path}: snapshot entry '{key}' has fields {sorted(entry)}, "
            f"expected {sorted(names)}")
    try:
        return read_dataclass(key, cls, entry)
    except ConfigError as exc:
        raise CorruptCheckpointError(f"{path}: snapshot entry {exc}") from exc


def _open_stage(path, stage: Stage):
    """(checkpoint, network its tensors belong to) of the `stage` file at
    `path`: the snapshot's velocity model, or a predictor over it."""
    ckpt = load_checkpoint(path)
    if ckpt.stage is not stage:
        raise LineageError(f"{path}: expected a {stage.name} checkpoint, "
                           f"found {ckpt.stage.name}")
    net = VelocityModel(_snapshot_entry(path, ckpt, "velocity",
                                        VelocityModelConfig))
    if stage is Stage.PREDICTOR:
        spec = _snapshot_entry(path, ckpt, "predictor", PredictorConfig)
        try:
            net = Predictor(spec, net)
        except ContractViolation as exc:
            raise CorruptCheckpointError(
                f"{path}: snapshot entry 'predictor': {exc}") from exc
    want = net.param_shapes()
    got = {name: t.shape for name, t in ckpt.params.entries.items()}
    for name in sorted(want.keys() | got.keys()):
        if got.get(name) != want.get(name):
            raise CorruptCheckpointError(
                f"{path}: tensor '{name}' has shape {got.get(name)}, the "
                f"snapshot's {type(net).__name__} expects {want.get(name)}")
    return ckpt, net


def _check_writable(*paths) -> None:
    """Raise ConfigError naming the first path no output file can be
    written to: a directory, or a file or folder without write access."""
    for path in map(Path, paths):
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not os.access(path if path.exists() else path.parent, os.W_OK):
            raise ConfigError(f"cannot write {path}: permission denied")


def _step_log(path) -> Path:
    return Path(path).with_suffix(".jsonl")


def _save_stage(path, stage: Stage, params: ParameterSet, snapshot: dict,
                parent: Checkpoint | None = None,
                reports: list[StepReport] | None = None) -> Path:
    """Write a `stage` checkpoint, its lineage the loaded `parent`'s, and
    the stage's step `reports`, one JSON line each, next to it."""
    ckpt = Checkpoint(stage=stage, params=params, config=snapshot)
    if parent is not None:
        ckpt.parent_stage, ckpt.parent_digest = parent.stage, parent.digest
    save_checkpoint(path, ckpt)
    if reports is not None:
        with open(_step_log(path), "w") as fh:
            for step, report in enumerate(reports):
                fh.write(json.dumps({"step": step, **asdict(report)}) + "\n")
    return Path(path)


def run_train_base(config: ExperimentConfig, out_path) -> Path:
    _check_writable(out_path, _step_log(out_path))
    model = VelocityModel(config.velocity_config(accepts_r=False,
                                                 accepts_cfg=False))
    params, reports = flow.train_base(model, config.distribution,
                                      config.base_train, seed=config.seed)
    return _save_stage(out_path, Stage.BASE_FM, params,
                       {"velocity": asdict(model.config)}, reports=reports)


def run_distill_cfg(config: ExperimentConfig, base_path, out_path) -> Path:
    _check_writable(out_path, _step_log(out_path))
    stage = Stage.CFG_DISTILLED
    base, teacher = _open_stage(base_path, EXPECTED_PARENT[stage])
    student = VelocityModel(config.velocity_config(accepts_r=True,
                                                   accepts_cfg=True))
    params, reports = distill.train_cfg(
        student, teacher, base.params, config.distribution,
        cfg=config.cfg_distill, settings=config.cfg_train, seed=config.seed)
    return _save_stage(out_path, stage, params,
                       {"velocity": asdict(student.config),
                        "cfg": asdict(config.cfg_distill)}, base, reports)


def run_distill_meanflow(config: ExperimentConfig, cfg_path, out_path) -> Path:
    _check_writable(out_path, _step_log(out_path))
    stage = Stage.MEANFLOW
    parent, model = _open_stage(cfg_path, EXPECTED_PARENT[stage])
    params, reports = distill.train_meanflow(
        model, parent.params, model, parent.params, config.distribution,
        restrict=config.restrict, cfg=config.cfg_distill,
        settings=config.meanflow_train, seed=config.seed)
    return _save_stage(out_path, stage, params,
                       {"velocity": asdict(model.config),
                        "restrict": asdict(config.restrict)}, parent, reports)


def run_train_predictor(config: ExperimentConfig, meanflow_path,
                        out_pred, out_disc) -> tuple[Path, Path]:
    _check_writable(out_pred, _step_log(out_pred), out_disc)
    parent, backbone = _open_stage(meanflow_path,
                                   EXPECTED_PARENT[Stage.PREDICTOR])
    restrict = _snapshot_entry(meanflow_path, parent, "restrict",
                               distill.RestrictConfig)
    predictor = Predictor(config.predictor, backbone)
    params, disc, reports, _ = predictor_train.train_predictor(
        backbone, parent.params, predictor, config.distribution,
        restrict=restrict, cfg=config.predictor_train, seed=config.seed)
    velocity = asdict(backbone.config)
    pred_path = _save_stage(out_pred, Stage.PREDICTOR, params,
                            {"velocity": velocity,
                             "predictor": asdict(config.predictor),
                             "delta_max": config.predictor_train.delta_max},
                            parent, reports)
    disc_entries = {**disc.params.entries,
                    **{f"aux.u.{name}": u for name, u in disc.u_state.items()}}
    return pred_path, _save_stage(out_disc, Stage.DISCRIMINATOR,
                                  ParameterSet(disc_entries),
                                  {"velocity": velocity, **asdict(disc.config)},
                                  parent)


def load_sampler(meanflow_path, predictor_path=None):
    """Rebuild (model, params, predictor, predictor_params, delta_max) from
    checkpoints, verifying the lineage chain when both are given."""
    mf, model = _open_stage(meanflow_path, Stage.MEANFLOW)
    if predictor_path is None:
        return model, mf.params, None, None, None
    pc, predictor = _open_stage(predictor_path, Stage.PREDICTOR)
    verify_parent(pc, mf, child_path=str(predictor_path))
    delta_max = pc.config.get("delta_max")
    try:  # null, or read as the `predictor` config section reads it
        delta_max = None if delta_max is None else read_dataclass(
            "delta_max", predictor_train.PredictorTrainConfig,
            {"delta_max": delta_max}).delta_max
    except ConfigError as exc:
        raise CorruptCheckpointError(
            f"{predictor_path}: snapshot entry {exc}") from exc
    return model, mf.params, predictor, pc.params, delta_max


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

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
        out = mean_velocity_sample(model, params.entries, schedule.pairs,
                                   x1, cond)
        return out, NfeReport(full_evals=schedule.total_steps)
    return cached_sample(model, params, schedule, Strategy(strategy_name), x1,
                         cond, predictor=predictor, predictor_params=pparams,
                         taylor_order=config.taylor_order, delta_max=delta_max)


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
                      predictor_path=None) -> list[StrategySamples]:
    """Draw config.metric_samples points with every configured strategy.

    A strategy whose learned predictions query the cache past the
    predictor's trained horizon logs one warning with their count."""
    model, params, predictor, pparams, delta_max = load_sampler(
        meanflow_path, predictor_path)
    for name in config.strategies:
        if name == "learned" and predictor is None:
            raise ConfigError("strategy 'learned' needs a predictor checkpoint")
    schedule = config.schedule.build()
    keys = _session_keys(config)
    tag = (f"{config.seed}:{config.distribution.kind}:"
           f"s{schedule.total_steps}n{schedule.max_interval}")

    runs = []
    with ThreadPoolExecutor(max_workers=_pool_size(len(keys))) as pool:
        for name in config.strategies:
            t0 = time.perf_counter()
            results = list(pool.map(
                lambda key: _run_session(name, key, model, params, predictor,
                                         pparams, delta_max, schedule, config),
                keys))
            wall_ms = (time.perf_counter() - t0) * 1e3
            reports = [rep for _, rep in results]
            counts = {(rep.full_evals, rep.predictor_evals) for rep in reports}
            if len(counts) > 1:
                raise ContractViolation(
                    f"sampling sessions of '{name}' disagree on NFE counts: "
                    f"{sorted(counts)}")
            (full_evals, predictor_evals), = counts
            past = sum(rep.out_of_horizon for rep in reports)
            if past:
                log.warning("strategy '%s': %d of %d learned predictions "
                            "queried the cache past the predictor's trained "
                            "horizon %.4f", name, past,
                            predictor_evals * len(results), delta_max)
            runs.append(StrategySamples(
                run_id=f"{tag}:{name}", strategy=name,
                samples=np.concatenate([out for out, _ in results], axis=0),
                full_evals=full_evals, predictor_evals=predictor_evals,
                cache_bytes_peak=max(rep.cache_bytes_peak for rep in reports),
                wall_clock_ms=wall_ms))
    return runs


def run_experiment(config: ExperimentConfig, meanflow_path,
                   predictor_path=None, *, out_dir) -> list[MetricsRecord]:
    """Benchmark every configured strategy; appends rows to metrics.csv in
    the existing directory out_dir and returns the records. An existing
    metrics.csv of another schema is refused before any sampling."""
    out_dir = Path(out_dir)
    _metrics_header(out_dir / "metrics.csv")
    runs = sample_strategies(config, meanflow_path, predictor_path)
    reference = sample_data(config.distribution, config.metric_samples,
                            config.metric_seed)
    terms = ReferenceTerms()
    records = []
    for run in runs:
        t0 = time.perf_counter()
        w2 = w2_distance(run.samples, reference, terms)
        energy = energy_distance(run.samples, reference, terms)
        records.append(MetricsRecord(
            run_id=run.run_id, strategy=run.strategy,
            full_evals=run.full_evals, predictor_evals=run.predictor_evals,
            w2=w2, energy_distance=energy, wall_clock_ms=run.wall_clock_ms,
            cache_bytes_peak=run.cache_bytes_peak,
            metric_ms=(time.perf_counter() - t0) * 1e3))
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
    file with another header (an older schema), or a path no file can be
    written to, raises ConfigError."""
    _check_writable(path)
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
            writer.writerow([_cell(v) for v in row])

