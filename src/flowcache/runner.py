"""Pipeline orchestration: stage training entry points, checkpoint wiring,
the sampling loop shared by `sample` and `bench`, and the benchmark runner
with metrics CSV emission.

Every stage file is written by `_save_stage`, with the lineage and the
distribution of the parent checkpoint it loaded, and read by `_open_stage`,
which checks its stage and rebuilds its network and distribution from the
snapshot: a child stage's network, g range and data come from there, not
from the config, and `sample` and `bench` label rows and files and draw the
reference set from that distribution. A snapshot entry (`velocity`,
`distribution`, `cfg`, `restrict`, `predictor`) that is missing or does not
hold exactly its dataclass's fields, each of the right type, a `delta_max`
that is neither null nor a number in (0, 1], and tensors that are not the
network's raise CorruptCheckpointError naming the file and key (exit 3).

Next to each trained stage's `.fck`, `_save_stage` writes `<stage>.jsonl`:
one JSON object per optimizer step, in step order, holding the step index
and the fields of its `optim.StepReport` (`predictor.jsonl` holds the MSE
phase, then the GAN phase). A stage checks that its outputs can be written
before it trains, `sample` its sample files and `bench` its `metrics.csv`
before they sample: a directory, or a file or folder without write access,
in their place raises ConfigError (exit 2) naming the path.
`sample` is the only command that writes samples.

Sampling sessions (per strategy, class, and 512-row quota chunk) each derive
their own RNG stream from the root seed. All of a run's sessions wait in one
queue, strategy by strategy in config order, each with a `Future` that holds
its result, and a pool drains it from the front, since numpy and scipy
release the GIL inside their kernels. The pool holds min(sessions of the
run, cores // BLAS threads) workers: the cores this process may run on,
divided by the BLAS pin it runs under (`OPENBLAS_NUM_THREADS`, else
`OMP_NUM_THREADS`; a missing or malformed pin counts as all cores, so an
unpinned run samples on one worker). The thread
that asked for the samples is one of the workers, the others are helper
threads. It takes each strategy's samples, in key order, as soon as that
strategy's last session ends, and `bench` scores them then, while the
helpers sample the later strategies; while it waits for a strategy, it runs
sessions itself. So no more threads are busy than the pool holds, and the
strategies are still scored one at a time, in config order. The keys, not
the pool, fix the sample streams, and so every metric value, for a given
seed.

A failed session does not stop the queue: it is raised when the caller
reaches its strategy, after the earlier ones are taken (and, in `bench`,
scored). Leaving early cancels every session not yet started and joins the
helpers.

`wall_clock_ms` is the time from a strategy's first session start to its
last session end, and `metric_ms` the time of its W2 and energy distance.
Both overlap other work: a strategy's sessions share the pool with the next
strategy's and with the caller's scoring, and the scoring shares the cores
with the helpers' sampling. The timing columns are the only
non-deterministic ones in the CSV, and `metrics.csv` is written only after
every strategy has been sampled and scored.

Every strategy's metrics are measured against one reference set, through one
`ReferenceTerms` holder: the first strategy's 2-D W2 solve is cold, and its
`metric_ms` includes the auction that starts that solve, the solve and the
reference's energy self term; the later strategies' solves start from that
auction's prices and reuse that term (see metrics).
Each value equals a call without the holder; the holder changes only the
time.

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
import threading
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future
from contextlib import closing
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import distill, flow, predictor_train
from .autodiff import ParameterSet
from .cache import NfeReport, Strategy, cached_sample
from .checkpoint import (EXPECTED_PARENT, Checkpoint, Stage, load_checkpoint,
                         save_checkpoint, verify_parent)
from .config import ExperimentConfig, read_dataclass
from .errors import (ConfigError, ContractViolation, CorruptCheckpointError,
                     LineageError, NumericFailure)
from .flow import ToyDistribution, mean_velocity_sample, sample_data
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
    """(checkpoint, network its tensors belong to, distribution it learned)
    of the `stage` file at `path`; the network is the snapshot's velocity
    model, or a predictor over it."""
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
    return ckpt, net, _snapshot_entry(path, ckpt, "distribution",
                                      ToyDistribution)


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
    """Write a `stage` checkpoint, lineage and distribution the loaded
    `parent`'s, and its step `reports`, one JSON line each, next to it."""
    ckpt = Checkpoint(stage=stage, params=params, config=snapshot)
    if parent is not None:
        ckpt.parent_stage, ckpt.parent_digest = parent.stage, parent.digest
        ckpt.config["distribution"] = parent.config["distribution"]
    save_checkpoint(path, ckpt)
    if reports is not None:
        with open(_step_log(path), "w") as fh:
            for step, report in enumerate(reports):
                fh.write(json.dumps({"step": step, **asdict(report)}) + "\n")
    return Path(path)


def run_train_base(config: ExperimentConfig, out_path) -> Path:
    _check_writable(out_path, _step_log(out_path))
    model = VelocityModel(config.model)
    params, reports = flow.train_base(model, config.distribution,
                                      config.base_train, seed=config.seed)
    return _save_stage(out_path, Stage.BASE_FM, params,
                       {"velocity": asdict(model.config),
                        "distribution": asdict(config.distribution)},
                       reports=reports)


def run_distill_cfg(config: ExperimentConfig, base_path, out_path) -> Path:
    _check_writable(out_path, _step_log(out_path))
    stage = Stage.CFG_DISTILLED
    base, teacher, dist = _open_stage(base_path, EXPECTED_PARENT[stage])
    g = config.cfg_distill
    student = VelocityModel(replace(teacher.config, accepts_r=True,
                                    accepts_cfg=True, cfg_min=g.g_min,
                                    cfg_max=g.g_max))
    params, reports = distill.train_cfg(
        student, teacher, base.params, dist, cfg=g,
        settings=config.cfg_train, seed=config.seed)
    return _save_stage(out_path, stage, params,
                       {"velocity": asdict(student.config), "cfg": asdict(g)},
                       base, reports)


def run_distill_meanflow(config: ExperimentConfig, cfg_path, out_path) -> Path:
    _check_writable(out_path, _step_log(out_path))
    stage = Stage.MEANFLOW
    parent, model, dist = _open_stage(cfg_path, EXPECTED_PARENT[stage])
    cfg = _snapshot_entry(cfg_path, parent, "cfg", distill.CfgConfig)
    params, reports = distill.train_meanflow(
        model, parent.params, model, parent.params, dist,
        restrict=config.restrict, cfg=cfg, settings=config.meanflow_train,
        seed=config.seed)
    return _save_stage(out_path, stage, params,
                       {"velocity": asdict(model.config),
                        "restrict": asdict(config.restrict)}, parent, reports)


def run_train_predictor(config: ExperimentConfig, meanflow_path,
                        out_path) -> Path:
    _check_writable(out_path, _step_log(out_path))
    parent, backbone, dist = _open_stage(meanflow_path,
                                         EXPECTED_PARENT[Stage.PREDICTOR])
    restrict = _snapshot_entry(meanflow_path, parent, "restrict",
                               distill.RestrictConfig)
    predictor = Predictor(config.predictor, backbone)
    params, _, reports, _ = predictor_train.train_predictor(
        backbone, parent.params, predictor, dist, restrict=restrict,
        cfg=config.predictor_train, seed=config.seed)
    return _save_stage(out_path, Stage.PREDICTOR, params,
                       {"velocity": asdict(backbone.config),
                        "predictor": asdict(config.predictor),
                        "delta_max": config.predictor_train.delta_max},
                       parent, reports)


class Sampler(NamedTuple):
    """What `sample` and `bench` rebuild from their checkpoints."""
    model: VelocityModel
    params: ParameterSet
    predictor: Predictor | None
    predictor_params: ParameterSet | None
    delta_max: float | None
    distribution: ToyDistribution


def load_sampler(meanflow_path, predictor_path=None) -> Sampler:
    """Rebuild the Sampler from checkpoints, verifying the lineage chain
    when both are given."""
    mf, model, dist = _open_stage(meanflow_path, Stage.MEANFLOW)
    if predictor_path is None:
        return Sampler(model, mf.params, None, None, None, dist)
    pc, predictor, _ = _open_stage(predictor_path, Stage.PREDICTOR)
    verify_parent(pc, mf, child_path=str(predictor_path))
    delta_max = pc.config.get("delta_max")
    try:  # null, or read as the `predictor` config section reads it
        delta_max = None if delta_max is None else read_dataclass(
            "delta_max", predictor_train.PredictorTrainConfig,
            {"delta_max": delta_max}).delta_max
    except ConfigError as exc:
        raise CorruptCheckpointError(
            f"{predictor_path}: snapshot entry {exc}") from exc
    return Sampler(model, mf.params, predictor, pc.params, delta_max, dist)


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def _class_quotas(n: int, n_classes: int) -> list[int]:
    base, extra = divmod(n, n_classes)
    return [base + (1 if k < extra else 0) for k in range(n_classes)]


def _session_keys(config: ExperimentConfig, dist: ToyDistribution):
    keys = []
    for class_id, quota in enumerate(
            _class_quotas(config.metric_samples, dist.n_classes)):
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
    """Sampling workers, the calling thread included: the cores the BLAS pin
    leaves free, at most one per session of the run. The pin is the first
    of OPENBLAS_NUM_THREADS and OMP_NUM_THREADS that holds a positive
    integer, as OpenBLAS reads them; without one, BLAS may use every core
    and the pool is 1."""
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


def _run_session(strategy_name, key, sampler: Sampler, config):
    model, params, predictor, pparams, delta_max, dist = sampler
    class_id, offset, count = key
    seq = np.random.SeedSequence([config.seed, config.metric_seed,
                                  class_id, offset])
    rng = np.random.default_rng(seq)
    x1 = rng.standard_normal((count, dist.dim))
    g = config.sample_cfg_scale if model.config.accepts_cfg else None
    cond = Condition(class_id, g)
    schedule = config.schedule
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


def sample_strategies(config: ExperimentConfig,
                      sampler: Sampler) -> Iterator[StrategySamples]:
    """Draw config.metric_samples points with every configured strategy,
    yielding each strategy's samples in config order as soon as its last
    session ends. The sessions of the strategies after it go on sampling on
    the helper threads while the consumer works on it, and a failed one is
    raised when the consumer reaches its strategy. Close the iterator
    (`contextlib.closing`) when leaving it early: no session still queued
    then starts, and the helpers are joined.

    A strategy whose learned predictions query the cache past the
    predictor's trained horizon logs one warning with their count. A
    strategy with a non-finite sample raises NumericFailure naming it."""
    dist = sampler.distribution
    if "learned" in config.strategies and sampler.predictor is None:
        raise ConfigError("strategy 'learned' needs a predictor checkpoint")
    names, keys = config.strategies, _session_keys(config, dist)
    # A Future is only a cancellable one-shot result slot here. A
    # ThreadPoolExecutor took the sessions off the calling thread and gave a
    # third thread its own malloc arena: `bench` samples_per_s 4718 -> 4035,
    # peak RSS 119.86 -> 123.02 MB (medians of 10 alternating pairs).
    jobs = [[(Future(), name, key) for key in keys] for name in names]
    queue = deque(chain.from_iterable(jobs))

    def run(enough=lambda: False) -> None:
        """Run the front sessions in this thread until enough() holds or
        the queue is empty, skipping the cancelled ones."""
        while not enough():
            try:
                future, name, key = queue.popleft()
            except IndexError:
                return
            if not future.set_running_or_notify_cancel():
                continue
            start = time.perf_counter()
            try:
                out = _run_session(name, key, sampler, config)
            except BaseException as exc:
                future.set_exception(exc)
                if not isinstance(exc, Exception):
                    raise  # an interrupt stops this thread now
            else:
                future.set_result((out, start, time.perf_counter()))

    helpers = [threading.Thread(target=run, name=f"sampler-{n}")
               for n in range(_pool_size(len(queue)) - 1)]
    for thread in helpers:
        thread.start()
    try:
        for i, (name, run_id) in enumerate(zip(names, _run_ids(config, dist))):
            futures = [future for future, _, _ in jobs[i]]
            run(lambda: all(f.done() for f in futures))
            results, starts, ends = zip(*(f.result() for f in futures))
            jobs[i] = None  # else every strategy's samples live to the end
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
                            predictor_evals * len(results), sampler.delta_max)
            samples = np.concatenate([out for out, _ in results], axis=0)
            if not np.isfinite(samples).all():
                raise NumericFailure(
                    f"strategy '{name}' produced non-finite samples")
            yield StrategySamples(
                run_id=run_id, strategy=name, samples=samples,
                full_evals=full_evals, predictor_evals=predictor_evals,
                cache_bytes_peak=max(rep.cache_bytes_peak for rep in reports),
                wall_clock_ms=(max(ends) - min(starts)) * 1e3)
    finally:
        for future, _, _ in chain.from_iterable(filter(None, jobs)):
            future.cancel()
        for thread in helpers:
            thread.join()


def run_experiment(config: ExperimentConfig, meanflow_path,
                   predictor_path=None, *, out_dir) -> list[MetricsRecord]:
    """Benchmark every configured strategy; appends rows to metrics.csv in
    the existing directory out_dir and returns the records. An existing
    metrics.csv of another schema is refused before any sampling. Each
    strategy is scored as soon as its samples are in, while the later
    strategies sample."""
    out_dir = Path(out_dir)
    _metrics_header(out_dir / "metrics.csv")
    sampler = load_sampler(meanflow_path, predictor_path)
    reference = sample_data(sampler.distribution, config.metric_samples,
                            config.metric_seed)
    terms = ReferenceTerms()
    records = []
    with closing(sample_strategies(config, sampler)) as sampled:
        for run in sampled:
            t0 = time.perf_counter()
            w2 = w2_distance(run.samples, reference, terms)
            energy = energy_distance(run.samples, reference, terms)
            records.append(MetricsRecord(
                run_id=run.run_id, strategy=run.strategy,
                full_evals=run.full_evals,
                predictor_evals=run.predictor_evals, w2=w2,
                energy_distance=energy, wall_clock_ms=run.wall_clock_ms,
                cache_bytes_peak=run.cache_bytes_peak,
                metric_ms=(time.perf_counter() - t0) * 1e3))
    append_metrics(out_dir / "metrics.csv", records)
    return records


def run_sample(config: ExperimentConfig, meanflow_path, predictor_path=None,
               *, out_dir) -> list[tuple[StrategySamples, Path]]:
    """Sample every configured strategy into its samples-<run_id>.csv in the
    existing directory out_dir: a CSV with a header x0, x1, ... and one row
    per sample. Every file is checked before any sampling, and none is
    written before every strategy has been sampled."""
    sampler = load_sampler(meanflow_path, predictor_path)
    paths = [Path(out_dir) / f"samples-{run_id.replace(':', '-')}.csv"
             for run_id in _run_ids(config, sampler.distribution)]
    _check_writable(*paths)
    runs = list(sample_strategies(config, sampler))
    for run, path in zip(runs, paths, strict=True):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(run.samples.shape[1])])
            writer.writerows([_cell(v) for v in row] for row in run.samples)
    return list(zip(runs, paths))


def _run_ids(config: ExperimentConfig, dist: ToyDistribution) -> list[str]:
    """Each configured strategy's seed:distribution:schedule:strategy."""
    spec, kind = config.schedule, dist.kind
    return [f"{config.seed}:{kind}:s{spec.total_steps}n{spec.max_interval}:"
            f"{name}" for name in config.strategies]


def _metrics_header(path: Path) -> list[str]:
    """Header of an existing metrics CSV, [] for a missing or empty file. A
    file with another header (an older schema) or none that can be read, or
    a path no file can be written to, raises ConfigError."""
    _check_writable(path)
    header = []
    if path.exists():
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                header = next(csv.reader(fh), [])
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"cannot read the header of {path}: {exc}; "
                              f"write to another output directory") from exc
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
