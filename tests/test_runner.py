"""Runner invariants that must hold without `assert` (they survive -O), the
sampling pool's size rule, outputs that do not depend on the pool, scoring
that overlaps the sampling of the later strategies, and an early close that
starts no queued session."""

import csv
import json
import logging
import math
import sys
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import fields, replace

import pytest

from flowcache import runner
from flowcache.checkpoint import load_checkpoint, verify_parent
from flowcache.cli import EXIT_NUMERIC, EXIT_OK, main
from flowcache.config import load_config
from flowcache.errors import ContractViolation, NumericFailure
from flowcache.flow import sample_data
from flowcache.metrics import energy_distance, w2_distance
from flowcache.optim import StepReport

from conftest import TINY_CONFIG, train_pipeline


def test_stage_files_record_the_parent_they_loaded(tiny_pipeline):
    _, root = tiny_pipeline
    names = ("base", "cfg", "meanflow", "predictor")
    assert sorted(p.stem for p in root.glob("*.fck")) == sorted(names)
    files = {name: load_checkpoint(root / f"{name}.fck") for name in names}
    assert files["base"].parent_stage is None
    for child, parent in zip(names[1:], names[:-1]):
        verify_parent(files[child], files[parent], child_path=child)
    velocity = files["meanflow"].config["velocity"]
    assert files["predictor"].config["velocity"] == velocity


@pytest.mark.parametrize("stage,steps", [
    ("base", 2), ("cfg", 2), ("meanflow", 2), ("predictor", 2 + 2)])
def test_each_stage_writes_one_record_per_step(tiny_pipeline, stage, steps):
    _, root = tiny_pipeline
    lines = (root / f"{stage}.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    keys = ["step", *(f.name for f in fields(StepReport))]
    assert [record["step"] for record in records] == list(range(steps))
    for record in records:
        assert list(record) == keys
        assert math.isfinite(record["loss"]) and record["grad_norm"] >= 0
        assert (record["interval_mean"] is not None) == (stage == "meanflow")
    scored = [r["d_real_score"] is not None for r in records]
    assert scored == ([False, False, True, True] if stage == "predictor"
                      else [False] * steps)


TWO_MOONS = {"distribution": {"kind": "two_moons"}}

# (command, the parent file it loads, the stage it writes, config sections
# that only an earlier stage reads): the child builds on its parent, so these
# keys change no byte of its outputs
INHERITED = {
    "distill-cfg-narrower-model": ("distill-cfg", "base.fck", "cfg",
                                   {"model": {"hidden_dim": 8}}),
    "distill-cfg-two-moons": ("distill-cfg", "base.fck", "cfg", TWO_MOONS),
    "distill-meanflow-wider-g": ("distill-meanflow", "cfg.fck", "meanflow",
                                 {"cfg_distill": {"g_max": 20.0}}),
    "distill-meanflow-narrower-g": ("distill-meanflow", "cfg.fck", "meanflow",
                                    {"cfg_distill": {"g_max": 2.0}}),
    "distill-meanflow-two-moons": ("distill-meanflow", "cfg.fck", "meanflow",
                                   TWO_MOONS),
    "train-predictor-two-moons": ("train-predictor", "meanflow.fck",
                                  "predictor", TWO_MOONS),
}


def tiny_config_with(path, sections):
    """Write TINY_CONFIG with `sections` merged into its sections; return
    the path."""
    path.write_text(json.dumps({**TINY_CONFIG, **{
        key: {**TINY_CONFIG.get(key, {}), **value}
        for key, value in sections.items()}}))
    return path


@pytest.mark.parametrize("case", sorted(INHERITED))
def test_a_child_stage_builds_on_the_checkpoint_it_loaded(tmp_path,
                                                          tiny_pipeline, case):
    command, parent, stage, sections = INHERITED[case]
    _, root = tiny_pipeline
    config = tiny_config_with(tmp_path / "config.json", sections)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out),
                 "--checkpoint", str(root / parent)]) == EXIT_OK
    for name in (f"{stage}.fck", f"{stage}.jsonl"):
        assert (out / name).read_bytes() == (root / name).read_bytes(), name


def bench_and_sample(config, root, out):
    """`bench` and `sample` of root's pipeline under `config` into out:
    (metrics.csv rows without the timing columns, {sample file: bytes})."""
    checkpoints = ["--checkpoint", str(root / "meanflow.fck"),
                   "--checkpoint", str(root / "predictor.fck")]
    for command in ("bench", "sample"):
        assert main([command, "--config", str(config), "--out", str(out),
                     *checkpoints]) == EXIT_OK
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        del row["wall_clock_ms"], row["metric_ms"]
    dumps = {p.name: p.read_bytes() for p in out.glob("samples-*.csv")}
    return rows, dumps


def test_train_base_reads_no_guidance_range(tmp_path, tiny_pipeline):
    # the base network has no guidance head, so cfg_distill shapes none of it
    _, root = tiny_pipeline
    config = tiny_config_with(tmp_path / "config.json",
                              {"cfg_distill": {"g_min": 2.0, "g_max": 20.0}})
    assert main(["train-base", "--config", str(config),
                 "--out", str(tmp_path)]) == EXIT_OK
    for name in ("base.fck", "base.jsonl"):
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes()


def test_sample_and_bench_score_the_distribution_the_model_learned(
        tmp_path, tiny_pipeline):
    # a two_moons config on the checkerboard pipeline: rows, file names and
    # every non-timing value are the checkerboard config's
    config, root = tiny_pipeline
    moons = tiny_config_with(tmp_path / "moons.json", TWO_MOONS)
    rows, dumps = bench_and_sample(moons, root, tmp_path / "moons")
    assert [row["run_id"] for row in rows] == [
        f"0:checkerboard:s20n2:{name}"
        for name in ("none", "naive", "taylor", "learned")]
    assert sorted(dumps) == sorted(
        f"samples-0-checkerboard-s20n2-{name}.csv"
        for name in ("none", "naive", "taylor", "learned"))
    assert (rows, dumps) == bench_and_sample(config, root,
                                             tmp_path / "checkerboard")


def force_pool(monkeypatch, cores):
    """BLAS pinned to one thread on `cores` usable cores: a pool of
    min(sessions, cores) workers."""
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(runner, "_usable_cores", lambda: cores)


def miscount_class_1(monkeypatch):
    original = runner._run_session

    def skewed(name, key, *rest):
        out, report = original(name, key, *rest)
        return out, replace(report, full_evals=report.full_evals + key[0])

    monkeypatch.setattr(runner, "_run_session", skewed)


def load_pair(root):
    """The sampler of root's mean-velocity and predictor checkpoints."""
    return runner.load_sampler(root / "meanflow.fck", root / "predictor.fck")


def test_sessions_disagreeing_on_nfe_raise(tiny_pipeline, monkeypatch):
    config, root = tiny_pipeline
    miscount_class_1(monkeypatch)
    with pytest.raises(ContractViolation, match="disagree on NFE counts"):
        list(runner.sample_strategies(load_config(config), load_pair(root)))


@pytest.mark.parametrize("openblas,omp,cores,sessions,size", [
    (None, None, 2, 4, 1),   # unpinned: BLAS may use every core
    (None, None, 8, 4, 1),
    ("1", None, 2, 4, 2),
    ("1", None, 4, 4, 4),
    ("1", None, 4, 3, 3),    # capped at the session count
    ("1", None, 4, 1, 1),
    ("2", None, 4, 4, 2),
    (None, "1", 2, 4, 2),    # OMP_NUM_THREADS when OpenBLAS's is unset
    (None, "2", 4, 4, 2),
    ("2", "1", 4, 4, 2),     # OPENBLAS_NUM_THREADS comes first
    ("2", None, 2, 4, 1),    # a pin of at least the core count
    ("4", None, 2, 4, 1),
    ("", None, 4, 4, 1),     # malformed pins count as all cores
    ("abc", None, 4, 4, 1),
    ("0", None, 4, 4, 1),
    ("-2", None, 4, 4, 1),
    (None, "abc", 4, 4, 1),
    ("abc", "1", 4, 4, 4),   # a malformed OpenBLAS pin falls through to OMP
])
def test_pool_size_rule(monkeypatch, openblas, omp, cores, sessions, size):
    for var, value in (("OPENBLAS_NUM_THREADS", openblas),
                       ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(runner, "_usable_cores", lambda: cores)
    assert runner._pool_size(sessions) == size


@contextmanager
def three_concurrent_sessions(monkeypatch, keys):
    """A pool of 3 in which the first three `none` sessions must all be
    running at once (a barrier holds each until the others arrive), with the
    interpreter switching threads every microsecond to shake out shared
    state."""
    force_pool(monkeypatch, 3)
    barrier = threading.Barrier(3, timeout=60)
    original = runner._run_session

    def gated(name, key, *rest):
        if name == "none" and key in keys[:3]:
            barrier.wait()
        return original(name, key, *rest)

    monkeypatch.setattr(runner, "_run_session", gated)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_pool_size_never_changes_an_output(tmp_path, tiny_pipeline,
                                           monkeypatch):
    # 550 points per class: each class samples a 512-row and a 38-row chunk
    config, root = tiny_pipeline
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({**TINY_CONFIG, "metric_samples": 1100}))
    cfg = load_config(wide)
    keys = runner._session_keys(cfg, cfg.distribution)
    assert [count for _, _, count in keys] == [512, 38, 512, 38]
    force_pool(monkeypatch, 1)
    rows_1, dumps_1 = bench_and_sample(wide, root, tmp_path / "pool1")
    with three_concurrent_sessions(monkeypatch, keys):
        rows_3, dumps_3 = bench_and_sample(wide, root, tmp_path / "pool3")
    assert len(rows_1) == 4 and rows_3 == rows_1
    assert len(dumps_1) == 4 and dumps_3 == dumps_1


def test_nfe_disagreement_crosses_the_pool(tiny_pipeline, monkeypatch):
    config, root = tiny_pipeline
    force_pool(monkeypatch, 2)
    assert runner._pool_size(2) == 2
    miscount_class_1(monkeypatch)
    with pytest.raises(ContractViolation, match="disagree on NFE counts"):
        list(runner.sample_strategies(load_config(config), load_pair(root)))


def test_one_session_per_strategy_still_fills_the_pool(tmp_path, monkeypatch):
    # gaussian1d has one class, so 64 points are one session per strategy;
    # the pool is sized by the run's sessions, and the first two sessions,
    # each held until the other runs, need a helper thread
    config = tmp_path / "gaussian1d.json"
    config.write_text(json.dumps({**TINY_CONFIG,
                                  "distribution": {"kind": "gaussian1d"}}))
    train_pipeline(config, tmp_path)
    cfg = load_config(config)
    assert len(runner._session_keys(cfg, cfg.distribution)) == 1
    force_pool(monkeypatch, 2)
    both = threading.Barrier(2, timeout=TIMEOUT_S)
    threads = []
    original = runner._run_session

    def spy(name, key, *rest):
        threads.append(threading.current_thread().name)
        if name in cfg.strategies[:2]:
            both.wait()
        return original(name, key, *rest)

    monkeypatch.setattr(runner, "_run_session", spy)
    runs = list(runner.sample_strategies(cfg, load_pair(tmp_path)))
    assert [run.strategy for run in runs] == list(cfg.strategies)
    assert any(name.startswith("sampler-") for name in threads)


def test_numeric_failure_in_one_session_exits_4(tmp_path, tiny_pipeline,
                                                monkeypatch, capsys):
    config, root = tiny_pipeline
    force_pool(monkeypatch, 2)
    original = runner._run_session

    def failing(name, key, *rest):
        if name == "taylor" and key[0] == 1:
            raise NumericFailure("non-finite value in session (1, 0)")
        return original(name, key, *rest)

    monkeypatch.setattr(runner, "_run_session", failing)
    assert main(["bench", "--config", str(config), "--out", str(tmp_path),
                 "--checkpoint", str(root / "meanflow.fck"),
                 "--checkpoint", str(root / "predictor.fck")]) == EXIT_NUMERIC
    assert "non-finite value in session (1, 0)" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


def test_out_of_horizon_queries_warn_once_per_strategy(tiny_pipeline,
                                                       caplog):
    # the fixture schedule's learned queries sit 0.05 past their cache, so
    # a trained horizon of 0.01 puts every one of them out of horizon
    config, root = tiny_pipeline
    cfg = load_config(config)
    sampler = load_pair(root)
    sessions = len(runner._session_keys(cfg, sampler.distribution))

    def run(sampler):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="flowcache"):
            runs = list(runner.sample_strategies(cfg, sampler))
        return runs, [r.getMessage() for r in caplog.records]

    _, messages = run(sampler)
    assert messages == []
    runs, messages = run(sampler._replace(delta_max=0.01))
    learned = next(r for r in runs if r.strategy == "learned")
    queries = learned.predictor_evals * sessions
    assert queries > 0
    assert messages == [
        f"strategy 'learned': {queries} of {queries} learned predictions "
        f"queried the cache past the predictor's trained horizon 0.0100"]


def test_w2_column_equals_a_cold_recomputation(tmp_path, tiny_pipeline,
                                               monkeypatch):
    # every strategy's W2 and energy go through one reference-terms holder,
    # filled by the first strategy; each value equals a call without it
    config, root = tiny_pipeline
    cfg = replace(load_config(config), metric_samples=256)
    checkpoints = (root / "meanflow.fck", root / "predictor.fck")
    holders = []

    def spy(metric):
        def call(a, b, terms=None):
            holders.append(terms)
            return metric(a, b, terms)
        return call

    monkeypatch.setattr(runner, "w2_distance", spy(w2_distance))
    monkeypatch.setattr(runner, "energy_distance", spy(energy_distance))
    records = runner.run_experiment(cfg, *checkpoints, out_dir=tmp_path)
    runs = runner.sample_strategies(cfg, runner.load_sampler(*checkpoints))
    reference = sample_data(cfg.distribution, cfg.metric_samples,
                            cfg.metric_seed)
    assert [r.strategy for r in records] == list(cfg.strategies)
    assert len(holders) == 8 and all(h is holders[0] for h in holders)
    assert holders[0].potentials is not None
    assert holders[0].self_energy is not None
    for record, run in zip(records, runs):
        assert record.w2 == w2_distance(run.samples, reference)
        assert record.energy_distance == energy_distance(run.samples,
                                                         reference)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        column = [float(row["w2"]) for row in csv.DictReader(fh)]
    assert column == [r.w2 for r in records]


TIMEOUT_S = 10


def wait_for(event, what):
    """Wait for `event`; a scheduler that never sets it fails the test
    instead of hanging it."""
    if not event.wait(TIMEOUT_S):
        raise AssertionError(f"waited {TIMEOUT_S} s for {what}")


def none_sampled_first(monkeypatch, config, before):
    """A pool of 2 in which every later strategy's session waits until the
    last `none` session has ended, then calls before(name, key) and walks.

    Both threads sample `none` before anything else, so the calling thread
    takes no job past the next strategy's before it scores `none`."""
    force_pool(monkeypatch, 2)
    left = len(runner._session_keys(config, config.distribution))
    lock, sampled = threading.Lock(), threading.Event()
    original = runner._run_session

    def gated(name, key, *rest):
        nonlocal left
        if name != "none":
            wait_for(sampled, "the `none` sessions")
            before(name, key)
            return original(name, key, *rest)
        out = original(name, key, *rest)
        with lock:
            left -= 1
            if not left:
                sampled.set()
        return out

    monkeypatch.setattr(runner, "_run_session", gated)


def spy_first_w2(monkeypatch, during=lambda: None):
    """An event set by the runner's first w2_distance call (which scores
    `none`), which runs during() before it computes."""
    scored = threading.Event()
    w2 = runner.w2_distance

    def spy(samples, reference, terms=None):
        if not scored.is_set():
            scored.set()
            during()
        return w2(samples, reference, terms)

    monkeypatch.setattr(runner, "w2_distance", spy)
    return scored


def test_later_strategies_sample_while_none_is_scored(tmp_path, tiny_pipeline,
                                                      monkeypatch):
    # a scheduler that samples every strategy before it scores one times out
    # in the gated `learned` sessions
    config, root = tiny_pipeline
    cfg = load_config(config)
    scored = spy_first_w2(monkeypatch)
    gated = []

    def learned_after_none_is_scored(name, key):
        if name == "learned":
            wait_for(scored, "`none` to be scored")
            gated.append(key)

    none_sampled_first(monkeypatch, cfg, learned_after_none_is_scored)
    records = runner.run_experiment(cfg, root / "meanflow.fck",
                                    root / "predictor.fck", out_dir=tmp_path)
    assert [r.strategy for r in records] == list(cfg.strategies)
    assert sorted(gated) == runner._session_keys(cfg, cfg.distribution)


def test_session_failure_while_scoring_exits_4(tmp_path, tiny_pipeline,
                                               monkeypatch, capsys):
    # a later strategy's session fails while `none` is scored: the run
    # exits 4, writes no metrics.csv and leaves no sampling thread behind
    config, root = tiny_pipeline
    failed = threading.Event()
    scoring = spy_first_w2(
        monkeypatch, lambda: wait_for(failed, "the taylor session to fail"))

    def fail_during_scoring(name, key):
        if name == "taylor" and key[0] == 1:
            wait_for(scoring, "`none` to be scored")
            failed.set()
            raise NumericFailure("non-finite value in session (1, 0)")

    none_sampled_first(monkeypatch, load_config(config), fail_during_scoring)
    threads = threading.active_count()
    assert main(["bench", "--config", str(config), "--out", str(tmp_path),
                 "--checkpoint", str(root / "meanflow.fck"),
                 "--checkpoint", str(root / "predictor.fck")]) == EXIT_NUMERIC
    assert "non-finite value in session (1, 0)" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()
    assert threading.active_count() == threads


def test_wall_clock_ms_spans_a_strategys_sessions(tmp_path, tiny_pipeline,
                                                  monkeypatch):
    # each strategy's wall_clock_ms runs from its first session's start to
    # its last session's end: at least its longest session, and within the
    # whole call
    config, root = tiny_pipeline
    cfg = load_config(config)
    force_pool(monkeypatch, 2)
    sessions_ms = {}
    original = runner._run_session

    def timed(name, key, *rest):
        t0 = time.perf_counter()
        out = original(name, key, *rest)
        sessions_ms.setdefault(name, []).append(
            (time.perf_counter() - t0) * 1e3)
        return out

    monkeypatch.setattr(runner, "_run_session", timed)
    t0 = time.perf_counter()
    records = runner.run_experiment(cfg, root / "meanflow.fck",
                                    root / "predictor.fck", out_dir=tmp_path)
    whole_ms = (time.perf_counter() - t0) * 1e3
    assert [r.strategy for r in records] == list(cfg.strategies)
    for record in records:
        longest = max(sessions_ms[record.strategy])
        assert 0 < longest <= record.wall_clock_ms <= whole_ms


def test_closing_after_the_first_strategy_starts_no_queued_session(
        tiny_pipeline, monkeypatch):
    # on a pool of 2 the helper's first session past `none` holds until no
    # session is pending, which only the close can bring about; a session
    # that starts once the close has cancelled one is a queued session run
    config, root = tiny_pipeline
    cfg = load_config(config)
    force_pool(monkeypatch, 2)
    futures, late = [], []

    class Slot(Future):
        def __init__(self):
            super().__init__()
            futures.append(self)

    def pending():
        return [f for f in futures if not (f.running() or f.done())]

    original = runner._run_session

    def held(name, key, *rest):
        if any(f.cancelled() for f in futures):
            late.append((name, key))
        if (name != "none"
                and threading.current_thread().name.startswith("sampler-")):
            deadline = time.monotonic() + TIMEOUT_S
            while pending() and time.monotonic() < deadline:
                time.sleep(1e-3)
        return original(name, key, *rest)

    monkeypatch.setattr(runner, "Future", Slot)
    monkeypatch.setattr(runner, "_run_session", held)
    threads = threading.active_count()
    runs = runner.sample_strategies(cfg, load_pair(root))
    assert next(runs).strategy == "none"
    runs.close()
    assert threading.active_count() == threads
    assert pending() == [] and any(f.cancelled() for f in futures)
    assert late == []
