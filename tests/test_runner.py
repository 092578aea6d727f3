"""Runner invariants that must hold without `assert` (they survive -O), the
sampling pool's size rule, and outputs that do not depend on the pool."""

import csv
import json
import logging
import math
import sys
import threading
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

from conftest import TINY_CONFIG


def test_stage_files_record_the_parent_they_loaded(tiny_pipeline):
    _, root = tiny_pipeline
    files = {name: load_checkpoint(root / f"{name}.fck") for name in
             ("base", "cfg", "meanflow", "predictor", "discriminator")}
    assert files["base"].parent_stage is None
    for child, parent in (("cfg", "base"), ("meanflow", "cfg"),
                          ("predictor", "meanflow"),
                          ("discriminator", "meanflow")):
        verify_parent(files[child], files[parent], child_path=child)
    velocity = files["meanflow"].config["velocity"]
    assert files["predictor"].config["velocity"] == velocity
    assert files["discriminator"].config == {
        "velocity": velocity, "scales": [1, 2], "hidden_dim": 4,
        "spectral_norm": True}


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


def test_discriminator_has_no_step_log(tiny_pipeline):
    _, root = tiny_pipeline
    assert not (root / "discriminator.jsonl").exists()


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


def test_sessions_disagreeing_on_nfe_raise(tiny_pipeline, monkeypatch):
    config, root = tiny_pipeline
    miscount_class_1(monkeypatch)
    with pytest.raises(ContractViolation, match="disagree on NFE counts"):
        runner.sample_strategies(load_config(config), root / "meanflow.fck",
                                 root / "predictor.fck")


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
    keys = runner._session_keys(load_config(wide))
    assert [count for _, _, count in keys] == [512, 38, 512, 38]
    checkpoints = ["--checkpoint", str(root / "meanflow.fck"),
                   "--checkpoint", str(root / "predictor.fck")]

    def run(out):
        for command in ("bench", "sample"):
            assert main([command, "--config", str(wide), "--out", str(out),
                         *checkpoints]) == EXIT_OK
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            del row["wall_clock_ms"], row["metric_ms"]
        dumps = {p.name: p.read_bytes() for p in out.glob("samples-*.csv")}
        return rows, dumps

    force_pool(monkeypatch, 1)
    rows_1, dumps_1 = run(tmp_path / "pool1")
    with three_concurrent_sessions(monkeypatch, keys):
        rows_3, dumps_3 = run(tmp_path / "pool3")
    assert len(rows_1) == 4 and rows_3 == rows_1
    assert len(dumps_1) == 4 and dumps_3 == dumps_1


def test_nfe_disagreement_crosses_the_pool(tiny_pipeline, monkeypatch):
    config, root = tiny_pipeline
    force_pool(monkeypatch, 2)
    assert runner._pool_size(2) == 2
    miscount_class_1(monkeypatch)
    with pytest.raises(ContractViolation, match="disagree on NFE counts"):
        runner.sample_strategies(load_config(config), root / "meanflow.fck",
                                 root / "predictor.fck")


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
                                                       monkeypatch, caplog):
    # the fixture schedule's learned queries sit 0.05 past their cache, so
    # a trained horizon of 0.01 puts every one of them out of horizon
    config, root = tiny_pipeline
    cfg = load_config(config)
    sessions = len(runner._session_keys(cfg))
    load = runner.load_sampler

    def run():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="flowcache"):
            runs = runner.sample_strategies(cfg, root / "meanflow.fck",
                                            root / "predictor.fck")
        return runs, [r.getMessage() for r in caplog.records]

    _, messages = run()
    assert messages == []
    monkeypatch.setattr(runner, "load_sampler",
                        lambda *paths: (*load(*paths)[:4], 0.01))
    runs, messages = run()
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
    runs = runner.sample_strategies(cfg, *checkpoints)
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
