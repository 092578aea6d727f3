"""CLI exit codes and outputs: the verify battery, config and checkpoint
errors, the files bench and sample write, outputs that cannot be written,
and what a CLI process loads and pins."""

import csv
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import flowcache
from flowcache import (cli, distill, flow, nets, predictor_train, runner,
                       verify)
from flowcache.checkpoint import load_checkpoint, save_checkpoint
from flowcache.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_LINEAGE,
                           EXIT_NUMERIC, EXIT_OK, main)
from flowcache.config import load_config
from flowcache.runner import METRICS_COLUMNS

from conftest import TINY_CONFIG, load_perfbench, train_pipeline

CHECKPOINTS = ("base.fck", "cfg.fck", "meanflow.fck", "predictor.fck")


def checkpoint_args(root):
    return ["--checkpoint", str(root / "meanflow.fck"),
            "--checkpoint", str(root / "predictor.fck")]


def test_verify_battery_passes(capsys):
    assert main(["verify"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("[  ok]") for line in lines)


def test_failed_verify_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", [
        *verify.CHECKS, ("always-fails", lambda seed: (False, "forced"))])
    assert main(["verify"]) == EXIT_CHECK_FAILED
    assert "[FAIL] always-fails: forced" in capsys.readouterr().out


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    assert main(["train-base", "--seed", "-1",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "base.fck").exists()


def test_negative_verify_seed_exits_2(capsys):
    assert main(["verify", "--seed", "-1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sample", "bench"])
def test_third_checkpoint_exits_2(tmp_path, tiny_pipeline, capsys, command):
    config, root = tiny_pipeline
    assert main([command, "--config", str(config), "--out", str(tmp_path),
                 *checkpoint_args(root),
                 "--checkpoint", str(root / "predictor.fck")]) == EXIT_CONFIG
    assert "at most two --checkpoint files, got 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["train-base", "--out", str(taken)]) == EXIT_CONFIG
    assert str(taken) in capsys.readouterr().err


def test_unknown_model_key_exits_2(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"model": {"hiden_dim": 8}}))
    assert main(["train-base", "--config", str(config),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "latin.json"
    config.write_bytes(b"\xff" + json.dumps(TINY_CONFIG).encode())
    assert main(["train-base", "--config", str(config),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot read config file {config}: 'utf-8' codec" in err
    assert "Traceback" not in err
    assert not (tmp_path / "base.fck").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_numeric_failure_exits_4(tmp_path, capsys):
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({
        **TINY_CONFIG,
        "base_train": {"iters": 3, "batch_size": 8, "lr": 1e300,
                       "lr_final": 1e300}}))
    assert main(["train-base", "--config", str(config),
                 "--out", str(tmp_path)]) == EXIT_NUMERIC
    assert "non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "base.fck").exists()
    assert not (tmp_path / "base.jsonl").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("worked before checking its outputs")


# (command, parent it reads, output blocked by a directory, the work that
#  must not start)
BLOCKED = {
    "base": ("train-base", None, "base.fck", (flow, "train_base")),
    "cfg-log": ("distill-cfg", "base.fck", "cfg.jsonl",
                (distill, "train_cfg")),
    "meanflow": ("distill-meanflow", "cfg.fck", "meanflow.fck",
                 (distill, "train_meanflow")),
    "predictor": ("train-predictor", "meanflow.fck", "predictor.fck",
                  (predictor_train, "train_predictor")),
    "metrics": ("bench", "meanflow.fck", "metrics.csv",
                (runner, "sample_strategies")),
    "sample": ("sample", "meanflow.fck",
               "samples-0-checkerboard-s20n2-none.csv",
               (runner, "sample_strategies")),
}


@pytest.mark.parametrize("case", sorted(BLOCKED))
def test_output_that_is_a_directory_exits_2_before_the_work(
        tmp_path, tiny_pipeline, capsys, monkeypatch, case):
    command, parent, blocked, (owner, work) = BLOCKED[case]
    config, root = tiny_pipeline
    monkeypatch.setattr(owner, work, _no_work)
    (tmp_path / blocked).mkdir()
    parents = [] if parent is None else ["--checkpoint", str(root / parent)]
    assert main([command, "--config", str(config), "--out", str(tmp_path),
                 *parents]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot write {tmp_path / blocked}: it is a directory" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [blocked]


def test_failed_output_write_exits_2(tmp_path, tiny_pipeline, capsys,
                                     monkeypatch):
    config, _ = tiny_pipeline
    target = tmp_path / "base.fck"

    def disk_full(path, ckpt):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(runner, "save_checkpoint", disk_full)
    assert main(["train-base", "--config", str(config),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(target) in err
    assert "No space left on device" in err


def test_pipeline_is_bit_reproducible(tmp_path, tiny_pipeline):
    config, root = tiny_pipeline
    train_pipeline(config, tmp_path)
    for name in CHECKPOINTS:
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes(), name


def test_perfbench_tracer_reads_every_training_loss(tmp_path, tiny_pipeline,
                                                    monkeypatch):
    # perfbench's traced run prints the last loss each training loop returns
    # and indexes the list it read: a loss its tracer cannot read would stop
    # that run
    tracing = load_perfbench("tracing", monkeypatch)
    tracer = tracing.install(tracing.Tracer())
    try:
        train_pipeline(tiny_pipeline[0], tmp_path)
    finally:
        tracer.uninstall()
    observed = tracer.observed[None]
    losses = {k: v for k, v in observed.items() if k.startswith("loss.")}
    assert tracer.missing == [] and "unreadable" not in observed
    assert sorted(losses) == ["loss.distill_cfg", "loss.distill_meanflow",
                              "loss.train_base", "loss.train_predictor"]
    assert all(len(v) == 1 and math.isfinite(v[0]) for v in losses.values())


def test_missing_checkpoint_exits_3(tmp_path, capsys):
    assert main(["distill-cfg", "--checkpoint", str(tmp_path / "none.fck"),
                 "--out", str(tmp_path)]) == EXIT_LINEAGE
    assert "cannot read" in capsys.readouterr().err


def test_digest_corrupted_checkpoint_exits_3(tmp_path, tiny_pipeline, capsys):
    config, root = tiny_pipeline
    broken = tmp_path / "base.fck"
    blob = bytearray((root / "base.fck").read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    broken.write_bytes(bytes(blob))
    assert main(["distill-cfg", "--config", str(config), "--checkpoint",
                 str(broken), "--out", str(tmp_path)]) == EXIT_LINEAGE
    assert "digest mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command,given,message", [
    ("distill-cfg", ["meanflow.fck"],
     "expected a BASE_FM checkpoint, found MEANFLOW"),
    ("distill-meanflow", ["base.fck"],
     "expected a CFG_DISTILLED checkpoint, found BASE_FM"),
    ("train-predictor", ["predictor.fck"],
     "expected a MEANFLOW checkpoint, found PREDICTOR"),
    ("bench", ["cfg.fck"],
     "expected a MEANFLOW checkpoint, found CFG_DISTILLED"),
    ("bench", ["meanflow.fck", "cfg.fck"],
     "expected a PREDICTOR checkpoint, found CFG_DISTILLED"),
])
def test_wrong_stage_checkpoint_exits_3(tmp_path, tiny_pipeline, capsys,
                                        command, given, message):
    config, root = tiny_pipeline
    checkpoints = [arg for name in given
                   for arg in ("--checkpoint", str(root / name))]
    assert main([command, "--config", str(config), "--out", str(tmp_path),
                 *checkpoints]) == EXIT_LINEAGE
    assert message in capsys.readouterr().err


def test_predictor_of_another_meanflow_exits_3(tmp_path, tiny_pipeline, capsys):
    config, root = tiny_pipeline
    assert main(["distill-meanflow", "--config", str(config), "--seed", "1",
                 "--checkpoint", str(root / "cfg.fck"),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "meanflow.fck").read_bytes() != \
        (root / "meanflow.fck").read_bytes()
    assert main(["bench", "--config", str(config), "--out", str(tmp_path),
                 "--checkpoint", str(tmp_path / "meanflow.fck"),
                 "--checkpoint", str(root / "predictor.fck")]) == EXIT_LINEAGE
    assert "parent digest does not match" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


def test_metrics_row_schema(tmp_path, tiny_pipeline):
    # 550 points per class: each class samples a 512-row and a 38-row chunk,
    # and the cache peak is the larger chunk's
    config, root = tiny_pipeline
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({**TINY_CONFIG, "metric_samples": 1100}))
    assert main(["bench", "--config", str(wide), "--out", str(tmp_path),
                 *checkpoint_args(root)]) == EXIT_OK
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cfg = load_config(wide)
    one_entry = 512 * cfg.distribution.dim * 8 + 16
    peaks = {"none": 0, "naive": one_entry,
             "taylor": (cfg.taylor_order + 1) * one_entry,
             "learned": one_entry}
    assert [row["strategy"] for row in rows] == list(peaks)
    for row in rows:
        full, predicted = int(row["full_evals"]), int(row["predictor_evals"])
        assert row["full_evals"] == str(full)
        assert row["predictor_evals"] == str(predicted)
        assert full + predicted == cfg.schedule.total_steps
        for column in ("w2", "energy_distance"):
            value = float(row[column])
            assert math.isfinite(value) and value >= 0, column
        assert float(row["wall_clock_ms"]) > 0
        assert float(row["metric_ms"]) > 0
        assert row["cache_bytes_peak"] == str(peaks[row["strategy"]])


def test_bench_writes_metrics_csv(tmp_path, tiny_pipeline):
    config, root = tiny_pipeline
    assert main(["bench", "--config", str(config), "--out", str(tmp_path),
                 *checkpoint_args(root)]) == EXIT_OK
    with open(tmp_path / "metrics.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == METRICS_COLUMNS
    assert [row[1] for row in rows] == ["none", "naive", "taylor", "learned"]
    assert not list(tmp_path.glob("samples-*.csv"))


# the loaded model, trained on [1, 8], checks sample_cfg_scale: cfg_distill's
# range shapes only distill-cfg
@pytest.mark.parametrize("sections,code,message", [
    ({"cfg_distill": {**TINY_CONFIG["cfg_distill"], "g_min": 2.0},
      "sample_cfg_scale": 1.0}, EXIT_OK, ""),
    ({"sample_cfg_scale": 9.0}, EXIT_CONFIG,
     "invalid request: cfg_scale 9.0 outside [1.0, 8.0]"),
], ids=["inside-the-model-range", "outside-the-model-range"])
def test_bench_checks_sample_cfg_scale_against_the_loaded_model(
        tmp_path, tiny_pipeline, capsys, sections, code, message):
    _, root = tiny_pipeline
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, **sections}))
    out = tmp_path / "out"
    assert main(["bench", "--config", str(config), "--out", str(out),
                 *checkpoint_args(root)]) == code
    assert message in capsys.readouterr().err
    assert (out / "metrics.csv").exists() == (code == EXIT_OK)


def test_bench_refuses_metrics_csv_of_another_schema(tmp_path, tiny_pipeline,
                                                     capsys, monkeypatch):
    config, root = tiny_pipeline

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the metrics.csv header")

    monkeypatch.setattr(runner, "sample_strategies", no_sampling)
    old = tmp_path / "metrics.csv"
    old.write_text("run_id,strategy,full_evals,predictor_evals,w2,"
                   "energy_distance,wall_clock_ms,cache_bytes_peak\r\n"
                   "0:checkerboard:s20n2:none,none,20,0,0.5,0.1,12.5,0\r\n")
    before = old.read_bytes()
    assert main(["bench", "--config", str(config), "--out", str(tmp_path),
                 *checkpoint_args(root)]) == EXIT_CONFIG
    assert "expected ['run_id'" in capsys.readouterr().err
    assert old.read_bytes() == before


@pytest.mark.parametrize("content,message", [
    (b"\xffrun_id,strategy\r\n", "codec can't decode byte 0xff"),
    (b"x" * (csv.field_size_limit() + 1) + b"\r\n", "field larger than"),
], ids=["not-utf8", "field-over-limit"])
def test_bench_refuses_metrics_csv_it_cannot_read(tmp_path, tiny_pipeline,
                                                  capsys, monkeypatch,
                                                  content, message):
    config, root = tiny_pipeline

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the metrics.csv header")

    monkeypatch.setattr(runner, "sample_strategies", no_sampling)
    old = tmp_path / "metrics.csv"
    old.write_bytes(content)
    assert main(["bench", "--config", str(config), "--out", str(tmp_path),
                 *checkpoint_args(root)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot read the header of {old}" in err
    assert message in err
    assert "Traceback" not in err
    assert old.read_bytes() == content


def test_bench_of_non_finite_samples_exits_4(tmp_path, tiny_pipeline, capsys,
                                              monkeypatch):
    # before the check, scipy's solver raised ValueError, an undocumented exit.
    # On a pool of 2 the helper thread is still sampling the later strategies
    # when the first one's scoring fails; the run stops it.
    config, root = tiny_pipeline
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(runner, "_usable_cores", lambda: 2)
    sample = runner.sample_strategies

    def diverged(*args, **kwargs):
        with closing(sample(*args, **kwargs)) as runs:
            first = next(runs)
            first.samples[5, 0] = np.nan
            yield first
            yield from runs

    monkeypatch.setattr(runner, "sample_strategies", diverged)
    out = tmp_path / "out"
    out.mkdir()
    threads = threading.active_count()
    assert main(["bench", "--config", str(config), "--out", str(out),
                 *checkpoint_args(root)]) == EXIT_NUMERIC
    assert "non-finite samples" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert threading.active_count() == threads


def test_bench_of_overflowing_1d_samples_exits_4(tmp_path, capsys,
                                                 monkeypatch):
    # finite 1-D samples 1e200 out: their W2 read inf before the check
    config = tmp_path / "gaussian1d.json"
    config.write_text(json.dumps({**TINY_CONFIG,
                                  "distribution": {"kind": "gaussian1d"}}))
    train_pipeline(config, tmp_path)
    session = runner._run_session

    def far_out(*args):
        out, report = session(*args)
        return out * 1e200, report

    monkeypatch.setattr(runner, "_run_session", far_out)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["bench", "--config", str(config), "--out", str(out),
                 *checkpoint_args(tmp_path)]) == EXIT_NUMERIC
    assert "overflow float64" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sample_of_non_finite_samples_exits_4(tmp_path, tiny_pipeline, capsys,
                                               monkeypatch):
    # every forward refuses a non-finite x, so only a walk's last velocity
    # can carry an inf into the samples; `sample` wrote such cells, exit 0
    config, root = tiny_pipeline
    monkeypatch.setattr(runner, "_usable_cores", lambda: 1)
    forward = nets.VelocityModel.forward

    def inf_at_data(self, params, x, t, r=None, *args, **kwargs):
        out = forward(self, params, x, t, r, *args, **kwargs)
        return np.full_like(out, np.inf) if r == 0.0 else out

    monkeypatch.setattr(nets.VelocityModel, "forward", inf_at_data)
    assert main(["sample", "--config", str(config), "--out", str(tmp_path),
                 *checkpoint_args(root)]) == EXIT_NUMERIC
    assert ("strategy 'none' produced non-finite samples"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_sample_writes_samples_and_no_metrics(tmp_path, tiny_pipeline, capsys):
    config, root = tiny_pipeline
    assert main(["sample", "--config", str(config), "--out", str(tmp_path),
                 *checkpoint_args(root)]) == EXIT_OK
    assert not (tmp_path / "metrics.csv").exists()
    dumps = sorted(tmp_path.glob("samples-*.csv"))
    assert len(dumps) == 4
    for path in dumps:
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["x0", "x1"] and len(rows) == 64
    out = capsys.readouterr().out
    assert "nfe=20+0" in out and "nfe=13+7" in out


def test_sample_cells_are_the_sampled_floats(tmp_path, tiny_pipeline):
    # each cell parses with float() and gives back the sample bit for bit
    config, root = tiny_pipeline
    assert main(["sample", "--config", str(config), "--out", str(tmp_path),
                 *checkpoint_args(root)]) == EXIT_OK
    runs = list(runner.sample_strategies(load_config(config),
                                         runner.load_sampler(
                                             root / "meanflow.fck",
                                             root / "predictor.fck")))
    assert len(runs) == 4
    for run in runs:
        path = tmp_path / f"samples-{run.run_id.replace(':', '-')}.csv"
        with open(path, newline="") as fh:
            _, *rows = list(csv.reader(fh))
        cells = np.array([[float(cell) for cell in row] for row in rows])
        assert np.array_equal(cells, run.samples), run.strategy


def _pop_entry(key):
    return lambda ckpt: ckpt.config.pop(key)


def _set_entry(key, value):
    return lambda ckpt: ckpt.config.update({key: value})


def _set_field(key, field, value):
    return lambda ckpt: ckpt.config[key].update({field: value})


def _pop_field(key, field):
    return lambda ckpt: ckpt.config[key].pop(field)


def _pop_tensor(name):
    return lambda ckpt: ckpt.params.entries.pop(name)


def _set_tensor(name, shape):
    return lambda ckpt: ckpt.params.entries.update({name: np.zeros(shape)})


# (command, the checkpoint it reads that is resealed after the edit, edit,
#  what the message must name); each command reads that file before any
# lineage check could reject it
RESEALED = {
    "velocity-missing": ("distill-cfg", "base.fck", _pop_entry("velocity"),
                         "snapshot entry 'velocity' is missing"),
    "velocity-not-object": ("distill-meanflow", "cfg.fck",
                            _set_entry("velocity", [16, 2]),
                            "snapshot entry 'velocity' is missing or not an "
                            "object"),
    "velocity-unknown-field": ("distill-cfg", "base.fck",
                               _set_field("velocity", "widht", 16),
                               "snapshot entry 'velocity' has fields"),
    "velocity-missing-field": ("distill-meanflow", "cfg.fck",
                               _pop_field("velocity", "cfg_features"),
                               "snapshot entry 'velocity' has fields"),
    "velocity-wrong-type": ("train-predictor", "meanflow.fck",
                            _set_field("velocity", "hidden_dim", "16"),
                            "'velocity': hidden_dim must be an integer"),
    "velocity-out-of-range": ("sample", "meanflow.fck",
                              _set_field("velocity", "depth", 0),
                              "'velocity': depth must be >= 1"),
    "cfg-missing": ("distill-meanflow", "cfg.fck", _pop_entry("cfg"),
                    "snapshot entry 'cfg' is missing"),
    "cfg-unknown-field": ("distill-meanflow", "cfg.fck",
                          _set_field("cfg", "g_mid", 2.0),
                          "snapshot entry 'cfg' has fields"),
    "distribution-missing": ("distill-cfg", "base.fck",
                             _pop_entry("distribution"),
                             "snapshot entry 'distribution' is missing"),
    "distribution-unknown-field": ("bench", "meanflow.fck",
                                   _set_field("distribution", "kindd",
                                              "two_moons"),
                                   "snapshot entry 'distribution' has fields"),
    "distribution-bad-kind": ("sample", "predictor.fck",
                              _set_field("distribution", "kind", "spiral"),
                              "'distribution': unknown distribution kind "
                              "'spiral'"),
    "restrict-missing": ("train-predictor", "meanflow.fck",
                         _pop_entry("restrict"),
                         "snapshot entry 'restrict' is missing"),
    "restrict-wrong-type": ("train-predictor", "meanflow.fck",
                            _set_field("restrict", "restrict_factor", True),
                            "'restrict': restrict_factor must be a finite "
                            "number"),
    "restrict-nan": ("train-predictor", "meanflow.fck",
                     _set_field("restrict", "restrict_factor", float("nan")),
                     "'restrict': restrict_factor must be a finite number, "
                     "got nan"),
    "predictor-missing": ("bench", "predictor.fck", _pop_entry("predictor"),
                          "snapshot entry 'predictor' is missing"),
    "predictor-unknown-field": ("bench", "predictor.fck",
                                _set_field("predictor", "width", 2),
                                "snapshot entry 'predictor' has fields"),
    "predictor-over-budget": ("bench", "predictor.fck",
                              _set_field("predictor", "hidden_dim", 64),
                              "snapshot entry 'predictor': predictor has "
                              "30794 parameters, over the 4% budget"),
    "predictor-wrong-type": ("sample", "predictor.fck",
                             _set_field("predictor", "depth", 1.5),
                             "'predictor': depth must be an integer"),
    "tensor-missing": ("sample", "meanflow.fck", _pop_tensor("time_t.w"),
                       "tensor 'time_t.w' has shape None, the snapshot's "
                       "VelocityModel expects (4, 16)"),
    "tensor-unknown": ("distill-cfg", "base.fck",
                       _set_tensor("time_r.w", (4, 16)),
                       "tensor 'time_r.w' has shape (4, 16), the snapshot's "
                       "VelocityModel expects None"),
    "tensor-shape": ("distill-meanflow", "cfg.fck",
                     _set_tensor("out.b", (3,)),
                     "tensor 'out.b' has shape (3,), the snapshot's "
                     "VelocityModel expects (2,)"),
    "tensors-of-another-model": ("train-predictor", "meanflow.fck",
                                 _set_field("velocity", "hidden_dim", 8),
                                 "the snapshot's VelocityModel expects (8,)"),
    "delta-max-string": ("sample", "predictor.fck",
                         _set_entry("delta_max", "x"),
                         "snapshot entry 'delta_max': delta_max must be a "
                         "finite number, got 'x'"),
    "delta-max-inf": ("bench", "predictor.fck",
                      _set_entry("delta_max", float("inf")),
                      "snapshot entry 'delta_max': delta_max must be a "
                      "finite number, got inf"),
    "delta-max-bool": ("bench", "predictor.fck", _set_entry("delta_max", True),
                       "snapshot entry 'delta_max': delta_max must be a "
                       "finite number, got True"),
    "delta-max-negative": ("sample", "predictor.fck",
                           _set_entry("delta_max", -1),
                           "snapshot entry 'delta_max': delta_max must lie "
                           "in (0, 1]"),
    "predictor-tensor-shape": ("bench", "predictor.fck",
                               _set_tensor("input.w", (4, 3)),
                               "tensor 'input.w' has shape (4, 3), the "
                               "snapshot's Predictor expects (4, 2)"),
}


def _resealed_exits_3(command, resealed, message, config, root, tmp_path,
                      capsys):
    """Run `command` on the resealed file in place of its namesake in root
    and check that the reader rejects it (exit 3) with `message`."""
    name = resealed.name
    given = ([resealed] if command in ("distill-cfg", "distill-meanflow",
                                       "train-predictor")
             else [tmp_path / n if n == name else root / n
                   for n in ("meanflow.fck", "predictor.fck")])
    checkpoints = [arg for path in given for arg in ("--checkpoint", str(path))]
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out),
                 *checkpoints]) == EXIT_LINEAGE
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint error: {resealed}: ")
    assert message in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", sorted(RESEALED))
def test_resealed_snapshot_mismatch_exits_3(tmp_path, tiny_pipeline, capsys,
                                            case):
    # the file is rewritten with a valid digest, so only the reader's checks
    # of its snapshot and tensors can reject it
    command, name, edit, message = RESEALED[case]
    config, root = tiny_pipeline
    ckpt = load_checkpoint(root / name)
    edit(ckpt)
    resealed = tmp_path / name
    save_checkpoint(resealed, ckpt)
    _resealed_exits_3(command, resealed, message, config, root, tmp_path,
                      capsys)


@pytest.mark.parametrize("command,name", [("distill-cfg", "base.fck"),
                                          ("sample", "meanflow.fck"),
                                          ("bench", "predictor.fck")])
def test_resealed_tensor_of_overflowing_extents_exits_3(
        tmp_path, tiny_pipeline, capsys, command, name):
    # extents (2^32 - 1, 2^32 - 1) count more entries than an int64 holds;
    # the file has no data for them, so the count must read as truncation
    config, root = tiny_pipeline
    ckpt = load_checkpoint(root / name)
    _set_tensor("out.b", (0, 0))(ckpt)
    resealed = tmp_path / name
    save_checkpoint(resealed, ckpt)
    body = resealed.read_bytes()[:-32]
    empty = b"\x05\x00out.b\x02" + b"\x00" * 8
    assert body.count(empty) == 1
    body = body.replace(empty, b"\x05\x00out.b\x02" + b"\xff" * 8)
    resealed.write_bytes(body + hashlib.sha256(body).digest())
    _resealed_exits_3(command, resealed, "truncated checkpoint", config, root,
                      tmp_path, capsys)


# Runs the CLI in one fresh interpreter and reports, after each command,
# its exit code and which scipy packages the process has imported, and
# whether the heap was pinned before the first command and after it.
FOOTPRINT = """
import json, sys
from flowcache.cli import _pin_heap, main

config, root, config_2d, root_2d = sys.argv[1:]
common = ["--config", config, "--out", root]
pair = ["--checkpoint", root + "/meanflow.fck",
        "--checkpoint", root + "/predictor.fck"]
commands = [
    ("train-base", ["train-base", *common]),
    ("distill-cfg", ["distill-cfg", *common, "--checkpoint", root + "/base.fck"]),
    ("distill-meanflow", ["distill-meanflow", *common,
                          "--checkpoint", root + "/cfg.fck"]),
    ("train-predictor", ["train-predictor", *common,
                         "--checkpoint", root + "/meanflow.fck"]),
    ("sample", ["sample", *common, *pair]),
    ("bench", ["bench", *common, *pair]),
    ("bench-2d", ["bench", "--config", config_2d, "--out", root + "/bench-2d",
                  "--checkpoint", root_2d + "/meanflow.fck",
                  "--checkpoint", root_2d + "/predictor.fck"]),
]
loaded = {"pinned": [_pin_heap.cache_info().currsize]}
for name, argv in commands:
    loaded[name] = [main(argv)] + sorted(
        m for m in ("scipy.special", "scipy.optimize", "scipy.spatial")
        if m in sys.modules)
    loaded["pinned"].append(_pin_heap.cache_info().currsize)
print(json.dumps(loaded))
"""


def test_no_command_imports_a_scipy_package_and_main_pins_the_heap(
        tmp_path, tiny_pipeline):
    config_2d, root_2d = tiny_pipeline
    config = tmp_path / "line.json"
    config.write_text(json.dumps(
        {**TINY_CONFIG, "distribution": {"kind": "gaussian1d"}}))
    src = Path(flowcache.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(config), str(tmp_path),
         str(config_2d), str(root_2d)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded.pop("pinned") == [0] + [1] * 7
    assert loaded == {name: [EXIT_OK] for name in (
        "train-base", "distill-cfg", "distill-meanflow", "train-predictor",
        "sample", "bench", "bench-2d")}


class _Mallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_heap_pin_sets_both_thresholds(monkeypatch):
    libc = type("Libc", (), {"mallopt": _Mallopt()})()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._pin_heap.__wrapped__()
    assert libc.mallopt.calls == [(-3, 32 << 20), (-1, 1 << 30)]


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [lambda name: object(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_heap_pin_is_quiet_without_mallopt(monkeypatch, libc):
    monkeypatch.setattr(cli.ctypes, "CDLL", libc)
    assert cli._pin_heap.__wrapped__() is None
