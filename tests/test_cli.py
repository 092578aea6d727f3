"""CLI exit codes and outputs: the verify battery, config and checkpoint
errors, and the files bench and sample write."""

import csv
import json

from flowcache.cli import EXIT_CONFIG, EXIT_LINEAGE, EXIT_OK, main
from flowcache.runner import METRICS_COLUMNS


def checkpoint_args(root):
    return ["--checkpoint", str(root / "meanflow.fck"),
            "--checkpoint", str(root / "predictor.fck")]


def test_verify_battery_passes(capsys):
    assert main(["verify"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("[  ok]") for line in lines)


def test_unknown_model_key_exits_2(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"model": {"hiden_dim": 8}}))
    assert main(["train-base", "--config", str(config),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


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


def test_bench_writes_metrics_csv(tmp_path, tiny_pipeline):
    config, root = tiny_pipeline
    assert main(["bench", "--config", str(config), "--out", str(tmp_path),
                 *checkpoint_args(root)]) == EXIT_OK
    with open(tmp_path / "metrics.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == METRICS_COLUMNS
    assert [row[1] for row in rows] == ["none", "naive", "taylor", "learned"]
    assert not list(tmp_path.glob("samples-*.csv"))


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
