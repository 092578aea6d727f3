import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import report

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec_file():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_the_code_prints(spec_file):
    assert [(m["name"], m["unit"], m["better"]) for m in spec_file["end_to_end"]] \
        == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec_file["per_layer"]] \
        == list(report.PER_LAYER)


def test_benchmark_json_names_and_units_are_well_formed(spec_file):
    names = [m["name"] for m in spec_file["end_to_end"] + spec_file["per_layer"]]
    names += [w["name"] for w in spec_file["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec_file["end_to_end"] + spec_file["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in spec_file["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec_file["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec_file["end_to_end"])


def untraced_record(walls=(2.0, 3.0), rss=100.0):
    names = ("train_base", "distill_cfg")
    return {"peak_rss_mb": rss, "ops": [
        {"name": n, "stage": "train", "samples": 600, "wall_s": w}
        for n, w in zip(names, walls)]}


def test_end_to_end_medians_and_failed_ops():
    repeats = [untraced_record((2.0, 3.0), 100.0), untraced_record((1.0, 2.0), 110.0),
               untraced_record((2.0, 4.0), 120.0)]
    out = report.end_to_end(repeats, [set(), set(), {"distill_cfg"}], [0.5, 0.7, 0.6])
    assert out["setup_s"] == 0.6
    assert out["peak_rss_mb"] == 110.0
    # totals 1200/5, 1200/3 and (failed op dropped) 600/2
    assert out["samples_per_s"] == pytest.approx(300.0)
    assert out["train_base.samples_per_s"] == pytest.approx(300.0)
    assert out["distill_cfg.samples_per_s"] == pytest.approx((200.0 + 300.0) / 2)
    assert out["bench.samples_per_s"] == 0.0


def test_result_line_schema():
    for spec in (report.END_TO_END, report.PER_LAYER):
        line = report.result_line(True, 4, 0, {}, spec)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [name for name, _, _ in spec]
        for (name, unit, _), metric in zip(spec, line["metrics"].values()):
            assert metric == {"value": 0.0, "unit": unit}
        json.loads(json.dumps(line))


def test_per_layer_reports_every_metric_from_a_trace():
    summary = {name: {"calls": 3, "self_s": 0.5, "p50_ms": 1.0, "p95_ms": 2.0}
               for name in ("autodiff.backward", "cache.cached_sample.naive",
                            "runner.run_experiment", "runner._run_session")}
    summary["runner._run_session"]["calls"] = 12
    summary["runner.run_experiment"]["calls"] = 3
    trace = {"summary": summary, "missing": ["nets.Predictor.forward"], "spans": 21,
             "observed": {"bench_n2": {"nfe": [("naive", 13, 7, 8208),
                                                ("naive", 13, 7, 8208)],
                                       "checkpoint_bytes": [10, 20]}}}
    untraced = {"samples_per_s": 200.0, "setup_s": 0.5, "peak_rss_mb": 100.0,
                "bench.samples_per_s": 200.0}
    traced = {"samples_per_s": 150.0, "setup_s": 0.6, "peak_rss_mb": 101.0}
    out = report.per_layer(trace, untraced, traced)
    assert list(out) == [name for name, _, _ in report.PER_LAYER]
    assert all(isinstance(v, float) and math.isfinite(v) for v in out.values())
    assert out["cache.cached_sample.self_s"] == 0.5
    assert out["cache.reuse_ratio.naive"] == pytest.approx(0.35)
    assert out["cache.full_evals.taylor"] == 0.0
    assert out["runner.sessions"] == 4.0
    assert out["checkpoint.bytes"] == 30.0
    assert out["trace_overhead.samples_per_s"] == pytest.approx(200.0 / 150.0)
    assert out["trace_overhead.setup_s"] == pytest.approx(1.2)
    assert out["trace.missing"] == 1.0
    assert out["bench.samples_per_s"] == 200.0


def test_reason_share():
    trace = {"summary": {"metrics.w2_distance": {"self_s": 6.0},
                         "nets.VelocityModel.forward.raw": {"self_s": 1.0}}}
    ops = [{"wall_s": 10.0}]
    assert report.reason_share("bench", trace, ops) == (0.6, True)
    assert report.reason_share("sweep-1d", trace, ops) == (0.1, False)
    assert report.reason_share("train", trace, ops) == (0.6, False)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "src/flowcache" in done.stderr
