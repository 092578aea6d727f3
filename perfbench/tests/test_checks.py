import copy
import math

import checks
import workloads


def bench_rows(n=2):
    full = workloads.FIXTURE_FULL[n]
    rows = {"none": {"full_evals": 20, "predictor_evals": 0, "w2": 0.16,
                     "energy_distance": 0.02, "cache_bytes_peak": 0}}
    for s in ("naive", "taylor", "learned"):
        rows[s] = {"full_evals": full, "predictor_evals": 20 - full, "w2": 0.15,
                   "energy_distance": 0.02, "cache_bytes_peak": 4112}
    return rows


def bench_record(n=2, traced=False):
    op = {"name": f"bench_n{n}", "stage": "bench", "n": n, "samples": 16384,
          "rc": 0, "error": None, "wall_s": 3.5}
    record = {"mode": "repeat", "workers": [1], "ops": [op],
              "outputs": {"bench": {op["name"]: bench_rows(n)},
                          "lineage_error": None, "noise_energy": 0.24}}
    if traced:
        full = workloads.FIXTURE_FULL[n]
        record["trace"] = {"missing": [], "observed": {op["name"]: {
            "samples_finite": [True] * 4, "w2": [0.1] * 4, "energy": [0.02] * 4,
            "verify_parent": [1],
            "nfe": [(s, full, 20 - full, 4112) for s in ("naive", "taylor")]}}}
    return record


def train_record():
    ops = [{"name": name, "stage": "train", "n": None, "samples": 1, "rc": 0,
            "error": None, "wall_s": 1.0}
           for name in ("train_base", "distill_cfg", "distill_meanflow",
                        "train_predictor")]
    digests = {name: f"{k:064x}" for k, name in enumerate(checks.DIGEST_OP)}
    return {"mode": "repeat", "workers": [1], "ops": ops,
            "outputs": {"digests": digests}}


BENCH = workloads.WORKLOADS["bench"]
SWEEP = workloads.WORKLOADS["sweep-1d"]


def test_clean_records_pass():
    assert checks.check_record(bench_record(traced=True), BENCH) == []
    assert checks.check_record(bench_record(n=4), SWEEP) == []
    assert checks.check_record(train_record(), workloads.WORKLOADS["train"]) == []


def test_nonzero_exit_code_fails_the_op():
    record = train_record()
    record["ops"][2]["rc"] = 3
    assert checks.check_record(record, workloads.WORKLOADS["train"]) == [
        ("distill_meanflow", "exit code 3")]


def test_nfe_mismatch_fires():
    record = bench_record(n=3)
    record["outputs"]["bench"]["bench_n3"]["taylor"]["full_evals"] = 12
    failures = checks.check_record(record, SWEEP)
    assert {op for op, _ in failures} == {"bench_n3"}
    assert any("12 full evaluations, expected 11" in m for _, m in failures)
    assert any("12+9" in m for _, m in failures)


def test_none_must_make_twenty_full_evaluations():
    record = bench_record()
    record["outputs"]["bench"]["bench_n2"]["none"].update(
        full_evals=13, predictor_evals=7)
    assert checks.check_record(record, BENCH) == [
        ("bench_n2", "none: 13 full evaluations, expected 20")]


def test_missing_strategy_fires():
    record = bench_record()
    del record["outputs"]["bench"]["bench_n2"]["learned"]
    assert checks.check_record(record, BENCH) == [
        ("bench_n2", "no result for strategy learned")]


def test_non_finite_value_fires():
    record = bench_record()
    record["outputs"]["bench"]["bench_n2"]["naive"]["w2"] = math.nan
    assert [op for op, _ in checks.check_record(record, BENCH)] == ["bench_n2"]


def test_traced_non_finite_samples_and_walk_counts_fire():
    record = bench_record(traced=True)
    seen = record["trace"]["observed"]["bench_n2"]
    seen["samples_finite"][1] = False
    seen["nfe"].append(("learned", 12, 8, 4112))
    seen["energy"].append(math.inf)
    messages = [m for _, m in checks.check_record(record, BENCH)]
    assert messages == ["non-finite samples", "learned walk: 12+8 evaluations",
                        "non-finite energy"]


def test_unchecked_lineage_fires():
    record = bench_record(traced=True)
    record["trace"]["observed"]["bench_n2"]["verify_parent"] = []
    assert checks.check_record(record, BENCH) == [
        ("bench_n2", "predictor lineage was not checked")]
    record["trace"]["missing"] = ["checkpoint.verify_parent"]
    assert checks.check_record(record, BENCH) == []
    record["outputs"]["lineage_error"] = "LineageError: parent digest"
    assert checks.check_record(record, BENCH) == [
        ("bench_n2", "lineage: LineageError: parent digest")]


def test_quality_check_fires_when_samples_are_no_better_than_noise():
    record = bench_record()
    record["outputs"]["noise_energy"] = 0.01
    assert [op for op, _ in checks.check_record(record, SWEEP)] == ["bench_n2"]
    assert checks.check_record(record, BENCH) == []  # no quality check there


def test_workers_other_than_one_fail_every_op():
    record = train_record()
    record["workers"] = [2]
    assert len(checks.check_record(record, workloads.WORKLOADS["train"])) == 4


def test_digest_mismatch_fires_on_the_op_that_wrote_it():
    first = train_record()
    repeat = copy.deepcopy(first)
    assert checks.check_reproducible(first, repeat) == []
    repeat["outputs"]["digests"]["cfg.fck"] = "0" * 64
    assert checks.check_reproducible(first, repeat) == [
        ("distill_cfg", "not reproducible: digest cfg.fck differs from the first repeat")]


def test_quality_value_mismatch_fires():
    first = bench_record()
    repeat = copy.deepcopy(first)
    repeat["outputs"]["bench"]["bench_n2"]["taylor"]["energy_distance"] += 1e-16
    assert [op for op, _ in checks.check_reproducible(first, repeat)] == ["bench_n2"]
