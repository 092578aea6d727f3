"""Output checks. Each returns (op name, message) pairs; a failed check
counts the op it names as failed."""

from __future__ import annotations

import math

from workloads import FIXTURE_FULL, STRATEGIES, TOTAL_STEPS, Workload

# The training command that writes each checkpoint file.
DIGEST_OP = {"base.fck": "train_base", "cfg.fck": "distill_cfg",
             "meanflow.fck": "distill_meanflow",
             "predictor.fck": "train_predictor",
             "discriminator.fck": "train_predictor"}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_exit_codes(ops) -> list[tuple[str, str]]:
    out = []
    for op in ops:
        if op["rc"] != 0:
            detail = f": {op['error'].strip().splitlines()[-1]}" if op.get("error") else ""
            out.append((op["name"], f"exit code {op['rc']}{detail}"))
    return out


def check_bench_rows(op: str, n: int, rows: dict) -> list[tuple[str, str]]:
    """NFE split and finiteness of one bench call's metrics.csv rows."""
    out = []
    for strategy in STRATEGIES:
        row = rows.get(strategy)
        if row is None:
            out.append((op, f"no result for strategy {strategy}"))
            continue
        full, pred = row["full_evals"], row["predictor_evals"]
        want = TOTAL_STEPS if strategy == "none" else FIXTURE_FULL[n]
        if full + pred != TOTAL_STEPS:
            out.append((op, f"{strategy}: {full}+{pred} evaluations, "
                            f"expected {TOTAL_STEPS} steps"))
        if full != want:
            out.append((op, f"{strategy}: {full} full evaluations, expected {want}"))
        for key in ("w2", "energy_distance"):
            if not _finite(row[key]):
                out.append((op, f"{strategy}: non-finite {key} {row[key]}"))
    return out


def check_quality(op: str, rows: dict, noise: float) -> list[tuple[str, str]]:
    """`none` samples must be closer to the target than the starting noise."""
    none = rows.get("none")
    if none is None:
        return []  # reported by check_bench_rows
    if not none["energy_distance"] < noise:
        return [(op, f"none: energy distance {none['energy_distance']:.5f} "
                     f"is not below the noise's {noise:.5f}")]
    return []


def check_trace(ops, trace: dict) -> list[tuple[str, str]]:
    """Checks on what the traced wrappers saw: finite samples and metric
    values, per-walk NFE splits, and the lineage check in every bench call."""
    out = []
    for op in ops:
        if op["stage"] != "bench":
            continue
        seen = trace["observed"].get(op["name"], {})
        if not all(seen.get("samples_finite", [])):
            out.append((op["name"], "non-finite samples"))
        for strategy, full, pred, _ in seen.get("nfe", []):
            if full + pred != TOTAL_STEPS or full != FIXTURE_FULL[op["n"]]:
                out.append((op["name"], f"{strategy} walk: {full}+{pred} "
                                        f"evaluations"))
        for key in ("w2", "energy"):
            if not all(_finite(v) for v in seen.get(key, [])):
                out.append((op["name"], f"non-finite {key}"))
        if ("checkpoint.verify_parent" not in trace["missing"]
                and not seen.get("verify_parent")):
            out.append((op["name"], "predictor lineage was not checked"))
    return out


def check_record(record: dict, workload: Workload) -> list[tuple[str, str]]:
    ops = record.get("ops", [])
    out = check_exit_codes(ops)
    if any(w != 1 for w in record.get("workers", [])):
        out += [(op["name"], f"workers {record['workers']}, expected 1") for op in ops]
    outputs = record.get("outputs", {})
    for op in ops:
        if op["stage"] != "bench":
            continue
        rows = outputs.get("bench", {}).get(op["name"], {})
        out += check_bench_rows(op["name"], op["n"], rows)
        if outputs.get("lineage_error"):
            out.append((op["name"], f"lineage: {outputs['lineage_error']}"))
        if workload.quality_check:
            out += check_quality(op["name"], rows, outputs["noise_energy"])
    if "trace" in record:
        out += check_trace(ops, record["trace"])
    return out


def fingerprint(record: dict) -> dict[tuple[str, str], object]:
    """Everything a same-seed repeat must reproduce bit for bit, keyed by
    (op, item): checkpoint digests and every bench row."""
    outputs = record.get("outputs", {})
    fp = {}
    for name, digest in outputs.get("digests", {}).items():
        fp[(DIGEST_OP.get(name, name), f"digest {name}")] = digest
    for op, rows in outputs.get("bench", {}).items():
        for strategy, row in rows.items():
            fp[(op, f"{strategy} row")] = tuple(sorted(row.items()))
    return fp


def check_reproducible(first: dict, repeat: dict) -> list[tuple[str, str]]:
    """A same-seed repeat must match the first record's fingerprint."""
    base, fp = fingerprint(first), fingerprint(repeat)
    return [(key[0], f"not reproducible: {key[1]} differs from the first repeat")
            for key in sorted(base.keys() | fp.keys()) if base.get(key) != fp.get(key)]
