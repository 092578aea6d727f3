"""Metric definitions and how they are computed from the run records.

END_TO_END and PER_LAYER are the metric lists of BENCHMARK.json, in order
(a test keeps the two in step). End-to-end metrics come from untraced
repeats only; per-layer metrics come from the traced repeat, apart from the
stage throughputs, which are read from the untraced repeat of a traced run.
"""

from __future__ import annotations

from statistics import median

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("samples_per_s", "1/s", "higher"),
)

STAGES = ("train_base", "distill_cfg", "distill_meanflow", "train_predictor", "bench")
CACHED = ("naive", "taylor", "learned")

_FIELD_UNITS = {"calls": "count", "p50_ms": "ms", "p95_ms": "ms", "self_s": "s"}

# Span name -> fields read from its trace summary.
SPAN_FIELDS = (
    ("autodiff.backward", ("calls", "p50_ms", "self_s")),
    ("nets.VelocityModel.forward.graph", ("calls", "self_s")),
    ("nets.VelocityModel.forward.raw", ("calls", "p50_ms", "self_s")),
    ("nets.Predictor.forward", ("calls", "self_s")),
    ("nets.Discriminator.forward", ("calls", "self_s")),
    ("optim.adam_step", ("calls", "p50_ms", "self_s")),
    ("flow.train_base", ("self_s",)),
    ("flow.mean_velocity_sample", ("calls", "p50_ms")),
    ("distill.cfg_distill_step", ("calls", "p50_ms", "p95_ms")),
    ("distill.meanflow_distill_step", ("calls", "p50_ms", "p95_ms")),
    ("distill.train_cfg", ("self_s",)),
    ("distill.train_meanflow", ("self_s",)),
    ("predictor_train.build_training_pair", ("calls", "p50_ms")),
    ("predictor_train.predictor_mse_step", ("calls", "p50_ms")),
    ("predictor_train.gan_step", ("calls", "p50_ms")),
    *((f"cache.cached_sample.{s}", ("p50_ms",)) for s in CACHED),
    ("metrics.w2_distance", ("calls", "p50_ms", "self_s")),
    ("metrics.energy_distance", ("calls", "p50_ms", "self_s")),
    ("checkpoint.save_checkpoint", ("calls", "p50_ms")),
    ("checkpoint.load_checkpoint", ("calls", "p50_ms")),
    ("runner.run_experiment", ("self_s",)),
)

# Self time summed over several spans.
SELF_GROUPS = {
    "cache.cached_sample.self_s": tuple(f"cache.cached_sample.{s}" for s in CACHED),
    "runner.stage.self_s": ("runner.run_train_base", "runner.run_distill_cfg",
                            "runner.run_distill_meanflow",
                            "runner.run_train_predictor"),
}

PER_LAYER = (
    *((f"{span}.{f}", _FIELD_UNITS[f], "lower")
      for span, fields in SPAN_FIELDS for f in fields),
    *((name, "s", "lower") for name in SELF_GROUPS),
    *((f"cache.{key}.{s}", unit, "lower") for key, unit in
      (("full_evals", "count"), ("predictor_evals", "count"),
       ("cache_bytes_peak", "B")) for s in CACHED),
    *((f"cache.reuse_ratio.{s}", "ratio", "higher") for s in CACHED),
    ("checkpoint.bytes", "B", "lower"),
    ("runner.sessions", "count", "lower"),
    *((f"{stage}.samples_per_s", "1/s", "higher") for stage in STAGES),
    *((f"trace_overhead.{name}", "ratio", "lower") for name, _, _ in END_TO_END),
    ("trace.missing", "count", "lower"),
    ("trace.spans", "count", "lower"),
)

# Why each workload exists, as a check on the traced run: the spans whose
# self time must be the majority of the timed wall time, or must be absent.
REASONS = {
    "train": ("absent", ("metrics.", "cache.")),
    "bench": ("majority", ("metrics.w2_distance",)),
    "sweep-1d": ("majority", ("cache.", "flow.mean_velocity_sample",
                              "nets.VelocityModel.forward.raw",
                              "nets.Predictor.forward")),
}


def throughputs(record: dict, failed: set[str]) -> dict[str, float]:
    """Samples per second over the ops that succeeded: in total and per
    stage (bench ops pooled)."""
    samples, walls = {}, {}
    for op in record.get("ops", []):
        if op["name"] in failed:
            continue
        stage = op["name"] if op["stage"] == "train" else "bench"
        for key in ("samples_per_s", f"{stage}.samples_per_s"):
            samples[key] = samples.get(key, 0) + op["samples"]
            walls[key] = walls.get(key, 0.0) + op["wall_s"]
    return {k: samples[k] / walls[k] for k in samples if walls[k] > 0}


def end_to_end(repeats: list[dict], failed: list[set[str]],
               setups: list[float]) -> dict[str, float]:
    """Medians over repeats (and over every set-up sample for setup_s).
    Stage throughputs are included; a metric no repeat measured is 0."""
    rates = [throughputs(r, f) for r, f in zip(repeats, failed)]
    out = {"setup_s": median(setups) if setups else 0.0,
           "peak_rss_mb": median(r.get("peak_rss_mb", 0.0) for r in repeats)
           if repeats else 0.0}
    for key in ["samples_per_s"] + [f"{s}.samples_per_s" for s in STAGES]:
        values = [r[key] for r in rates if key in r]
        out[key] = median(values) if values else 0.0
    return out


def per_layer(trace: dict, untraced: dict[str, float],
              traced: dict[str, float]) -> dict[str, float]:
    summary = trace["summary"]
    out = {}
    for span, fields in SPAN_FIELDS:
        s = summary.get(span, {})
        for f in fields:
            out[f"{span}.{f}"] = float(s.get(f, 0.0))
    for name, spans in SELF_GROUPS.items():
        out[name] = sum(summary.get(s, {}).get("self_s", 0.0) for s in spans)
    walks = {s: [] for s in CACHED}
    for seen in trace["observed"].values():
        for strategy, full, pred, peak in seen.get("nfe", []):
            walks.setdefault(strategy, []).append((full, pred, peak))
    for s in CACHED:
        w = walks[s]
        out[f"cache.full_evals.{s}"] = sum(x[0] for x in w) / len(w) if w else 0.0
        out[f"cache.predictor_evals.{s}"] = sum(x[1] for x in w) / len(w) if w else 0.0
        out[f"cache.cache_bytes_peak.{s}"] = float(max((x[2] for x in w), default=0))
        out[f"cache.reuse_ratio.{s}"] = (
            sum(x[1] / (x[0] + x[1]) for x in w) / len(w) if w else 0.0)
    out["checkpoint.bytes"] = float(sum(
        sum(seen.get("checkpoint_bytes", [])) for seen in trace["observed"].values()))
    experiments = summary.get("runner.run_experiment", {}).get("calls", 0)
    sessions = summary.get("runner._run_session", {}).get("calls", 0)
    out["runner.sessions"] = sessions / experiments if experiments else 0.0
    for stage in STAGES:
        out[f"{stage}.samples_per_s"] = untraced.get(f"{stage}.samples_per_s", 0.0)
    for name, _, better in END_TO_END:
        # slowdown factor: above 1 when tracing makes the metric worse
        num, den = traced.get(name, 0.0), untraced.get(name, 0.0)
        if better == "higher":
            num, den = den, num
        out[f"trace_overhead.{name}"] = num / den if den else 0.0
    out["trace.missing"] = float(len(trace["missing"]))
    out["trace.spans"] = float(trace["spans"])
    return {name: out[name] for name, _, _ in PER_LAYER}


def reason_share(workload: str, trace: dict, ops: list[dict]) -> tuple[float, bool]:
    """Share of the timed wall time spent (self) in the workload's reason
    spans, and whether that confirms the workload's stated reason."""
    rule, prefixes = REASONS[workload]
    wall = sum(op["wall_s"] for op in ops)
    selected = [s for name, s in trace["summary"].items()
                if name.startswith(prefixes)]
    share = sum(s["self_s"] for s in selected) / wall if wall else 0.0
    if rule == "absent":
        return share, not selected
    return share, share > 0.5


def result_line(correct: bool, attempted: int, failed: int,
                values: dict[str, float], spec) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                        for name, unit, _ in spec}}
