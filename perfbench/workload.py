"""One run of a workload, in a fresh process started by run.py.

The process imports the program and parses the workload's configs (its
set-up), then calls `flowcache.cli.main` once per command and times each
call from outside. With --trace the calls run under the span tracer. The
record is written as JSON to --result.

Modes: `repeat` runs the timed commands; `probe` stops after set-up, so a run
can sample set-up time several times; `fixtures` trains the checkpoints a
bench workload reads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--mode", required=True, choices=("repeat", "probe", "fixtures"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--configs", type=Path, required=True)
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="wall-clock time (time.time()) the parent started this process")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_op(cli, op: workloads.Op, tracer) -> dict:
    record = {"name": op.name, "stage": op.stage, "n": op.n,
              "samples": op.samples, "rc": None, "error": None}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with tracer.op(op.name) if tracer is not None else nullcontext():
            record["rc"] = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects the command line
        record["rc"] = exc.code
    except Exception:  # the op fails; the run goes on with the next one
        record["error"] = traceback.format_exc(limit=4)
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = time.process_time() - c0
    return record


def read_metrics_csv(path: Path) -> dict[str, dict]:
    rows = {}
    if not path.is_file():
        return rows
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["strategy"]] = {
                "full_evals": int(row["full_evals"]),
                "predictor_evals": int(row["predictor_evals"]),
                "w2": float(row["w2"]),
                "energy_distance": float(row["energy_distance"]),
                "cache_bytes_peak": int(row["cache_bytes_peak"]),
            }
    return rows


def lineage_error(ckpt: Path) -> str | None:
    """None when the predictor checkpoint's recorded parent is the
    mean-velocity checkpoint the bench reads next to it."""
    from flowcache.checkpoint import load_checkpoint, verify_parent
    from flowcache.errors import CheckpointError
    try:
        verify_parent(load_checkpoint(ckpt / "predictor.fck"),
                      load_checkpoint(ckpt / "meanflow.fck"),
                      child_path="predictor.fck")
    except (CheckpointError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def noise_energy(workload: workloads.Workload, seed: int) -> float:
    """Energy distance from standard-normal noise (the sampler's starting
    distribution) to the bench's reference set."""
    import numpy as np
    from flowcache.flow import ToyDistribution, sample_data
    from flowcache.metrics import energy_distance
    config = next(iter(workload.configs.values()))
    dist = ToyDistribution(**config["distribution"])
    n = config["metric_samples"]
    noise = np.random.default_rng(seed).standard_normal((n, dist.dim))
    return energy_distance(noise, sample_data(dist, n, config["metric_seed"]))


def collect_outputs(args, workload, ops) -> dict:
    outputs = {}
    if args.mode == "fixtures" or workload.fixtures is None:
        folder = args.ckpt if args.mode == "fixtures" else args.out
        outputs["digests"] = {p.name: sha256_file(p)
                              for p in sorted(folder.glob("*.fck"))}
        return outputs
    outputs["bench"] = {op.name: read_metrics_csv(
        args.out / op.name / "metrics.csv") for op in ops}
    outputs["lineage_error"] = lineage_error(args.ckpt)
    if workload.quality_check:
        outputs["noise_energy"] = noise_energy(workload, args.seed)
    return outputs


def main(argv=None) -> int:
    args = parse_args(argv)
    import flowcache.cli
    import flowcache.config
    # the CLI imports runner (and scipy) lazily; importing it here puts that
    # cost in set-up, not in the first timed call
    import flowcache.runner  # noqa: F401

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(tracing.Tracer())
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.plan(workload, args.configs, args.ckpt, args.out, args.seed,
                         fixtures=args.mode == "fixtures")
    config_paths = sorted({op.argv[op.argv.index("--config") + 1] for op in ops})
    workers = [getattr(flowcache.config.load_config(p), "workers", 1)
               for p in config_paths]
    record = {"mode": args.mode, "traced": args.trace,
              "setup_s": time.time() - args.spawned, "workers": workers}
    if args.mode != "probe":
        record["ops"] = [run_op(flowcache.cli, op, tracer) for op in ops]
        if tracer is not None:
            tracer.active = False
        record["outputs"] = collect_outputs(args, workload, ops)
        record["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["env"] = environment()
        if tracer is not None:
            import tracing
            tracer.write(args.result.with_name(args.result.stem + "-spans.json"))
            record["trace"] = {"summary": tracing.summarize(tracer.spans),
                               "observed": tracer.observed,
                               "missing": tracer.missing,
                               "spans": len(tracer.spans)}
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
