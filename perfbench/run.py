"""Benchmark entry point: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload {train,bench,sweep-1d,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout. Each timed repeat is a fresh
process (workload.py) that drives `flowcache.cli.main` for the workload's
commands in order, one client, `workers` 1, BLAS pinned to one thread.
Repeats continue until --seconds of measuring have passed (at least one).

--trace 0 prints the end-to-end metrics. --trace 1 makes one untraced and one
traced repeat and prints the per-layer metrics, including the tracing
overhead. Every run checks the outputs; a failed check fails its command.
The last line of stdout is the JSON result; everything else the run leaves
is under .perfbench-work/ in the checkout. `--workload all` runs the three
workloads in turn and ends with one combined result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import report
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
SETUP_PROBES = 5
BLAS_THREADS = "1"
BUDGET_S = 170.0  # the whole invocation must end within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="flowcache benchmark")
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"],
                   help="`all` runs every workload in turn and prints one "
                        "combined result, its metrics prefixed by workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def source_digest(root: Path) -> str:
    """sha256 over the program's sources: identifies the code under test
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return done.stdout.strip() or None


class Runner:
    """Starts workload.py children under one deadline and keeps their records."""

    def __init__(self, root: Path, args, work: Path, deadline: float):
        self.args, self.work, self.deadline = args, work, deadline
        self.env = child_env(root)
        self.count = 0

    def spawn(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        label = f"{self.count:02d}-{mode}{'-traced' if trace else ''}"
        out = self.work / label
        out.mkdir(parents=True)
        result = out / "result.json"
        cmd = [sys.executable, str(HERE / "workload.py"),
               "--workload", self.args.workload, "--mode", mode,
               "--seed", str(self.args.seed), "--configs", str(self.work / "configs"),
               "--ckpt", str(self.work / "ckpt"), "--out", str(out),
               "--result", str(result)]
        if trace:
            cmd.append("--trace")
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            return {"mode": mode, "traced": trace, "label": label,
                    "crashed": "not started: out of time"}
        with open(out / "log.txt", "w") as log:
            try:
                done = subprocess.run(cmd + ["--spawned", repr(time.time())],
                                      env=self.env, stdout=log, stderr=log,
                                      timeout=remaining)
                code = done.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code == 0 and result.is_file():
            record = json.loads(result.read_text())
        else:
            record = {"mode": mode, "traced": trace, "crashed": f"exit {code}"}
        record["label"] = label
        return record


def op_names(record: dict, workload, args, work: Path) -> list[str]:
    """The commands a child ran, or was to run if it crashed."""
    if "ops" in record:
        return [op["name"] for op in record["ops"]]
    return [op.name for op in workloads.plan(
        workload, work / "configs", work / "ckpt", work, args.seed,
        fixtures=record["mode"] == "fixtures")]


def trained(fixtures: dict | None) -> bool:
    """Whether the bench checkpoints exist (True when none are needed)."""
    return fixtures is None or (
        "ops" in fixtures and all(op["rc"] == 0 for op in fixtures["ops"]))


def run_children(runner: Runner, workload, args):
    """Fixtures, set-up probes, untraced repeats and (with --trace 1) one
    traced repeat. Returns (fixtures record or None, set-up samples,
    untraced records, traced record or None)."""
    fixtures = runner.spawn("fixtures") if workload.fixtures is not None else None
    # Set-up probes run before and after the repeats: on a shared host the
    # machine's speed can change within seconds, and spreading the probes
    # out steadies their median.
    setups = [runner.spawn("probe").get("setup_s") for _ in range(SETUP_PROBES // 2)]
    untraced = []
    measure_start = time.monotonic()
    while not untraced or (not args.trace and trained(fixtures)
                           and time.monotonic() - measure_start < args.seconds):
        last = time.monotonic()
        untraced.append(runner.spawn("repeat"))
        # stop when another repeat like the last would overrun the deadline
        if runner.deadline - time.monotonic() < 1.5 * (time.monotonic() - last):
            break
    traced = runner.spawn("repeat", trace=True) if args.trace else None
    setups += [runner.spawn("probe").get("setup_s")
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups += [r["setup_s"] for r in untraced if "setup_s" in r]
    return fixtures, [s for s in setups if s is not None], untraced, traced


def account(records: list[dict], workload, args, work: Path):
    """Run every output check. Returns (attempted, failures) where failures
    maps record label -> {op name: [messages]}."""
    fixtures_ok = trained(next((r for r in records if r["mode"] == "fixtures"), None))
    repeats = [r for r in records if r["mode"] == "repeat"]
    attempted, failures = 0, {}
    for record in records:
        names = op_names(record, workload, args, work)
        attempted += len(names)
        found = failures.setdefault(record["label"], {})
        if "crashed" in record:
            issues = [(name, f"process {record['crashed']}") for name in names]
        else:
            issues = checks.check_record(record, workload)
            if record["mode"] == "repeat" and record is not repeats[0] \
                    and "crashed" not in repeats[0]:
                issues += checks.check_reproducible(repeats[0], record)
            if record["mode"] == "repeat" and not fixtures_ok:
                issues += [(name, "bench checkpoints were not trained")
                           for name in names]
        for name, message in issues:
            found.setdefault(name, []).append(message)
    return attempted, failures


def print_report(records, failures, e2e, traced, workload_name, env):
    print("environment: " + json.dumps(env, sort_keys=True))
    for record in records:
        for op in record.get("ops", []):
            print(f"  {record['label']:<22} {op['name']:<18} {op['wall_s']:9.3f} s"
                  f" wall {op['cpu_s']:9.3f} s cpu  rc={op['rc']}")
    for record in records:
        outputs = record.get("outputs", {})
        for name, digest in outputs.get("digests", {}).items():
            print(f"  digest {record['label']} {name} {digest[:16]}")
        for op, rows in outputs.get("bench", {}).items():
            for strategy, row in rows.items():
                print(f"  quality {record['label']} {op} {strategy:<8}"
                      f" w2={row['w2']!r} energy={row['energy_distance']!r}"
                      f" nfe={row['full_evals']}+{row['predictor_evals']}")
        if "noise_energy" in outputs:
            print(f"  quality {record['label']} noise energy={outputs['noise_energy']!r}")
        for op, seen in record.get("trace", {}).get("observed", {}).items():
            for key, values in seen.items():
                if key.startswith("loss."):
                    print(f"  last {key} {values[-1]!r}")
    print("end-to-end (untraced):")
    units = {name: unit for name, unit, _ in report.END_TO_END + report.PER_LAYER}
    for name, value in e2e.items():
        if value:
            print(f"  {name:<30} {value:14.4f} {units[name]}")
    if traced is not None and "trace" in traced:
        trace = traced["trace"]
        share, confirmed = report.reason_share(workload_name, trace, traced["ops"])
        print(f"reason ({report.REASONS[workload_name][0]}): share {share:.3f}, "
              f"{'confirmed' if confirmed else 'NOT confirmed'}")
        if trace["missing"]:
            print("missing (not traced): " + ", ".join(trace["missing"]))
        print("per module (traced): name, calls, self_s, p50_ms, tail")
        for name, s in sorted(trace["summary"].items()):
            tail = (f"p{s['tail_pct']:g}={s['tail_ms']:.3f}ms"
                    if s["tail_pct"] is not None else "-")
            print(f"  {name:<40} {s['calls']:6d} {s['self_s']:9.4f}"
                  f" {s['p50_ms']:9.3f} {tail} n={s['calls']}")
    for label, found in failures.items():
        for name, messages in found.items():
            for message in messages:
                print(f"FAILED {label} {name}: {message}")


def run_workload(args, root: Path) -> dict:
    """Run one workload, print its readable report; returns the result."""
    started = time.monotonic()
    workload = workloads.WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_configs(workload, work / "configs")
    runner = Runner(root, args, work, started + BUDGET_S)

    fixtures, setups, untraced, traced = run_children(runner, workload, args)
    records = [r for r in [fixtures, *untraced, traced] if r is not None]
    attempted, failures = account(records, workload, args, work)
    failed = sum(len(found) for found in failures.values())

    measured = [r for r in untraced if "crashed" not in r]
    e2e = report.end_to_end(measured, [set(failures[r["label"]]) for r in measured],
                            setups)
    if traced is None:
        values, spec = e2e, report.END_TO_END
    else:
        ok = "crashed" not in traced
        e2e_traced = report.end_to_end([traced] if ok else [],
                                       [set(failures[traced["label"]])],
                                       [traced["setup_s"]] if ok else [])
        trace = traced.get("trace", {"summary": {}, "observed": {}, "missing": [],
                                     "spans": 0})
        values, spec = report.per_layer(trace, e2e, e2e_traced), report.PER_LAYER

    env = next((r["env"] for r in records if "env" in r), {})
    env.update({"commit": commit(root), "source_sha256": source_digest(root),
                "seed": args.seed, "workload": args.workload, "trace": args.trace})
    print_report(records, failures, e2e, traced, args.workload, env)
    result = report.result_line(failed == 0, attempted, failed, values, spec)
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):
            metric["value"] = 0.0
    (work / "report.json").write_text(json.dumps(
        {"env": env, "result": result, "failures": failures, "records": records},
        indent=1, default=str))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "flowcache" / "__init__.py").is_file():
        print("error: run from the root of a flowcache checkout "
              "(src/flowcache not found)", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args, root)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        print(f"== {name}")
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                              root)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v
                                    for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
