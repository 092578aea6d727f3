"""Command-line interface for the full pipeline.

Subcommands:
    train-base        train the instantaneous-velocity teacher
    distill-cfg       distill guided sampling into one student
    distill-meanflow  interval-restricted mean-velocity distillation
    train-predictor   cache predictor (MSE phase + adversarial phase)
    sample            dump samples per strategy (no metrics are computed)
    bench             benchmark caching strategies, append metrics CSV
    verify            run the fast invariant battery

Exit codes: 0 success; 1 a `verify` check failed; 2 config or argument
error (a third `--checkpoint`, an `--out` that is no directory, a negative
`--seed`, an output file that cannot be written); 3 checkpoint
lineage/integrity error (bad parentage, digest mismatch,
unsupported version, a config snapshot or tensors that do not describe the
stage's network); 4 numeric failure. All state comes from the config
file and flags; environment variables never change an output. The BLAS pin
(`OPENBLAS_NUM_THREADS`, else `OMP_NUM_THREADS`) is read only to size the
sampling pool, whose workers are the calling thread and its helper threads
(see runner).

Before it dispatches, `main` pins glibc's allocator for the rest of the
process (`_pin_heap`): a fixed mmap threshold of 32 MiB, the ceiling of
glibc's own dynamic rule, and a trim threshold of 1 GiB, above any training
step's working set. Unpinned, whether the heap's top went back to the OS
after a training step depended on object lifetimes, import history and
even `PYTHONHASHSEED`; where it did, every next step faulted the same pages
in again. On perfbench's `train` config
(2-vCPU x86 VM) a fresh `train-base` process took 21-22k minor faults in
all, or 133k in one run; without scipy's solver imported at start-up it
took 48-132k, and a `distill-cfg` after it in the same process up to 105k
more. Pinned, a fresh `train-base` or `distill-cfg` process takes 9.3-9.8k
at hash seeds 0-2, about 6.1k of them its imports (15-19k and 12-13k while
the CLI still imported the scipy packages). The pin changes no output. It
is glibc-only (without `mallopt` it does nothing) and process-local: it is
made in `main`, not at import, so importing flowcache as a library leaves
the allocator as it was.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from pathlib import Path

from .config import default_config, load_config
from .errors import (CheckpointError, ConfigError, ContractViolation,
                     NumericFailure)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_LINEAGE = 3
EXIT_NUMERIC = 4

# glibc's mallopt parameters (malloc.h) and the values pinned
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


@functools.cache  # once per process
def _pin_heap() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op without `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _add_common(p, checkpoint=False, checkpoints=False):
    p.add_argument("--config", type=Path, default=None,
                   help="JSON experiment config (defaults apply when omitted)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", type=Path, default=Path("runs"),
                   help="output directory")
    if checkpoint:
        p.add_argument("--checkpoint", type=Path, required=True,
                       help="input checkpoint for this stage")
    if checkpoints:
        p.add_argument("--checkpoint", type=Path, action="append",
                       required=True,
                       help="input checkpoint (repeatable: mean-velocity "
                            "model first, predictor second)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcache",
        description="distillation + learnable-caching lab for toy flows")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("train-base", help="train the base velocity field"))
    _add_common(sub.add_parser("distill-cfg", help="guided-mixture distillation"),
                checkpoint=True)
    _add_common(sub.add_parser("distill-meanflow",
                               help="restricted mean-velocity distillation"),
                checkpoint=True)
    _add_common(sub.add_parser("train-predictor", help="cache predictor training"),
                checkpoint=True)
    _add_common(sub.add_parser("sample", help="generate and dump samples"),
                checkpoints=True)
    _add_common(sub.add_parser("bench", help="benchmark caching strategies"),
                checkpoints=True)
    verify_p = sub.add_parser("verify", help="run the invariant battery")
    verify_p.add_argument("--seed", type=int, default=0)
    return parser


def _config_for(args):
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seed=args.seed)
    return config


def _dispatch(args) -> int:
    from . import runner

    if args.command == "verify":
        from .verify import run_all
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return EXIT_OK if run_all(args.seed) else EXIT_CHECK_FAILED

    config = _config_for(args)
    if args.command in ("sample", "bench") and len(args.checkpoint) > 2:
        raise ConfigError(f"{args.command} takes at most two --checkpoint "
                          f"files, got {len(args.checkpoint)}")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: {exc.strerror}") from exc
    if args.command == "train-base":
        path = runner.run_train_base(config, args.out / "base.fck")
        print(f"wrote {path}")
    elif args.command == "distill-cfg":
        path = runner.run_distill_cfg(config, args.checkpoint,
                                      args.out / "cfg.fck")
        print(f"wrote {path}")
    elif args.command == "distill-meanflow":
        path = runner.run_distill_meanflow(config, args.checkpoint,
                                           args.out / "meanflow.fck")
        print(f"wrote {path}")
    elif args.command == "train-predictor":
        path = runner.run_train_predictor(config, args.checkpoint,
                                          args.out / "predictor.fck")
        print(f"wrote {path}")
    elif args.command in ("sample", "bench"):
        meanflow = args.checkpoint[0]
        predictor = args.checkpoint[1] if len(args.checkpoint) > 1 else None
        if args.command == "sample":
            for run, path in runner.run_sample(config, meanflow, predictor,
                                               out_dir=args.out):
                print(f"{run.run_id}: "
                      f"nfe={run.full_evals}+{run.predictor_evals} "
                      f"cache_bytes={run.cache_bytes_peak} wrote {path}")
            return EXIT_OK
        records = runner.run_experiment(config, meanflow, predictor,
                                        out_dir=args.out)
        for rec in records:
            print(f"{rec.run_id}: w2={rec.w2:.5f} "
                  f"energy={rec.energy_distance:.5f} "
                  f"nfe={rec.full_evals}+{rec.predictor_evals} "
                  f"cache_bytes={rec.cache_bytes_peak}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_heap()
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_LINEAGE
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ContractViolation as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # inputs are read as config or checkpoint errors
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
