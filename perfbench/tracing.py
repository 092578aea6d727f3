"""In-memory span tracing installed from outside the program.

`install` wraps the public functions at each module boundary of
`flowcache`, so no file of the program changes. Each wrapper records a span
(name, start, end, parent, op) in a list held by a `Tracer`; the spans are
written out once, when the run ends. A span's self time is its duration
minus the part of its interval that its child spans cover.

A wrapped name that no longer exists is recorded in `Tracer.missing` and
skipped, so a refactor of the program shows up as a missing module in the
report rather than as a crash.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.missing: list[str] = []
        # op name -> observation key -> values read from return values
        self.observed = defaultdict(lambda: defaultdict(list))
        self.active = True
        self._stack: list[int] = []
        self._op: int | None = None
        self._op_name: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self, name: str):
        """Root span of one CLI command; spans inside it share its id."""
        self._op, self._op_name = len(self.spans), name
        with self.span(f"op.{name}"):
            yield

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, observe=None):
        """`name` is a string or a function of (args, kwargs) giving one."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            with self.span(label):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(self.observed[self._op_name], args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

def _param_values(params):
    entries = getattr(params, "entries", params)
    return entries.values() if hasattr(entries, "values") else ()


def _velocity_name(fn, node_type):
    def name(args, kwargs):
        # forward(self, params, x, t, r=None, cond=..., taps=None)
        operands = list(args[2:5]) + [kwargs.get(k) for k in ("x", "t", "r")]
        params = args[1] if len(args) > 1 else kwargs.get("params")
        graph = node_type is not None and (
            any(isinstance(v, node_type) for v in operands)
            or any(isinstance(v, node_type) for v in _param_values(params)))
        return "nets.VelocityModel.forward." + ("graph" if graph else "raw")
    return name


def _strategy_of(signature, args, kwargs) -> str:
    strategy = signature.bind(*args, **kwargs).arguments.get("strategy")
    return str(getattr(strategy, "value", strategy))


def _strategy_name(fn, node_type):
    signature = inspect.signature(fn)
    return lambda args, kwargs: (
        f"cache.cached_sample.{_strategy_of(signature, args, kwargs)}")


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


# Observers read a wrapped call's return value. Each entry of TARGETS names
# a factory that receives the wrapped function and returns the observer.

def _losses(stage, pick):
    def factory(fn):
        def observe(observed, args, kwargs, out):
            try:
                observed[f"loss.{stage}"].append(float(pick(out)))
            except (AttributeError, IndexError, TypeError, ValueError):
                observed["unreadable"].append(f"loss.{stage}")
        return observe
    return factory


def _samples(fn):
    """Finiteness of the sampler output and, for the cached sampler, the
    counts of the returned NfeReport."""
    signature = inspect.signature(fn)

    def observe(observed, args, kwargs, out):
        samples = out[0] if isinstance(out, tuple) else out
        observed["samples_finite"].append(_finite(samples))
        if isinstance(out, tuple):
            report = out[1]
            observed["nfe"].append((_strategy_of(signature, args, kwargs),
                                    report.full_evals, report.predictor_evals,
                                    report.cache_bytes_peak))
    return observe


def _value(key):
    def factory(fn):
        def observe(observed, args, kwargs, out):
            observed[key].append(float(out))
        return observe
    return factory


def _count(key):
    def factory(fn):
        def observe(observed, args, kwargs, out):
            observed[key].append(1)
        return observe
    return factory


def _file_bytes(fn):
    def observe(observed, args, kwargs, out):
        path = args[0] if args else kwargs.get("path")
        observed["checkpoint_bytes"].append(os.path.getsize(path))
    return observe


# (module, qualified name, span-name factory or None for "<module>.<name>",
#  observer factory or None)
TARGETS = (
    ("autodiff", "backward", None, None),
    ("nets", "VelocityModel.forward", _velocity_name, None),
    ("nets", "Predictor.forward", None, None),
    ("nets", "Discriminator.forward", None, None),
    ("optim", "adam_step", None, None),
    ("flow", "train_base", None, _losses("train_base", lambda o: o[1][-1])),
    ("flow", "mean_velocity_sample", None, _samples),
    ("distill", "cfg_distill_step", None, None),
    ("distill", "meanflow_distill_step", None, None),
    ("distill", "train_cfg", None,
     _losses("distill_cfg", lambda o: o[1][-1].loss)),
    ("distill", "train_meanflow", None,
     _losses("distill_meanflow", lambda o: o[1][-1].loss)),
    ("predictor_train", "build_training_pair", None, None),
    ("predictor_train", "predictor_mse_step", None, None),
    ("predictor_train", "gan_step", None, None),
    ("predictor_train", "train_predictor", None,
     _losses("train_predictor", lambda o: o[3][-1].loss_p)),
    ("cache", "cached_sample", _strategy_name, _samples),
    ("metrics", "w2_distance", None, _value("w2")),
    ("metrics", "energy_distance", None, _value("energy")),
    ("checkpoint", "save_checkpoint", None, _file_bytes),
    ("checkpoint", "load_checkpoint", None, _file_bytes),
    ("checkpoint", "verify_parent", None, _count("verify_parent")),
    ("runner", "run_experiment", None, None),
    ("runner", "_run_session", None, None),
    ("runner", "run_train_base", None, None),
    ("runner", "run_distill_cfg", None, None),
    ("runner", "run_distill_meanflow", None, None),
    ("runner", "run_train_predictor", None, None),
)


def install(tracer: Tracer, package: str = "flowcache") -> Tracer:
    """Wrap every TARGETS entry of the (already imported) package.

    A plain function is replaced wherever a module of the package bound it,
    so `from .metrics import w2_distance` call sites are traced too.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    node_type = getattr(sys.modules.get(f"{package}.autodiff"), "Node", None)
    for module_name, qualname, naming, observer in TARGETS:
        full = f"{module_name}.{qualname}"
        owner = sys.modules.get(f"{package}.{module_name}")
        *path, attr = qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            tracer.missing.append(full)
            continue
        name = full if naming is None else naming(original, node_type)
        wrapper = tracer.wrap(original, name,
                              None if observer is None else observer(original))
        if path:
            tracer.patch(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, key, wrapper)
    return tracer


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [(s[2] - s[1]) - _covered(s[1], s[2], children[i])
            for i, s in enumerate(spans)]


def _rank(p: float, n: int) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_level(n: int) -> float | None:
    """Highest of TAIL_LEVELS with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_LEVELS:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, p50, p95 and the tail
    percentile (the highest with MIN_BEYOND samples beyond it) in ms."""
    selfs = self_times(spans)
    durations = defaultdict(list)
    self_sum = defaultdict(float)
    for s, own in zip(spans, selfs):
        durations[s[0]].append(s[2] - s[1])
        self_sum[s[0]] += own
    out = {}
    for name, ds in durations.items():
        level = tail_level(len(ds))
        out[name] = {
            "calls": len(ds),
            "total_s": sum(ds),
            "self_s": self_sum[name],
            "p50_ms": percentile(ds, 50.0) * 1e3,
            "p95_ms": percentile(ds, 95.0) * 1e3,
            "tail_pct": level,
            "tail_ms": None if level is None else percentile(ds, level) * 1e3,
        }
    return out
