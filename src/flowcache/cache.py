"""Inference-time caching: schedule planning, cache init/refresh, and three
interchangeable prediction strategies (naive reuse, Taylor forecast, learned
predictor) with exact evaluation and memory accounting.

A schedule walks a contiguous decreasing-t grid; FULL steps run the backbone
and refresh the cache, PREDICT steps ask the strategy for the mean velocity.
Every strategy caches into one ring of recent full evaluations: naive reuse
and the learned predictor keep a ring of one, whatever the schedule length;
Taylor order m keeps m+1 entries. Naive reuse is the order-0 forecast.

Taylor forecasting extrapolates the cached history k sub-steps past the
newest entry. With history values F0 (newest), F1, F2, ... spaced N steps
apart and s = k/N, the forecast is the Newton extrapolation

    F0 + sum_{i>=1} C(-s, i) * D^i,   D^i the i-th difference of [F0, F1, ...],

which is exact for histories polynomial in the step index (order m uses m+1
entries). At m=1 this is exactly F + (DF / N) * (-k), the first-order
cache-then-forecast rule; at m=0 it degenerates to naive reuse bit-for-bit.
Plain Taylor coefficients 1/(i! N^i) on raw differences lose polynomial
exactness at i >= 2, which is why the binomial form is used.

The shipped 20-step fixtures reproduce the (N, full, predict) budget splits
(4, 8, 12), (3, 11, 9), (2, 13, 7); exact placement of the FULL steps is one
valid choice (prediction runs first, trailing steps full), documented here
because only the counts are externally pinned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autodiff import Array, ParameterSet, as_f64, value_of
from .errors import CacheMissError, ContractViolation, NumericFailure
from .flow import TimePair, mean_velocity_step
from .nets import Condition, Predictor, VelocityModel

_PAIR_BYTES = 16  # origin metadata: two float64 endpoints


class StepMode(Enum):
    FULL = "full"
    PREDICT = "predict"


class Strategy(Enum):
    NAIVE = "naive"
    TAYLOR = "taylor"
    LEARNED = "learned"


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleStep:
    pair: TimePair
    mode: StepMode


@dataclass(frozen=True)
class StepSchedule:
    steps: tuple[ScheduleStep, ...]
    max_interval: int  # N
    warmup_full: int

    def __post_init__(self):
        if len(self.steps) == 0:
            raise ContractViolation("schedule must have at least one step")
        if self.steps[0].mode is not StepMode.FULL:
            raise ContractViolation("first step must be FULL (index 0)")
        run = 0
        for i, step in enumerate(self.steps):
            if i > 0 and self.steps[i - 1].pair.r != step.pair.t:
                raise ContractViolation(
                    f"schedule not contiguous at index {i}: previous r "
                    f"{self.steps[i - 1].pair.r} != t {step.pair.t}")
            if step.mode is StepMode.PREDICT:
                run += 1
                if run > self.max_interval - 1:
                    raise ContractViolation(
                        f"run of PREDICT steps exceeds N-1 at index {i}")
            else:
                run = 0

    @property
    def total_steps(self) -> int:
        return len(self.steps)

    def mode_counts(self) -> tuple[int, int]:
        full = sum(1 for s in self.steps if s.mode is StepMode.FULL)
        return full, len(self.steps) - full

    def to_json_obj(self) -> list[dict]:
        return [{"t": s.pair.t, "r": s.pair.r, "mode": s.mode.value}
                for s in self.steps]


def plan_schedule(total_steps: int, N: int, warmup_full: int = 0,
                  explicit=None) -> StepSchedule:
    """Uniform-grid schedule: `warmup_full` FULL steps, then repeating
    blocks of one FULL plus N-1 PREDICT, truncated at total_steps. An
    explicit mode list (strings or StepMode) overrides the pattern and is
    validated against the same invariants."""
    if total_steps < 1:
        raise ContractViolation("total_steps must be >= 1")
    if N < 1:
        raise ContractViolation("N must be >= 1")
    if warmup_full >= total_steps:
        raise ContractViolation("warmup_full must be < total_steps")
    grid = [1.0 - k / total_steps for k in range(total_steps + 1)]
    pairs = [TimePair(grid[j], grid[j + 1]) for j in range(total_steps)]

    if explicit is not None:
        if len(explicit) != total_steps:
            raise ContractViolation(
                f"explicit mode list has {len(explicit)} entries for "
                f"{total_steps} steps")
        modes = []
        for i, m in enumerate(explicit):
            if isinstance(m, StepMode):
                modes.append(m)
            elif isinstance(m, str) and m.lower() in ("full", "predict"):
                modes.append(StepMode(m.lower()))
            else:
                raise ContractViolation(f"bad mode {m!r} at index {i}")
    else:
        modes = []
        for j in range(total_steps):
            if j < warmup_full:
                modes.append(StepMode.FULL)
            else:
                in_block = (j - warmup_full) % N
                modes.append(StepMode.FULL if in_block == 0 else StepMode.PREDICT)
    return StepSchedule(tuple(ScheduleStep(p, m) for p, m in zip(pairs, modes)),
                        max_interval=N, warmup_full=warmup_full)


# 20-step fixtures matching the published full/predict budget splits.
# Placement: alternation first, trailing FULL run (one valid choice).
FIXTURE_MODES_20: dict[int, list[str]] = {
    4: ["full"] * 4 + (["full"] + ["predict"] * 3) * 4,
    3: (["full", "predict", "predict"] * 3
        + ["full", "predict"] * 3 + ["full"] * 5),
    2: ["full", "predict"] * 7 + ["full"] * 6,
}


def fixture_schedule(N: int, total_steps: int = 20) -> StepSchedule:
    if total_steps != 20 or N not in FIXTURE_MODES_20:
        raise ContractViolation(f"no shipped fixture for ({total_steps}, N={N})")
    return plan_schedule(total_steps, N, warmup_full=0,
                         explicit=FIXTURE_MODES_20[N])


# ---------------------------------------------------------------------------
# Cache state and accounting
# ---------------------------------------------------------------------------

@dataclass
class NfeReport:
    """Evaluation counts of one cached walk. `out_of_horizon` counts the
    learned predictions queried farther from the cache's origin than the
    predictor's trained horizon (delta_max)."""

    full_evals: int = 0
    predictor_evals: int = 0
    cache_bytes_peak: int = 0
    out_of_horizon: int = 0

    def observe_bytes(self, n: int):
        self.cache_bytes_peak = max(self.cache_bytes_peak, n)


class CacheState:
    """A ring of the most recent full evaluations, (pair, u) entries with the
    newest last and t strictly decreasing. Order m keeps m+1 entries."""

    def __init__(self, order: int = 0):
        if order < 0:
            raise ContractViolation("cache order must be >= 0")
        self.history: deque[tuple[TimePair, Array]] = deque(maxlen=order + 1)

    @property
    def initialized(self) -> bool:
        return len(self.history) > 0

    @property
    def value(self) -> Array | None:
        return self.history[-1][1] if self.history else None

    @property
    def origin(self) -> TimePair | None:
        return self.history[-1][0] if self.history else None

    def bytes_held(self) -> int:
        return sum(u.nbytes + _PAIR_BYTES for _, u in self.history)


def cache_init(model: VelocityModel, params: ParameterSet, x_t, pair: TimePair,
               cond: Condition, state: CacheState,
               report: NfeReport | None = None) -> Array:
    """One full backbone evaluation, appended to the ring as its newest
    entry; returns the velocity."""
    u = as_f64(value_of(model.forward(params.entries, x_t, pair.t, pair.r, cond)))
    if not np.all(np.isfinite(u)):
        raise NumericFailure("backbone produced non-finite velocity at cache refresh")
    if state.initialized and not pair.t < state.origin.t:
        raise ContractViolation("history must have strictly decreasing t")
    state.history.append((pair, u))
    if report is not None:
        report.full_evals += 1
        report.observe_bytes(state.bytes_held())
    return u


def taylor_forecast(state: CacheState, k: int, N: int, m: int) -> Array:
    """Forecast k sub-steps past the newest history entry (spacing N).

    Falls back to the highest order the history supports (warm-up
    behavior); m=0 is naive reuse and returns the cached value itself.
    """
    if k < 1:
        raise ContractViolation("forecast offset k must be >= 1")
    if N < 1:
        raise ContractViolation("history spacing N must be >= 1")
    if m < 0:
        raise ContractViolation("taylor order m must be >= 0")
    if not state.initialized:
        raise CacheMissError("forecast before cache initialization")
    newest_first = [v for _, v in reversed(state.history)]
    m_eff = min(m, len(newest_first) - 1)
    # iterated differences of [F0, F1, ...] (newest first)
    diffs = [newest_first[0]]
    level = newest_first
    for _ in range(m_eff):
        level = [b - a for a, b in zip(level[:-1], level[1:])]
        diffs.append(level[0])
    if m_eff == 0:
        return diffs[0]
    s = k / N
    out = diffs[0]
    coef = 1.0
    for i in range(1, m_eff + 1):
        coef *= (-s - (i - 1)) / i  # binomial C(-s, i), built incrementally
        out = out + coef * diffs[i]
    return out


def learned_predict(predictor: Predictor, params: ParameterSet,
                    state: CacheState, x, pair: TimePair, cond: Condition,
                    delta_max: float | None = None,
                    report: NfeReport | None = None) -> Array:
    """Predictor evaluation against the cache; out-of-horizon queries (pair
    farther than delta_max from the origin) are counted in the report, not
    rejected."""
    if not state.initialized:
        raise CacheMissError("learned prediction before cache initialization")
    if (delta_max is not None and report is not None
            and state.origin.t - pair.t > delta_max + 1e-12):
        report.out_of_horizon += 1
    return as_f64(value_of(predictor.forward(params.entries, state.value, x,
                                             pair.t, pair.r, cond)))


# ---------------------------------------------------------------------------
# Cached sampler
# ---------------------------------------------------------------------------

def cached_sample(model: VelocityModel, params: ParameterSet,
                  schedule: StepSchedule, strategy: Strategy, x1,
                  cond: Condition = Condition(),
                  predictor: Predictor | None = None,
                  predictor_params: ParameterSet | None = None,
                  taylor_order: int = 1,
                  delta_max: float | None = None) -> tuple[Array, NfeReport]:
    """Walk the schedule with mean-velocity steps; FULL steps refresh the
    cache, PREDICT steps consult the strategy. Returns (x0, NfeReport).

    Naive reuse is the Taylor forecast of order 0. Taylor differences are
    scaled by the spacing actually observed between the full evaluations
    feeding them (equal to the schedule's N on uniform schedules); on locally
    non-uniform history the order falls back so the extrapolation stays
    well-scaled.
    """
    if strategy is Strategy.LEARNED and (predictor is None or predictor_params is None):
        raise ContractViolation("LEARNED strategy requires a predictor and its parameters")

    order = taylor_order if strategy is Strategy.TAYLOR else 0
    state = CacheState(order)
    report = NfeReport()
    x = as_f64(x1)
    full_indices: list[int] = []
    for idx, step in enumerate(schedule.steps):
        if step.mode is StepMode.FULL:
            u = cache_init(model, params, x, step.pair, cond, state, report)
            full_indices.append(idx)
        else:
            if strategy is Strategy.LEARNED:
                u = learned_predict(predictor, predictor_params, state, x,
                                    step.pair, cond, delta_max, report)
            else:
                n_eff, usable = _history_spacing(full_indices)
                u = taylor_forecast(state, idx - full_indices[-1], n_eff,
                                    min(order, usable))
            report.predictor_evals += 1
        x = mean_velocity_step(x, step.pair, u)
    if report.full_evals + report.predictor_evals != schedule.total_steps:
        raise ContractViolation(
            f"NFE accounting broken: {report.full_evals} full + "
            f"{report.predictor_evals} predicted != {schedule.total_steps} steps")
    return x, report


def _history_spacing(full_indices: list[int]) -> tuple[int, int]:
    """Effective spacing of the most recent full evaluations and the number
    of difference orders with that uniform spacing."""
    if len(full_indices) < 2:
        return 1, 0
    gaps = [b - a for a, b in zip(full_indices[:-1], full_indices[1:])]
    n_eff = gaps[-1]
    usable = 0
    for gap in reversed(gaps):
        if gap != n_eff:
            break
        usable += 1
    return n_eff, usable
