"""Inference-time caching: schedule planning, cache init/refresh, and three
interchangeable prediction strategies (naive reuse, Taylor forecast, learned
predictor) with exact evaluation and memory accounting.

A schedule is a list of step modes on the uniform grid from t=1 down to 0;
FULL steps run the backbone and refresh the cache, PREDICT steps ask the
strategy for the mean velocity. `ScheduleSpec` is the one schedule type: it
is the config's `schedule` section, and `cached_sample` walks it. Its modes
are worked out and checked once, when the spec is made (so at config load).
They are `explicit` when given, else the `FIXTURE_MODES` row keyed by
(total_steps, max_interval) when `fixture` is true, else `warmup_full` FULL
steps and then blocks of one FULL and N-1 PREDICT steps. `warmup_full` shapes
only that last pattern, so a spec that sets it with a fixture or an explicit
list is refused.
The cache's whole state is one ring of recent full evaluations, (pair, u)
entries: naive reuse and the learned predictor keep a ring of one, whatever
the schedule length; Taylor order m keeps m+1 entries. Naive reuse is the
order-0 forecast. Every schedule walks `flow.uniform_pairs`, so the ring
alone gives a forecast its offsets: they are counted in grid steps, the time
between two entries (or from the newest entry to the query) over the newest
entry's width. `cached_sample` alone keeps the walk's `NfeReport`.

Taylor forecasting extrapolates the cached history k steps past the newest
entry. With history values F0 (newest), F1, F2, ... spaced N steps apart
and s = k/N, the forecast is the Newton extrapolation

    F0 + sum_{i>=1} C(-s, i) * D^i,   D^i the i-th difference of [F0, F1, ...],

which is exact for histories polynomial in the step index (order m uses m+1
entries). At m=1 this is exactly F + (DF / N) * (-k), the first-order
cache-then-forecast rule; at m=0 it degenerates to naive reuse bit-for-bit.
Plain Taylor coefficients 1/(i! N^i) on raw differences lose polynomial
exactness at i >= 2, which is why the binomial form is used. N is the newest
gap, and the order falls to the number of trailing gaps equal to N, so a
warm-up ring or a change of spacing forecasts at the order it supports.

The shipped 20-step fixtures reproduce the (N, full, predict) budget splits
(4, 8, 12), (3, 11, 9), (2, 13, 7); exact placement of the FULL steps is one
valid choice (prediction runs first, trailing steps full), documented here
because only the counts are externally pinned. Another grid's fixture is one
more `FIXTURE_MODES` row.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autodiff import Array, ParameterSet, as_f64, value_of
from .errors import CacheMissError, ContractViolation, NumericFailure
from .flow import TimePair, mean_velocity_step, uniform_pairs
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

# Shipped fixtures, keyed by (total_steps, max_interval N). The 20-step rows
# match the published full/predict budget splits. Placement: alternation
# first, trailing FULL run (one valid choice).
FIXTURE_MODES: dict[tuple[int, int], list[str]] = {
    (20, 4): ["full"] * 4 + (["full"] + ["predict"] * 3) * 4,
    (20, 3): (["full", "predict", "predict"] * 3
              + ["full", "predict"] * 3 + ["full"] * 5),
    (20, 2): ["full", "predict"] * 7 + ["full"] * 6,
}


@dataclass(frozen=True)
class ScheduleSpec:
    """The config's `schedule` section and the schedule the walker walks:
    step modes on `flow.uniform_pairs(total_steps)`. The modes are worked
    out and checked when the spec is made: the first is FULL, and no run of
    PREDICT steps is longer than N-1."""

    total_steps: int = 20
    max_interval: int = 2  # N
    warmup_full: int = 0
    fixture: bool = True
    explicit: tuple[str, ...] | None = None

    def __post_init__(self):
        self.modes  # works out and checks the modes, once

    @functools.cached_property
    def modes(self) -> tuple[StepMode, ...]:
        total, n, warmup = self.total_steps, self.max_interval, self.warmup_full
        if total < 1 or n < 1:
            raise ContractViolation(f"total_steps and max_interval must be "
                                    f">= 1, got {total} and {n}")
        if not 0 <= warmup < total:
            raise ContractViolation(
                f"warmup_full must lie in [0, total_steps), got {warmup}")
        if warmup and (self.fixture or self.explicit is not None):
            raise ContractViolation(
                f"warmup_full {warmup} applies only to the pattern: set "
                f"fixture to false and explicit to null")
        if self.explicit is not None:
            names = self.explicit
        elif self.fixture:
            if (total, n) not in FIXTURE_MODES:
                raise ContractViolation(
                    f"no shipped fixture for total_steps {total}, max_interval "
                    f"{n}: the fixtures are (total_steps, max_interval) "
                    f"{sorted(FIXTURE_MODES)}")
            names = FIXTURE_MODES[total, n]
        else:
            names = ["full" if j < warmup or (j - warmup) % n == 0
                     else "predict" for j in range(total)]
        if len(names) != total:
            raise ContractViolation(f"explicit has {len(names)} modes for "
                                    f"total_steps {total}")
        for i, name in enumerate(names):
            if name.lower() not in ("full", "predict"):
                raise ContractViolation(f"explicit: bad mode {name!r} at index {i}")
        modes = tuple(StepMode(name.lower()) for name in names)
        if modes[0] is not StepMode.FULL:
            raise ContractViolation("the first step must be full")
        run = 0
        for i, mode in enumerate(modes):
            run = run + 1 if mode is StepMode.PREDICT else 0
            if run > n - 1:
                raise ContractViolation(
                    f"a run of predict steps exceeds max_interval - 1 "
                    f"({n - 1}) at index {i}")
        return modes

    @property
    def pairs(self) -> list[TimePair]:
        return uniform_pairs(self.total_steps)

    def mode_counts(self) -> tuple[int, int]:
        full = self.modes.count(StepMode.FULL)
        return full, self.total_steps - full


# ---------------------------------------------------------------------------
# Cache state and accounting
# ---------------------------------------------------------------------------

@dataclass
class NfeReport:
    """Evaluation counts of one cached walk, written by `cached_sample`
    alone: full and predicted evaluations, the ring's peak bytes, and the
    learned predictions queried farther from the cache's origin than the
    predictor's trained horizon (delta_max)."""

    full_evals: int = 0
    predictor_evals: int = 0
    cache_bytes_peak: int = 0
    out_of_horizon: int = 0


class CacheState:
    """A ring of the most recent full evaluations, (pair, u) entries with the
    newest last and t strictly decreasing; empty before the first. Order m
    keeps m+1 entries."""

    def __init__(self, order: int = 0):
        if order < 0:
            raise ContractViolation("cache order must be >= 0")
        self.history: deque[tuple[TimePair, Array]] = deque(maxlen=order + 1)

    @property
    def value(self) -> Array | None:
        return self.history[-1][1] if self.history else None

    @property
    def origin(self) -> TimePair | None:
        return self.history[-1][0] if self.history else None

    def bytes_held(self) -> int:
        return sum(u.nbytes + _PAIR_BYTES for _, u in self.history)


def cache_init(model: VelocityModel, params: ParameterSet, x_t, pair: TimePair,
               cond: Condition, state: CacheState) -> Array:
    """One full backbone evaluation, appended to the ring as its newest
    entry; returns the velocity."""
    u = as_f64(value_of(model.forward(params.entries, x_t, pair.t, pair.r, cond)))
    if not np.all(np.isfinite(u)):
        raise NumericFailure("backbone produced non-finite velocity at cache refresh")
    if state.history and not pair.t < state.origin.t:
        raise ContractViolation("history must have strictly decreasing t")
    state.history.append((pair, u))
    return u


def taylor_forecast(state: CacheState, pair: TimePair, m: int) -> Array:
    """Forecast the velocity at `pair` from the ring alone.

    The query's offset k and the gaps between entries are counted in grid
    steps of the newest entry's width. N is the newest gap, and the order is
    min(m, the number of trailing gaps equal to N): a ring of one entry, or
    one whose gaps differ, forecasts at a lower order. m=0 is naive reuse
    and returns the cached value itself.
    """
    if m < 0:
        raise ContractViolation("taylor order m must be >= 0")
    if not state.history:
        raise CacheMissError("forecast before cache initialization")
    newest, width = state.origin, state.origin.interval
    if width <= 0.0:
        raise ContractViolation(f"cache entry t={newest.t} has zero width")
    k = round((newest.t - pair.t) / width)
    if k < 1:
        raise ContractViolation(f"forecast query t={pair.t} is not past the "
                                f"newest cache entry t={newest.t}")
    newest_first = list(reversed(state.history))
    gaps = [round((older.t - newer.t) / width) for (newer, _), (older, _)
            in zip(newest_first[:-1], newest_first[1:])]
    n = gaps[0] if gaps else 1
    order = 0
    while order < min(m, len(gaps)) and gaps[order] == n:
        order += 1
    # iterated differences of [F0, F1, ...] (newest first)
    level = [u for _, u in newest_first[:order + 1]]
    s, out, coef = k / n, level[0], 1.0
    for i in range(1, order + 1):
        level = [b - a for a, b in zip(level[:-1], level[1:])]
        coef *= (-s - (i - 1)) / i  # binomial C(-s, i), built incrementally
        out = out + coef * level[0]
    return out


def learned_predict(predictor: Predictor, params: ParameterSet,
                    state: CacheState, x, pair: TimePair,
                    cond: Condition) -> Array:
    """The predictor's velocity at `pair` from the newest cached value."""
    if not state.history:
        raise CacheMissError("learned prediction before cache initialization")
    return as_f64(value_of(predictor.forward(params.entries, state.value, x,
                                             pair.t, pair.r, cond)))


# ---------------------------------------------------------------------------
# Cached sampler
# ---------------------------------------------------------------------------

def cached_sample(model: VelocityModel, params: ParameterSet,
                  schedule: ScheduleSpec, strategy: Strategy, x1,
                  cond: Condition = Condition(),
                  predictor: Predictor | None = None,
                  predictor_params: ParameterSet | None = None,
                  taylor_order: int = 1,
                  delta_max: float | None = None) -> tuple[Array, NfeReport]:
    """Walk the schedule with mean-velocity steps; FULL steps refresh the
    cache, PREDICT steps consult the strategy. Returns (x0, NfeReport), the
    report counted here and nowhere else.

    Naive reuse is the Taylor forecast of order 0. A learned prediction
    queried more than delta_max past the cache's origin is counted in
    `out_of_horizon`, not rejected.
    """
    if strategy is Strategy.LEARNED and (predictor is None or predictor_params is None):
        raise ContractViolation("LEARNED strategy requires a predictor and its parameters")

    order = taylor_order if strategy is Strategy.TAYLOR else 0
    state = CacheState(order)
    report = NfeReport()
    x = as_f64(x1)
    for pair, mode in zip(schedule.pairs, schedule.modes):
        if mode is StepMode.FULL:
            u = cache_init(model, params, x, pair, cond, state)
            report.full_evals += 1
            report.cache_bytes_peak = max(report.cache_bytes_peak,
                                          state.bytes_held())
        else:
            if strategy is not Strategy.LEARNED:
                u = taylor_forecast(state, pair, order)
            else:
                if (delta_max is not None
                        and state.origin.t - pair.t > delta_max + 1e-12):
                    report.out_of_horizon += 1
                u = learned_predict(predictor, predictor_params, state, x,
                                    pair, cond)
            report.predictor_evals += 1
        x = mean_velocity_step(x, pair, u)
    return x, report
