"""Schedule building, cache accounting, and the three prediction strategies
(including Newton-form Taylor exactness on polynomial histories)."""

import ast
import logging
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import flowcache
from flowcache.cache import (CacheState, NfeReport, ScheduleSpec, StepMode,
                             Strategy, cache_init, cached_sample,
                             learned_predict, taylor_forecast)
from flowcache.errors import CacheMissError, ContractViolation
from flowcache.flow import (TimePair, mean_velocity_sample, mean_velocity_step,
                            uniform_pairs)
from flowcache.nets import (Condition, Predictor, PredictorConfig,
                            VelocityModel, VelocityModelConfig)

from conftest import load_perfbench


def make_model(rng, input_dim=2):
    m = VelocityModel(VelocityModelConfig(
        input_dim=input_dim, hidden_dim=48, depth=4, time_embed_dim=8,
        condition_vocab=2, accepts_r=True))
    p = m.init_params(rng)
    for k in p.entries:
        p.entries[k] = 0.25 * rng.standard_normal(p.entries[k].shape)
    return m, p


def make_predictor(rng, backbone):
    pred = Predictor(PredictorConfig(hidden_dim=12, depth=1, time_embed_dim=4),
                     backbone)
    pp = pred.init_params(rng)
    return pred, pp


def pattern_schedule(total_steps, N, warmup_full=0, explicit=None):
    """The warmup-then-blocks schedule, or an explicit mode list."""
    return ScheduleSpec(total_steps, N, warmup_full, fixture=False,
                        explicit=explicit)


def shipped_fixture(N):
    return ScheduleSpec(max_interval=N)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_n1_is_all_full():
    sched = pattern_schedule(20, N=1)
    assert sched.mode_counts() == (20, 0)


def test_uniform_n4_matches_published_split():
    sched = pattern_schedule(20, N=4, warmup_full=4)
    assert sched.mode_counts() == (8, 12)


@pytest.mark.parametrize("N,full,predict", [(4, 8, 12), (3, 11, 9), (2, 13, 7)])
def test_fixture_counts(N, full, predict):
    sched = shipped_fixture(N)
    assert sched.mode_counts() == (full, predict)
    assert sched.modes[0] is StepMode.FULL


def test_schedule_contiguity_and_unit_cover():
    sched = pattern_schedule(20, N=4, warmup_full=4)
    for a, b in zip(sched.pairs[:-1], sched.pairs[1:]):
        assert a.r == b.t
    assert abs(sum(pair.interval for pair in sched.pairs) - 1.0) < 1e-12


def test_explicit_validation_errors():
    with pytest.raises(ContractViolation, match="first step"):
        pattern_schedule(4, N=2, explicit=["predict", "full", "full", "full"])
    with pytest.raises(ContractViolation, match="index 2"):
        pattern_schedule(4, N=2, explicit=["full", "predict", "predict", "full"])
    with pytest.raises(ContractViolation):
        pattern_schedule(4, N=2, explicit=["full"] * 3)
    with pytest.raises(ContractViolation):
        pattern_schedule(4, N=2, explicit=["full", "predict", "hold", "full"])
    with pytest.raises(ContractViolation):
        pattern_schedule(0, N=1)
    with pytest.raises(ContractViolation):
        pattern_schedule(10, N=1, warmup_full=10)


def test_perfbench_fixture_counts_match_the_table(monkeypatch):
    # perfbench checks every bench walk against its own copy of the splits
    workloads = load_perfbench("workloads", monkeypatch)
    total = workloads.TOTAL_STEPS
    for n, full in workloads.FIXTURE_FULL.items():
        spec = ScheduleSpec(total_steps=total, max_interval=n)
        assert spec.mode_counts() == (full, total - full), n


def test_schedule_json_roundtrip_shape():
    sched = shipped_fixture(2)
    obj = [{"t": pair.t, "r": pair.r, "mode": mode.value}
           for pair, mode in zip(sched.pairs, sched.modes)]
    assert len(obj) == 20
    assert set(obj[0]) == {"t", "r", "mode"}


# ---------------------------------------------------------------------------
# cache_init / naive reuse (the order-0 forecast)
# ---------------------------------------------------------------------------

def test_cache_init_accounting_and_bit_exact_value(rng):
    model, params = make_model(rng)
    state = CacheState()
    x = rng.standard_normal((4, 2))
    pair = TimePair(0.9, 0.85)
    u = cache_init(model, params, x, pair, Condition(0), state)
    assert state.bytes_held() == x.nbytes + 16
    direct = model.forward(params.entries, x, pair.t, pair.r, Condition(0))
    assert np.array_equal(u, direct)
    assert state.value is u
    assert state.origin == pair
    # the walker counts the refresh and reads the ring's bytes
    _, report = cached_sample(model, params, pattern_schedule(1, N=1),
                              Strategy.NAIVE, x, Condition(0))
    assert report == NfeReport(full_evals=1, cache_bytes_peak=x.nbytes + 16)


def test_taylor_history_ring(rng):
    model, params = make_model(rng)
    state = CacheState(order=1)
    x = rng.standard_normal((2, 2))
    for pair in [TimePair(0.9, 0.8), TimePair(0.7, 0.6), TimePair(0.5, 0.4)]:
        cache_init(model, params, x, pair, Condition(0), state)
    assert len(state.history) == 2  # ring holds the two most recent
    assert state.history[0][0].t == 0.7
    assert state.history[1][0].t == 0.5
    assert state.origin is state.history[-1][0]
    assert state.value is state.history[-1][1]
    with pytest.raises(ContractViolation, match="decreasing"):
        cache_init(model, params, x, TimePair(0.5, 0.4), Condition(0), state)


def test_naive_reuse_identity(rng):
    # naive reuse is the order-0 forecast on a ring of one: it returns the
    # cached tensor itself, for every offset and spacing
    state = CacheState()
    assert not state.history and state.value is None
    assert state.bytes_held() == 0
    with pytest.raises(CacheMissError):
        taylor_forecast(state, TimePair(0.5, 0.4), 0)
    model, params = make_model(rng)
    x = rng.standard_normal((3, 2))
    cache_init(model, params, x, TimePair(0.5, 0.4), Condition(0), state)
    u = cache_init(model, params, x, TimePair(0.4, 0.3), Condition(0), state)
    assert len(state.history) == 1 and state.value is u
    for query in (TimePair(0.3, 0.2), TimePair(0.2, 0.1), TimePair(0.1, 0.0)):
        assert taylor_forecast(state, query, 0) is state.value


# ---------------------------------------------------------------------------
# taylor_forecast
# ---------------------------------------------------------------------------

GRID = uniform_pairs(20)


def hist_state(entries, order):
    state = CacheState(order)
    for pair, v in entries:
        state.history.append((pair, np.asarray(v, dtype=np.float64)))
    return state


def test_constant_history_forecasts_constant():
    c = np.array([2.5, -1.0])
    state = hist_state([(GRID[0], c), (GRID[2], c), (GRID[4], c)], order=2)
    for k in (1, 2, 5):
        for m in (0, 1, 2):
            assert np.allclose(taylor_forecast(state, GRID[4 + k], m), c,
                               atol=0)


def test_hand_evaluated_first_order_case():
    # newest F = 4, previous F = 6 (difference 2), N = 2, k = 1 -> 3
    state = hist_state([(TimePair(0.9, 0.8), [6.0]),
                        (TimePair(0.7, 0.6), [4.0])], order=1)
    got = taylor_forecast(state, TimePair(0.6, 0.5), m=1)
    assert np.array_equal(got, np.array([3.0]))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_polynomial_history_exact(m):
    # degree-m polynomial in t on an N-spaced grid is extrapolated exactly
    rng = np.random.default_rng(m)
    coeffs = rng.standard_normal(m + 1)

    def poly(t):
        return np.array([sum(c * t ** i for i, c in enumerate(coeffs))])

    hist_js = list(range(0, 2 * (m + 1), 2))  # N = 2
    state = hist_state([(GRID[j], poly(GRID[j].t)) for j in hist_js], order=m)
    for k in (1, 2, 3):
        query = GRID[hist_js[-1] + k]
        got = taylor_forecast(state, query, m)
        assert abs(float(got[0]) - float(poly(query.t)[0])) < 1e-9


def test_m0_bitwise_equals_naive(rng):
    # m=0 on a longer ring still returns the newest entry itself
    state = hist_state([(TimePair(0.9, 0.8), [1.234567891234]),
                        (TimePair(0.7, 0.6), [9.87654321])], order=1)
    assert taylor_forecast(state, TimePair(0.6, 0.5), m=0) is state.value
    # and sampling with order-0 Taylor is sampling with naive reuse
    model, params = make_model(rng)
    x1 = rng.standard_normal((5, 2))
    for sched in (shipped_fixture(2), shipped_fixture(3), shipped_fixture(4),
                  pattern_schedule(10, N=3, warmup_full=1)):
        naive, rep_naive = cached_sample(model, params, sched, Strategy.NAIVE,
                                         x1, Condition(1))
        taylor, rep_taylor = cached_sample(model, params, sched,
                                           Strategy.TAYLOR, x1, Condition(1),
                                           taylor_order=0)
        assert naive.tobytes() == taylor.tobytes()
        assert rep_naive == rep_taylor
        assert rep_naive.cache_bytes_peak == x1.nbytes + 16


def test_insufficient_history_falls_back():
    state = hist_state([(TimePair(0.9, 0.8), [5.0])], order=2)
    assert np.array_equal(taylor_forecast(state, TimePair(0.8, 0.7), m=2),
                          np.array([5.0]))


def test_mixed_gaps_fall_to_the_trailing_order():
    # gaps of 1 then 2 steps (newest last): order 2 forecasts at order 1,
    # from the two newest entries and N = 2
    values = [[7.0], [6.0], [4.0]]
    mixed = hist_state(zip((GRID[0], GRID[1], GRID[3]), values), order=2)
    newest_two = hist_state(zip((GRID[1], GRID[3]), values[1:]), order=1)
    for k in (1, 2):
        got = taylor_forecast(mixed, GRID[3 + k], m=2)
        assert got.tobytes() == taylor_forecast(newest_two, GRID[3 + k],
                                                m=1).tobytes()
        assert np.array_equal(got, np.array([4.0 - k]))


def test_taylor_contract_errors():
    state = hist_state([(TimePair(0.9, 0.8), [5.0])], order=1)
    with pytest.raises(ContractViolation, match="order"):
        taylor_forecast(state, TimePair(0.8, 0.7), -1)
    for query in (TimePair(0.9, 0.8), TimePair(1.0, 0.9),
                  TimePair(0.86, 0.8)):  # not one grid step past 0.9
        with pytest.raises(ContractViolation, match="not past"):
            taylor_forecast(state, query, 1)
    flat = hist_state([(TimePair(0.9, 0.9), [5.0])], order=0)
    with pytest.raises(ContractViolation, match="zero width"):
        taylor_forecast(flat, TimePair(0.8, 0.7), 0)
    with pytest.raises(CacheMissError):
        taylor_forecast(CacheState(1), TimePair(0.8, 0.7), 1)


# ---------------------------------------------------------------------------
# learned strategy
# ---------------------------------------------------------------------------

def test_learned_predict_cache_miss(rng):
    model, _ = make_model(rng)
    pred, pp = make_predictor(rng, model)
    with pytest.raises(CacheMissError):
        learned_predict(pred, pp, CacheState(), np.zeros((1, 2)),
                        TimePair(0.5, 0.4), Condition(0))


def test_learned_out_of_horizon_counted_not_logged(rng, caplog):
    # one FULL step at t = 1, then nine learned queries 0.1 ... 0.9 past it
    model, params = make_model(rng)
    pred, pp = make_predictor(rng, model)
    sched = pattern_schedule(10, N=10)
    with caplog.at_level(logging.DEBUG, logger="flowcache"):
        _, report = cached_sample(model, params, sched, Strategy.LEARNED,
                                  np.zeros((1, 2)), Condition(0),
                                  predictor=pred, predictor_params=pp,
                                  delta_max=0.2)
    assert report.predictor_evals == 9
    assert report.out_of_horizon == 7  # 0.3 ... 0.9 past the origin
    assert caplog.records == []


@pytest.mark.parametrize("delta_max,past", [(0.2, 0), (0.05, 0), (0.01, 7),
                                            (None, 0)])
def test_cached_sample_counts_out_of_horizon_queries(rng, delta_max, past):
    # N=2 fixture: 7 learned queries, each 0.05 past its cache's origin
    model, params = make_model(rng)
    pred, pp = make_predictor(rng, model)
    _, report = cached_sample(model, params, shipped_fixture(2),
                              Strategy.LEARNED, rng.standard_normal((3, 2)),
                              Condition(0), predictor=pred,
                              predictor_params=pp, delta_max=delta_max)
    assert report.predictor_evals == 7
    assert report.out_of_horizon == past


def test_zero_init_predictor_outputs_zero(rng):
    model, params = make_model(rng)
    pred, pp = make_predictor(rng, model)
    state = CacheState()
    cache_init(model, params, np.ones((2, 2)), TimePair(0.9, 0.85),
               Condition(0), state)
    u = learned_predict(pred, pp, state, np.ones((2, 2)),
                        TimePair(0.85, 0.8), Condition(0))
    assert np.array_equal(u, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# cached_sample
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", list(Strategy))
def test_all_full_schedule_matches_uncached_bitwise(strategy, rng):
    model, params = make_model(rng)
    pred, pp = make_predictor(rng, model)
    sched = pattern_schedule(8, N=1)
    x1 = rng.standard_normal((6, 2))
    out, report = cached_sample(model, params, sched, strategy, x1,
                                Condition(1), predictor=pred,
                                predictor_params=pp)
    ref = mean_velocity_sample(model, params.entries, sched.pairs, x1,
                               Condition(1))
    assert np.array_equal(out, ref)
    assert report.full_evals == 8
    assert report.predictor_evals == 0


@pytest.mark.parametrize("strategy", list(Strategy))
def test_full_evals_match_schedule_count(strategy, rng):
    model, params = make_model(rng)
    pred, pp = make_predictor(rng, model)
    sched = shipped_fixture(2)
    x1 = rng.standard_normal((4, 2))
    _, report = cached_sample(model, params, sched, strategy, x1, Condition(0),
                              predictor=pred, predictor_params=pp)
    full, predict = sched.mode_counts()
    assert report.full_evals == full == 13
    assert report.predictor_evals == predict == 7


def test_learned_requires_predictor(rng):
    model, params = make_model(rng)
    sched = shipped_fixture(2)
    with pytest.raises(ContractViolation):
        cached_sample(model, params, sched, Strategy.LEARNED,
                      np.zeros((1, 2)), Condition(0))


def test_bit_exact_reproducibility(rng):
    model, params = make_model(rng)
    sched = shipped_fixture(3)
    x1 = rng.standard_normal((5, 2))
    a, _ = cached_sample(model, params, sched, Strategy.TAYLOR, x1, Condition(0))
    b, _ = cached_sample(model, params, sched, Strategy.TAYLOR, x1, Condition(0))
    assert np.array_equal(a, b)


def test_single_tensor_memory_invariant(rng):
    model, params = make_model(rng)
    pred, pp = make_predictor(rng, model)
    x1 = rng.standard_normal((4, 2))
    expected = x1.nbytes + 16  # one cached tensor plus origin metadata
    for total in (10, 20, 40):
        sched = pattern_schedule(total, N=2)
        for strategy in (Strategy.NAIVE, Strategy.LEARNED):
            _, report = cached_sample(model, params, sched, strategy, x1,
                                      Condition(0), predictor=pred,
                                      predictor_params=pp)
            assert report.cache_bytes_peak == expected
    # the taylor ring is allowed to hold order+1 tensors
    _, rep_taylor = cached_sample(model, params, pattern_schedule(20, N=2),
                                  Strategy.TAYLOR, x1, Condition(0),
                                  taylor_order=1)
    assert rep_taylor.cache_bytes_peak == 2 * expected


def test_negative_taylor_order_rejected(rng):
    model, params = make_model(rng)
    with pytest.raises(ContractViolation, match="order"):
        cached_sample(model, params, shipped_fixture(2), Strategy.TAYLOR,
                      np.zeros((1, 2)), Condition(0), taylor_order=-1)


def reference_taylor_walk(model, params, schedule, x1, cond, order):
    """The Taylor walk with the spacing kept beside the ring: the indices of
    the FULL steps give the offset k, the spacing N (the last gap) and the
    usable order (the trailing gaps equal to N), and the forecast caps that
    order again at the ring's length."""
    state = CacheState(order)
    x = np.asarray(x1, dtype=np.float64)
    full_indices = []
    for idx, (pair, mode) in enumerate(zip(schedule.pairs, schedule.modes)):
        if mode is StepMode.FULL:
            u = cache_init(model, params, x, pair, cond, state)
            full_indices.append(idx)
        else:
            gaps = [b - a for a, b in zip(full_indices[:-1], full_indices[1:])]
            n_eff = gaps[-1] if gaps else 1
            usable = 0
            for gap in reversed(gaps):
                if gap != n_eff:
                    break
                usable += 1
            newest_first = [v for _, v in reversed(state.history)]
            m_eff = min(order, usable, len(newest_first) - 1)
            diffs, level = [newest_first[0]], newest_first
            for _ in range(m_eff):
                level = [b - a for a, b in zip(level[:-1], level[1:])]
                diffs.append(level[0])
            s = (idx - full_indices[-1]) / n_eff
            u, coef = diffs[0], 1.0
            for i in range(1, m_eff + 1):
                coef *= (-s - (i - 1)) / i
                u = u + coef * diffs[i]
        x = mean_velocity_step(x, pair, u)
    return x


def random_schedule(rng):
    total, n = int(rng.integers(2, 30)), int(rng.integers(1, 6))
    modes, run = ["full"], 0
    for _ in range(total - 1):
        run = run + 1 if run < n - 1 and rng.random() < 0.6 else 0
        modes.append("predict" if run else "full")
    return pattern_schedule(total, n, explicit=modes)


def reference_schedules():
    rng = np.random.default_rng(2024)
    return ([shipped_fixture(n) for n in (2, 3, 4)]
            + [pattern_schedule(total, n, warmup)
               for total, n, warmup in ((3, 2, 0), (12, 5, 1), (20, 3, 4),
                                        (31, 4, 2), (97, 5, 3))]
            + [random_schedule(rng) for _ in range(24)])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_taylor_walk_matches_the_spacing_reference(order, rng):
    model, params = make_model(rng)
    x1 = rng.standard_normal((3, 2))
    for sched in reference_schedules():
        out, report = cached_sample(model, params, sched, Strategy.TAYLOR, x1,
                                    Condition(1), taylor_order=order)
        ref = reference_taylor_walk(model, params, sched, x1, Condition(1),
                                    order)
        assert out.tobytes() == ref.tobytes(), sched.modes
        assert ((report.full_evals, report.predictor_evals)
                == sched.mode_counts())


def test_taylor_adapts_to_fixture_spacing(rng):
    # the N=3 fixture ends with 1-spaced FULL runs: the ring's gaps change
    # from 3 to 2 to 1, and the walk drops its order as the reference does
    model, params = make_model(rng)
    sched = shipped_fixture(3)
    x1 = rng.standard_normal((3, 2))
    out, report = cached_sample(model, params, sched, Strategy.TAYLOR, x1,
                                Condition(0), taylor_order=2)
    ref = reference_taylor_walk(model, params, sched, x1, Condition(0), 2)
    assert out.tobytes() == ref.tobytes()
    assert report.full_evals == 11


def report_writes(tree, counted):
    """(enclosing function, attribute) of every assignment to an attribute
    named in `counted` in a module's syntax tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target]
                       if isinstance(child, (ast.AugAssign, ast.AnnAssign))
                       else [])
            found.extend((scope, target.attr) for target in targets
                         if isinstance(target, ast.Attribute)
                         and target.attr in counted)
            defines = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, child.name if defines else scope)
    visit(tree, "<module>")
    return found


def test_only_the_walker_writes_an_nfe_report():
    # cached_sample alone counts evaluations, bytes and out-of-horizon
    # queries; elsewhere a report is only built or read
    counted = {f.name for f in fields(NfeReport)}
    src = Path(flowcache.__file__).parent
    writes = {(path.name, scope, attr) for path in sorted(src.glob("*.py"))
              for scope, attr in report_writes(ast.parse(path.read_text()),
                                               counted)}
    assert {(module, scope) for module, scope, _ in writes} == {
        ("cache.py", "cached_sample")}
    assert {attr for *_, attr in writes} == counted
