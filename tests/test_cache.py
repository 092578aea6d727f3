"""Schedule building, cache accounting, and the three prediction strategies
(including Newton-form Taylor exactness on polynomial histories)."""

import logging

import numpy as np
import pytest

from flowcache import cache as fc
from flowcache.cache import (CacheState, NfeReport, ScheduleSpec, StepMode,
                             Strategy, cache_init, cached_sample,
                             learned_predict, taylor_forecast)
from flowcache.errors import CacheMissError, ContractViolation
from flowcache.flow import TimePair, mean_velocity_sample
from flowcache.nets import (Condition, Predictor, PredictorConfig,
                            VelocityModel, VelocityModelConfig)


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
                        explicit=explicit).build()


def shipped_fixture(N):
    return ScheduleSpec(max_interval=N).build()


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
    report = NfeReport()
    x = rng.standard_normal((4, 2))
    pair = TimePair(0.9, 0.85)
    u = cache_init(model, params, x, pair, Condition(0), state, report)
    assert report.full_evals == 1
    assert report.cache_bytes_peak == state.bytes_held() == x.nbytes + 16
    direct = model.forward(params.entries, x, pair.t, pair.r, Condition(0))
    assert np.array_equal(u, direct)
    assert state.value is u
    assert state.origin == pair


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
    assert not state.initialized and state.value is None
    assert state.bytes_held() == 0
    with pytest.raises(CacheMissError):
        taylor_forecast(state, 1, 1, 0)
    model, params = make_model(rng)
    x = rng.standard_normal((3, 2))
    cache_init(model, params, x, TimePair(0.5, 0.4), Condition(0), state)
    u = cache_init(model, params, x, TimePair(0.4, 0.3), Condition(0), state)
    assert len(state.history) == 1 and state.value is u
    for k, N in ((1, 1), (1, 2), (3, 4)):
        assert taylor_forecast(state, k, N, 0) is state.value


# ---------------------------------------------------------------------------
# taylor_forecast
# ---------------------------------------------------------------------------

def hist_state(entries, order):
    state = CacheState(order)
    for pair, v in entries:
        state.history.append((pair, np.asarray(v, dtype=np.float64)))
    return state


def test_constant_history_forecasts_constant():
    c = np.array([2.5, -1.0])
    state = hist_state([(TimePair(0.9, 0.8), c), (TimePair(0.7, 0.6), c),
                        (TimePair(0.5, 0.4), c)], order=2)
    for k in (1, 2, 5):
        for m in (0, 1, 2):
            assert np.allclose(taylor_forecast(state, k, 2, m), c, atol=0)


def test_hand_evaluated_first_order_case():
    # newest F = 4, previous F = 6 (difference 2), N = 2, k = 1 -> 3
    state = hist_state([(TimePair(0.9, 0.8), [6.0]),
                        (TimePair(0.7, 0.6), [4.0])], order=1)
    got = taylor_forecast(state, k=1, N=2, m=1)
    assert np.array_equal(got, np.array([3.0]))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_polynomial_history_exact(m):
    # degree-m polynomial in t on an N-spaced grid is extrapolated exactly
    rng = np.random.default_rng(m)
    coeffs = rng.standard_normal(m + 1)

    def poly(t):
        return np.array([sum(c * t ** i for i, c in enumerate(coeffs))])

    total, N = 20, 2
    grid = [1.0 - j / total for j in range(total + 1)]
    hist_js = [0, 2, 4][: m + 1] if m else [0]
    hist_js = list(range(0, 2 * (m + 1), 2))
    entries = [(TimePair(grid[j], grid[j + 1]), poly(grid[j])) for j in hist_js]
    state = hist_state(entries, order=m)
    newest_j = hist_js[-1]
    for k in (1, 2, 3):
        target_t = grid[newest_j + k]
        got = taylor_forecast(state, k, N, m)
        assert abs(float(got[0]) - float(poly(target_t)[0])) < 1e-9


def test_m0_bitwise_equals_naive(rng):
    # m=0 on a longer ring still returns the newest entry itself
    state = hist_state([(TimePair(0.9, 0.8), [1.234567891234]),
                        (TimePair(0.7, 0.6), [9.87654321])], order=1)
    assert taylor_forecast(state, k=1, N=2, m=0) is state.value
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
    assert np.array_equal(taylor_forecast(state, 1, 2, m=2), np.array([5.0]))


def test_taylor_contract_errors():
    state = hist_state([(TimePair(0.9, 0.8), [5.0])], order=1)
    with pytest.raises(ContractViolation):
        taylor_forecast(state, 0, 2, 1)
    with pytest.raises(ContractViolation):
        taylor_forecast(state, 1, 0, 1)
    with pytest.raises(CacheMissError):
        taylor_forecast(CacheState(1), 1, 2, 1)


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
    model, params = make_model(rng)
    pred, pp = make_predictor(rng, model)
    state = CacheState()
    cache_init(model, params, np.zeros((1, 2)), TimePair(0.9, 0.85),
               Condition(0), state)
    report = NfeReport()
    with caplog.at_level(logging.DEBUG, logger="flowcache"):
        for pair in (TimePair(0.3, 0.25), TimePair(0.75, 0.7),
                     TimePair(0.7, 0.65), TimePair(0.69, 0.6)):
            learned_predict(pred, pp, state, np.zeros((1, 2)), pair,
                            Condition(0), delta_max=0.2, report=report)
    assert report.out_of_horizon == 2  # 0.6 and 0.21 past the origin
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


def test_taylor_adapts_to_fixture_spacing(rng):
    # the N=3 fixture ends with 1-spaced FULL runs; the sampler must not
    # extrapolate with stale spacing (this also exercises the fallback path)
    model, params = make_model(rng)
    sched = shipped_fixture(3)
    x1 = rng.standard_normal((3, 2))
    out, report = cached_sample(model, params, sched, Strategy.TAYLOR, x1,
                                Condition(0), taylor_order=2)
    assert np.all(np.isfinite(out))
    assert report.full_evals == 11


def test_broken_nfe_accounting_raises(rng, monkeypatch):
    # a refresh that skips its count must fail loudly, also under python -O
    model, params = make_model(rng)
    original = fc.cache_init
    monkeypatch.setattr(fc, "cache_init", lambda *args: original(*args[:6]))
    with pytest.raises(ContractViolation, match="NFE accounting"):
        cached_sample(model, params, shipped_fixture(2), Strategy.NAIVE,
                      rng.standard_normal((2, 2)), Condition(0))
