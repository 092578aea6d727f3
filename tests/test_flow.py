"""Distributions, the interpolation path, samplers, and the gaussian1d
analytic oracles (with the RK4 fine-step integrator as the independent
reference)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcache import autodiff as ad
from flowcache import flow
from flowcache.errors import ContractViolation
from flowcache.flow import (TimePair, ToyDistribution,
                            analytic_gaussian_velocity, analytic_mean_velocity,
                            draw_path, interpolate, mean_velocity_step,
                            sample_data, squared_error_loss, uniform_pairs)
from flowcache.nets import Condition, VelocityModel, VelocityModelConfig
from flowcache.optim import TrainSettings


def rk4_flow(x, t_from, t_to, sigma_d, substeps=10 ** 4):
    """Classical RK4 on the path ODE dx/dtau = a(tau) x; the test oracle."""
    def a(tau):
        return (tau - (1 - tau) * sigma_d ** 2) / ((1 - tau) ** 2 * sigma_d ** 2 + tau ** 2)

    x = np.asarray(x, dtype=np.float64)
    h = (t_to - t_from) / substeps
    for i in range(substeps):
        tau = t_from + i * h
        k1 = a(tau) * x
        k2 = a(tau + h / 2) * (x + h / 2 * k1)
        k3 = a(tau + h / 2) * (x + h / 2 * k2)
        k4 = a(tau + h) * (x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def euler_walk(field, x1, steps: int):
    """Backward Euler walk of dx/dt = field(x, t) from t=1 to t=0."""
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    x = np.asarray(x1, dtype=np.float64)
    dt = 1.0 / steps
    for j in range(steps):
        t = 1.0 - j / steps
        x = x - dt * field(x, t)
    return x


def euler_sample(model, params, x1, steps: int, cond=Condition(),
                 cfg_scale=None):
    """Euler integration of a learned field; with cfg_scale set, each step
    uses the guided mixture g*v_c + (1-g)*v_uc (null-condition branch)."""
    if cfg_scale is None:
        def field(x, t):
            return ad.value_of(model.forward(params, x, t, None, cond))
    else:
        uncond = Condition(class_id=None, cfg_scale=cond.cfg_scale)

        def field(x, t):
            vc = ad.value_of(model.forward(params, x, t, None, cond))
            vu = ad.value_of(model.forward(params, x, t, None, uncond))
            return cfg_scale * vc + (1.0 - cfg_scale) * vu

    return euler_walk(field, x1, steps)


# ---------------------------------------------------------------------------
# TimePair and the interpolation path
# ---------------------------------------------------------------------------

@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=50)
def test_timepair_invariant(a, b):
    t, r = max(a, b), min(a, b)
    pair = TimePair(t, r)
    assert 0.0 <= pair.r <= pair.t <= 1.0
    assert pair.interval == t - r


def test_timepair_rejects_bad_order():
    with pytest.raises(ContractViolation):
        TimePair(0.3, 0.5)
    with pytest.raises(ContractViolation):
        TimePair(1.2, 0.5)


def test_interpolate_is_the_path_identity(rng):
    x0 = rng.standard_normal((4, 2))
    x1 = rng.standard_normal((4, 2))
    assert np.array_equal(interpolate(x0, x1, 0.3), 0.7 * x0 + 0.3 * x1)
    assert np.array_equal(interpolate(x0, x1, 0.0), x0)
    assert np.array_equal(interpolate(x0, x1, 1.0), x1)


def test_draw_path_draws_the_class_then_its_noise():
    # the order fixes every training stage's stream, so every digest
    dist = ToyDistribution("checkerboard")
    x0, x1 = draw_path(dist, 1, 5, dist.rng_for(3))
    rng = dist.rng_for(3)
    assert np.array_equal(x0, dist.sample_class(1, 5, rng))
    assert np.array_equal(x1, rng.standard_normal((5, 2)))


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_gaussian1d_variance_lln():
    dist = ToyDistribution("gaussian1d", sigma=1.0)
    x = sample_data(dist, 10 ** 5, seed=42)
    assert 0.98 <= float(x.var()) <= 1.02


def test_same_seed_bit_identical():
    dist = ToyDistribution("two_moons")
    a = sample_data(dist, 500, seed=9)
    b = sample_data(dist, 500, seed=9)
    assert np.array_equal(a, b)
    c = sample_data(dist, 500, seed=10)
    assert not np.array_equal(a, c)


def test_two_moons_bounding_box():
    dist = ToyDistribution("two_moons")
    x = sample_data(dist, 1000, seed=3)
    assert np.all(np.abs(x) <= 2.5)


def test_checkerboard_occupies_dark_cells_only():
    dist = ToyDistribution("checkerboard")
    x, labels = dist.sample_labeled(4000, dist.rng_for(5))
    assert np.all(np.abs(x) <= 2.0)
    col = np.floor(x[:, 0] + 2.0).astype(int)
    row = np.floor(x[:, 1] + 2.0).astype(int)
    assert np.all((col + row) % 2 == 0)
    assert np.all(col % 2 == labels)


def test_eight_gaussians_modes():
    dist = ToyDistribution("eight_gaussians")
    x, labels = dist.sample_labeled(2000, dist.rng_for(1))
    angles = 2 * np.pi * labels / 8
    centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert np.all(np.linalg.norm(x - centers, axis=1) < 0.12 * 6)


def test_unknown_kind_rejected():
    with pytest.raises(ContractViolation):
        ToyDistribution("spiral")


def test_class_conditional_sampling():
    dist = ToyDistribution("eight_gaussians")
    x = dist.sample_class(3, 100, dist.rng_for(0))
    center = 2.0 * np.array([np.cos(2 * np.pi * 3 / 8), np.sin(2 * np.pi * 3 / 8)])
    assert np.all(np.linalg.norm(x - center, axis=1) < 0.8)


# ---------------------------------------------------------------------------
# regression loss
# ---------------------------------------------------------------------------

def test_squared_error_loss_zero_at_target(rng):
    target = rng.standard_normal((6, 3)) - rng.standard_normal((6, 3))
    assert float(ad.value_of(squared_error_loss(target.copy(), target))) == 0.0


def test_squared_error_loss_constant_offset_equals_dim(rng):
    d = 3
    target = rng.standard_normal((6, d)) - rng.standard_normal((6, d))
    loss = squared_error_loss(target + 1.0, target)
    assert abs(float(ad.value_of(loss)) - d) < 1e-12


def test_train_base_rejects_interval_model():
    m = VelocityModel(VelocityModelConfig(input_dim=2, hidden_dim=8, depth=1,
                                          time_embed_dim=4, accepts_r=True))
    with pytest.raises(ContractViolation, match="accepts_r=False"):
        flow.train_base(m, ToyDistribution("two_moons"),
                        TrainSettings(iters=1, batch_size=2, lr=1e-3))


# ---------------------------------------------------------------------------
# euler sampler
# ---------------------------------------------------------------------------

def test_euler_zero_model_returns_noise(rng):
    m = VelocityModel(VelocityModelConfig(input_dim=2, hidden_dim=8, depth=1,
                                          time_embed_dim=4))
    p = m.init_params(rng)  # zero-init output => zero field
    x1 = rng.standard_normal((7, 2))
    for steps in (1, 5, 32):
        out = euler_sample(m, p.entries, x1, steps, Condition(0))
        assert np.array_equal(out, x1)


def test_euler_cfg_one_equals_unguided(rng):
    m = VelocityModel(VelocityModelConfig(input_dim=2, hidden_dim=16, depth=2,
                                          time_embed_dim=8, condition_vocab=2))
    p = m.init_params(rng)
    for k in p.entries:
        p.entries[k] = 0.3 * rng.standard_normal(p.entries[k].shape)
    x1 = rng.standard_normal((5, 2))
    unguided = euler_sample(m, p.entries, x1, 16, Condition(1))
    guided = euler_sample(m, p.entries, x1, 16, Condition(1), cfg_scale=1.0)
    assert np.array_equal(unguided, guided)


def test_euler_analytic_field_variance():
    sigma_d = 1.0
    x1 = np.random.default_rng(11).standard_normal((200_000, 1))
    out = euler_walk(lambda x, t: ad.value_of(analytic_gaussian_velocity(x, t, sigma_d)),
                     x1, 256)
    assert abs(float(out.var()) - sigma_d ** 2) / sigma_d ** 2 < 0.02


def test_euler_first_order_convergence():
    sigma_d = 2.0
    x1 = np.array([[1.0], [-0.7], [0.3]])
    exact = sigma_d * x1  # solution operator is s(0)/s(1) = sigma_d
    errs = []
    step_counts = [8, 16, 32, 64, 128]
    for steps in step_counts:
        out = euler_walk(lambda x, t: ad.value_of(analytic_gaussian_velocity(x, t, sigma_d)),
                         x1, steps)
        errs.append(np.abs(out - exact).max())
    slopes = np.diff(np.log(errs)) / np.diff(np.log(step_counts))
    assert 0.8 <= -np.mean(slopes) <= 1.2


def test_euler_zero_steps_rejected():
    with pytest.raises(ContractViolation):
        euler_walk(lambda x, t: x, np.zeros((1, 1)), 0)


# ---------------------------------------------------------------------------
# mean-velocity stepping
# ---------------------------------------------------------------------------

def test_mean_velocity_step_trivials():
    x = np.array([[5.0]])
    assert np.array_equal(mean_velocity_step(x, TimePair(0.4, 0.4), np.array([[9.9]])), x)
    got = mean_velocity_step(x, TimePair(1.0, 0.0), np.array([[2.0]]))
    assert np.array_equal(got, np.array([[3.0]]))


def test_mean_velocity_contiguous_telescoping(rng):
    x1 = rng.standard_normal((4, 2))
    pairs = uniform_pairs(10)
    us = [rng.standard_normal((4, 2)) for _ in pairs]
    x = x1.copy()
    for pair, u in zip(pairs, us):
        x = mean_velocity_step(x, pair, u)
    direct = x1 - sum(p.interval * u for p, u in zip(pairs, us))
    assert np.allclose(x, direct, atol=1e-12)


def test_uniform_pairs_contiguity_and_cover():
    pairs = uniform_pairs(20)
    for a, b in zip(pairs[:-1], pairs[1:]):
        assert a.r == b.t  # exact, same grid value
    assert pairs[0].t == 1.0 and pairs[-1].r == 0.0
    assert abs(sum(p.interval for p in pairs) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# analytic oracles
# ---------------------------------------------------------------------------

def test_analytic_velocity_values():
    x = np.array([[2.0], [-1.0]])
    assert np.allclose(ad.value_of(analytic_gaussian_velocity(x, 0.5, 1.0)), 0.0)
    assert np.allclose(ad.value_of(analytic_gaussian_velocity(x, 1.0, 1.0)), x)
    z = np.zeros((3, 1))
    for sd in (0.5, 1.0, 2.0):
        assert np.array_equal(ad.value_of(analytic_gaussian_velocity(z, 0.3, sd)), z)


def test_analytic_mean_velocity_limit_to_instantaneous():
    x = np.array([[1.3]])
    sd = 1.4
    v_inst = ad.value_of(analytic_gaussian_velocity(x, 0.6, sd))
    gaps = [0.1, 0.05, 0.025, 0.0125]
    errs = [abs(float(ad.value_of(
        analytic_mean_velocity(x, 0.6, 0.6 - g, sd))[0, 0]) - float(v_inst[0, 0]))
        for g in gaps]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    assert all(1.5 < r < 2.5 for r in ratios)  # O(t-r) convergence


def test_analytic_mean_velocity_zero_input():
    out = analytic_mean_velocity(np.zeros((2, 1)), 0.9, 0.3, 1.0)
    assert np.array_equal(ad.value_of(out), np.zeros((2, 1)))


def test_analytic_mean_velocity_vs_rk4_oracle():
    u = float(ad.value_of(analytic_mean_velocity(np.array([[1.0]]), 1.0, 0.8, 1.0))[0, 0])
    x_r = float(rk4_flow(np.array([[1.0]]), 1.0, 0.8, 1.0)[0, 0])
    u_oracle = (1.0 - x_r) / 0.2
    assert abs(u - u_oracle) < 1e-8


def test_analytic_mean_velocity_requires_gap():
    with pytest.raises(ContractViolation):
        analytic_mean_velocity(np.zeros((1, 1)), 0.5, 0.5, 1.0)


@pytest.mark.parametrize("steps", [1, 3, 7])
def test_schedule_with_exact_mean_velocity_matches_ode(steps):
    sigma_d = 1.3
    x1 = np.array([[0.9], [-0.4], [2.0]])
    x = x1.copy()
    for pair in uniform_pairs(steps):
        u = ad.value_of(analytic_mean_velocity(x, pair.t, pair.r, sigma_d))
        x = mean_velocity_step(x, pair, u)
    ref = rk4_flow(x1, 1.0, 0.0, sigma_d)
    assert np.abs(x - ref).max() < 1e-6


# ---------------------------------------------------------------------------
# base training (short smoke; the analytic-minimum check is in acceptance)
# ---------------------------------------------------------------------------

def test_train_base_decreases_loss():
    dist = ToyDistribution("gaussian1d")
    m = VelocityModel(VelocityModelConfig(input_dim=1, hidden_dim=16, depth=2,
                                          time_embed_dim=8, condition_vocab=1))
    params, reports = flow.train_base(
        m, dist, TrainSettings(iters=400, batch_size=64, lr=3e-3), seed=0)
    assert len(reports) == 400
    assert all(r.lr == 3e-3 and np.isfinite(r.grad_norm) for r in reports)
    losses = [r.loss for r in reports]
    assert np.mean(losses[-50:]) < np.mean(losses[:50])
    assert all(np.isfinite(losses))
