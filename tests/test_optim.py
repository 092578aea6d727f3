"""Adam update against hand-evaluated reference formulas; spectral
normalization against the SVD oracle."""

import numpy as np
import pytest

from flowcache import autodiff as ad
from flowcache.errors import ContractViolation, NumericFailure
from flowcache.optim import (OptimizerState, adam_step, clip_grad_norm,
                             global_grad_norm, spectral_normalize)


def reference_adam(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent scalar Adam, straight from the published update rules."""
    w, m, v = float(w0), 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        w -= lr * mhat / (np.sqrt(vhat) + eps)
    return w


def test_zero_gradient_leaves_parameters_unchanged():
    params = ad.ParameterSet({"w": np.array([1.5, -2.0])})
    state = OptimizerState.init(params, lr=0.1)
    before = params["w"].copy()
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], before)
    assert state.step_count == 1
    assert params.version == 1


def test_first_step_is_unit_scale():
    # g=1, lr=0.1, eps=1e-8: bias-corrected first step is ~ -0.1
    params = ad.ParameterSet({"w": np.array([0.0])})
    state = OptimizerState.init(params, lr=0.1)
    adam_step(params, {"w": np.array([1.0])}, state)
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(params["w"][0] - expected) < 1e-15


def test_matches_reference_adam_trajectory():
    # quadratic loss (w - 3)^2; compare against the independent reference
    params = ad.ParameterSet({"w": np.array([10.0])})
    state = OptimizerState.init(params, lr=0.05)
    for _ in range(250):
        g = 2.0 * (params["w"] - 3.0)
        adam_step(params, {"w": g}, state)
    ref = reference_adam(10.0, lambda w: 2.0 * (w - 3.0), lr=0.05, steps=250)
    assert abs(params["w"][0] - ref) < 1e-12


def test_converges_on_quadratic():
    params = ad.ParameterSet({"w": np.array([5.0])})
    state = OptimizerState.init(params, lr=0.05)
    for _ in range(1000):
        g = 2.0 * (params["w"] - 1.25)
        adam_step(params, {"w": g}, state)
    assert abs(params["w"][0] - 1.25) < 1e-3


def test_nan_gradient_rejected_params_untouched():
    params = ad.ParameterSet({"w": np.array([1.0]), "b": np.array([2.0])})
    state = OptimizerState.init(params, lr=0.1)
    before_w, before_b = params["w"].copy(), params["b"].copy()
    with pytest.raises(NumericFailure):
        adam_step(params, {"w": np.array([np.nan]), "b": np.array([1.0])}, state)
    assert np.array_equal(params["w"], before_w)
    assert np.array_equal(params["b"], before_b)
    assert state.step_count == 0


def test_bad_betas_rejected():
    params = ad.ParameterSet({"w": np.array([1.0])})
    with pytest.raises(ContractViolation):
        OptimizerState.init(params, lr=0.1, beta1=1.0)


def test_clip_grad_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_grad_norm(grads, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(global_grad_norm(grads) - 1.0) < 1e-12
    grads2 = {"a": np.array([0.3])}
    norm2 = clip_grad_norm(grads2, max_norm=1.0)
    assert abs(norm2 - 0.3) < 1e-12
    assert np.array_equal(grads2["a"], np.array([0.3]))


# ---------------------------------------------------------------------------
# spectral normalization
# ---------------------------------------------------------------------------

def test_scaled_identity_normalizes_to_identity():
    w = 3.0 * np.eye(2)
    u = np.array([1.0, 0.0])
    wn, _, degenerate = spectral_normalize(w, u)
    assert not degenerate
    assert np.allclose(wn, np.eye(2), atol=1e-12)


def test_converged_power_iteration_hits_svd_sigma():
    w = np.diag([2.0, 1.0])
    u = np.array([0.7, 0.7])
    for _ in range(25):
        wn, u, degenerate = spectral_normalize(w, u)
    assert not degenerate
    sigma = np.linalg.svd(wn, compute_uv=False)[0]
    assert abs(sigma - 1.0) < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rectangular_sigma_in_unit_band(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((4, 3))
    u = rng.standard_normal(4)
    for _ in range(50):
        wn, u, _ = spectral_normalize(w, u)
    sigma = np.linalg.svd(wn, compute_uv=False)[0]
    assert 0.99 <= sigma <= 1.01


def test_zero_weight_degenerate_flag():
    w = np.zeros((3, 2))
    u = np.ones(3)
    wn, u_out, degenerate = spectral_normalize(w, u)
    assert degenerate
    assert np.array_equal(wn, w)
    assert np.array_equal(u_out, u)


def test_scale_equivariance_in_direction():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((5, 4))
    u = rng.standard_normal(5)
    for _ in range(100):  # converge u first
        _, u, _ = spectral_normalize(w, u)
    for c in (0.5, 2.0, 17.0):
        wn1, _, _ = spectral_normalize(w, u.copy())
        wn2, _, _ = spectral_normalize(c * w, u.copy())
        assert np.max(np.abs(wn1 - wn2)) < 1e-12


def test_u_state_contract():
    w = np.eye(2)
    with pytest.raises(ContractViolation):
        spectral_normalize(w, np.zeros(2))
    with pytest.raises(ContractViolation):
        spectral_normalize(w, np.ones(3))


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (16, 1)])
def test_graph_weight_matches_raw_call(shape):
    rng = np.random.default_rng(11)
    w = rng.standard_normal(shape)
    u = rng.standard_normal(shape[0])
    raw, u_raw, raw_degenerate = spectral_normalize(w, u)
    node, u_node, node_degenerate = spectral_normalize(ad.leaf(w), u)
    assert isinstance(node, ad.Node)
    assert not raw_degenerate and not node_degenerate
    assert np.array_equal(u_node, u_raw)
    # sigma is summed in a different order in the graph: equal to rounding
    assert np.max(np.abs(node.value - raw)) <= 1e-14 * np.max(np.abs(raw))


def test_graph_zero_weight_passes_through():
    leaf = ad.leaf(np.zeros((3, 2)))
    u = np.ones(3)
    out, u_out, degenerate = spectral_normalize(leaf, u)
    assert degenerate and out is leaf and u_out is u
