"""Adam update against hand-evaluated reference formulas, its cosine
learning-rate schedule, the one step path; spectral normalization against
the SVD oracle."""

import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

import flowcache
from flowcache import autodiff as ad, optim
from flowcache.errors import ContractViolation, NumericFailure
from flowcache.optim import (OptimizerState, adam_step, cosine_lr, descend,
                             spectral_normalize)

from conftest import descended_grads, tiny_mlp_forward, tiny_mlp_params


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


@pytest.mark.parametrize("lr_final", [1e-3, None])
def test_scheduled_rate_follows_cosine_lr(lr_final):
    # each step must equal a constant-rate Adam step taken at
    # cosine_lr(lr, lr_final, it, iters), or at lr itself without lr_final
    lr, iters = 0.1, 7
    params = ad.ParameterSet({"w": np.array([10.0, -4.0])})
    state = OptimizerState.init(params, lr, lr_final, iters)
    ref_params = ad.ParameterSet({"w": params["w"].copy()})
    ref_state = OptimizerState.init(ref_params, lr)
    for it in range(iters):
        rate = lr if lr_final is None else cosine_lr(lr, lr_final, it, iters)
        assert state.current_lr == rate
        ref_state.lr = rate
        adam_step(params, {"w": 2.0 * (params["w"] - 3.0)}, state)
        adam_step(ref_params, {"w": 2.0 * (ref_params["w"] - 3.0)}, ref_state)
        assert np.array_equal(params["w"], ref_params["w"])
    if lr_final is not None:
        assert cosine_lr(lr, lr_final, iters - 1, iters) == lr_final


def linear_step(coefs, clip, monkeypatch):
    """`descend` on the loss sum(c * w) from w = 0: the gradient is coefs.
    Returns the step's report and the gradients it descended."""
    params = ad.ParameterSet({k: np.array([0.0]) for k in coefs})
    leaves = params.lift()
    loss = ad.sum_(ad.concat([ad.mul(leaves[k], c) for k, c in coefs.items()]))
    opt = OptimizerState.init(params, lr=0.1)
    seen = descended_grads(monkeypatch)
    report = descend(params, leaves, loss, opt, clip)
    (grads,) = seen
    return report, grads


def test_clip_grad_norm(monkeypatch):
    report, grads = linear_step({"a": 3.0, "b": 4.0}, 1.0, monkeypatch)
    assert abs(report.grad_norm - 5.0) < 1e-12
    assert abs(np.sqrt(grads["a"] ** 2 + grads["b"] ** 2) - 1.0) < 1e-12
    report2, grads2 = linear_step({"a": 0.3}, 1.0, monkeypatch)
    assert abs(report2.grad_norm - 0.3) < 1e-12
    assert np.array_equal(grads2["a"], np.array([0.3]))


@pytest.mark.parametrize("clip", [1.0, None])
def test_overflowing_gradient_norm_raises_before_the_update(clip):
    # every gradient is finite, but 1e200 squared overflows float64: with
    # clipping the step would scale to zero, without it Adam's second
    # moment would become infinite and w would never move again
    params = ad.ParameterSet({"w": np.array([1.0, 2.0]), "b": np.array([0.5])})
    leaves = params.lift()
    loss = ad.sum_(ad.mul(leaves["w"], 1e200))
    opt = OptimizerState.init(params, lr=0.1)
    before = params.copy()
    with pytest.raises(NumericFailure, match="gradient norm overflows float64"):
        descend(params, leaves, loss, opt, clip)
    assert opt.step_count == 0
    for name, p in params.entries.items():
        assert np.array_equal(p, before[name]), name
        assert not np.any(opt.first_moment[name]), name
        assert not np.any(opt.second_moment[name]), name


def test_clip_scales_a_shared_gradient_once(monkeypatch):
    # the add hands one cotangent array to both leaves: it is scaled once,
    # so the clipped norm is 1
    params = ad.ParameterSet({"a": np.array([3.0]), "b": np.array([4.0])})
    leaves = params.lift()
    loss = ad.sum_(ad.mul(ad.add(leaves["a"], leaves["b"]), 2.0))
    seen = descended_grads(monkeypatch)
    report = descend(params, leaves, loss, OptimizerState.init(params, lr=0.1), 1.0)
    (grads,) = seen
    assert report.grad_norm == np.sqrt(8.0)
    assert np.array_equal(grads["a"], np.array([2.0 * (1.0 / report.grad_norm)]))
    assert np.array_equal(grads["b"], grads["a"])


def tiny_mlp_step_loss(rng):
    """(params, leaves, loss of a tiny net, weak reference to the net's
    output value); no Node but the loss and the leaves stays bound."""
    params = tiny_mlp_params(rng)
    leaves = params.lift()
    out = tiny_mlp_forward(leaves, rng.standard_normal((4, 3)))
    output = weakref.ref(out.value)
    loss = ad.mean(ad.sum_(ad.square(ad.sub(out, rng.standard_normal((4, 2)))),
                           axis=1))
    del out
    return params, leaves, loss, output


def test_descend_frees_the_graph_before_the_update(rng, monkeypatch):
    params, leaves, loss, output = tiny_mlp_step_loss(rng)
    value = loss.value
    before = float(value)
    freed = []
    step = optim.adam_step

    def spy(params, grads, state):
        freed.append(output() is None)
        return step(params, grads, state)

    monkeypatch.setattr(optim, "adam_step", spy)
    report = descend(params, leaves, loss, OptimizerState.init(params, lr=0.1))
    assert freed == [True]
    assert report.loss == before
    assert loss.value is value and float(loss.value) == before


def test_backward_reruns_on_one_graph(rng):
    # `descend` consumes a graph; `backward` alone leaves it re-runnable
    _, leaves, loss, output = tiny_mlp_step_loss(rng)
    first = ad.param_grads(loss, leaves)
    second = ad.param_grads(loss, leaves)
    assert output() is not None
    assert set(first) == set(second) == set(leaves)
    for name, g in first.items():
        assert np.array_equal(g, second[name]), name


STEP_PARTS = {"adam_step", "clip_grad_norm", "global_grad_norm"}


def step_part_uses(tree):
    """(enclosing function, name) of every call to, or import of, a step
    part in a module's syntax tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = getattr(f, "id", getattr(f, "attr", ""))
                if name in STEP_PARTS:
                    found.append((scope, name))
            if isinstance(child, ast.ImportFrom):
                found.extend((scope, a.name) for a in child.names
                             if a.name in STEP_PARTS)
            defines = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, child.name if defines else scope)
    visit(tree, "<module>")
    return found


def test_every_update_goes_through_descend():
    # the gradient norm, the clipping and the Adam update are taken by
    # optim.descend alone, so every stage's step and record is that one
    src = Path(flowcache.__file__).parent
    uses = {path.name: step_part_uses(ast.parse(path.read_text()))
            for path in sorted(src.glob("*.py"))}
    outside = {(module, scope, name) for module, found in uses.items()
               for scope, name in found
               if (module, scope) != ("optim.py", "descend")}
    assert outside == set()
    assert ("descend", "adam_step") in uses["optim.py"]


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
    assert np.array_equal(node.value, raw)


def test_graph_zero_weight_passes_through():
    leaf = ad.leaf(np.zeros((3, 2)))
    u = np.ones(3)
    out, u_out, degenerate = spectral_normalize(leaf, u)
    assert degenerate and out is leaf and u_out is u
