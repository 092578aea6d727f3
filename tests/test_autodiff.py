"""Engine correctness: every primitive's reverse and forward rules against
central finite differences, plus the stopgrad/hinge contracts."""

import numpy as np
import pytest

from flowcache import autodiff as ad
from flowcache.errors import ContractViolation, NumericFailure

from conftest import fd_grad, fd_directional, rel_err, tiny_mlp_params, tiny_mlp_loss


# ---------------------------------------------------------------------------
# Spec'd examples
# ---------------------------------------------------------------------------

def test_grad_sum_square():
    # d(w^2)/dw = 2w at w=[3] -> [6]
    params = ad.ParameterSet({"w": np.array([3.0])})
    loss, gs = ad.grad(lambda p: ad.sum_(ad.square(p["w"])), params)
    assert loss == 9.0
    assert np.array_equal(gs["w"], np.array([6.0]))


def test_grad_perfect_fit_is_zero():
    # loss = mean((w*x - y)^2) with w=1, x=2, y=2
    params = ad.ParameterSet({"w": np.array([1.0])})
    x, y = np.array([2.0]), np.array([2.0])

    def loss_fn(p):
        return ad.mean(ad.square(ad.sub(ad.mul(p["w"], x), y)))

    loss, gs = ad.grad(loss_fn, params)
    assert loss == 0.0
    assert np.array_equal(gs["w"], np.array([0.0]))


def test_param_grads_zero_for_unreached_leaf():
    leaves = ad.ParameterSet({"w": np.array([3.0]),
                              "unused": np.ones((2, 3))}).lift()
    gs = ad.param_grads(ad.sum_(ad.square(leaves["w"])), leaves)
    assert np.array_equal(gs["w"], np.array([6.0]))
    assert np.array_equal(gs["unused"], np.zeros((2, 3)))


def test_jvp_square_scalar():
    out, tan = ad.jvp(lambda x: ad.square(x), [3.0], [1.0])
    assert out == 9.0
    assert tan == 6.0


def test_jvp_linear_map_direction():
    # fn(x, r, t) = A @ x with tangents (v, 0, 1) -> tangent A @ v exactly
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 4))
    v = rng.standard_normal(4)
    x = rng.standard_normal(4)

    def fn(x, r, t):
        return ad.matmul(A, ad.reshape(x, (4, 1)))

    (out,), (tan,) = ad.jvp(lambda x, r, t: (fn(x, r, t),), (x, 0.3, 0.8), (v, 0.0, 1.0))
    assert np.allclose(out[:, 0], A @ x, rtol=0, atol=0)
    assert rel_err(tan[:, 0], A @ v) < 1e-12


# ---------------------------------------------------------------------------
# Per-primitive finite-difference checks (reverse and forward rules)
# ---------------------------------------------------------------------------

UNARY_CASES = [
    ("sin", ad.sin, (3, 4), None),
    ("cos", ad.cos, (3, 4), None),
    ("tanh", ad.tanh, (3, 4), None),
    ("gelu", ad.gelu, (3, 4), None),
    ("square", ad.square, (3, 4), None),
    ("sqrt", ad.sqrt, (3, 4), "positive"),
    ("neg", ad.neg, (3, 4), None),
    ("sum", lambda a: ad.sum_(a, axis=1), (3, 4), None),
    ("mean", lambda a: ad.mean(a, axis=0), (3, 4), None),
    ("maximum_const", lambda a: ad.maximum_const(a, 0.1), (3, 4), "offkink"),
    ("narrow", lambda a: ad.narrow(a, 1, 1, 2), (3, 4), None),
    ("reshape", lambda a: ad.reshape(a, (4, 3)), (3, 4), None),
]


@pytest.mark.parametrize("name,fn,shape,domain", UNARY_CASES)
def test_unary_rules_match_fd(name, fn, shape, domain, rng):
    for trial in range(5):
        x = rng.standard_normal(shape)
        if domain == "positive":
            x = np.abs(x) + 0.5
        if domain == "offkink":
            x = x + np.where(np.abs(x - 0.1) < 0.05, 0.2, 0.0)
        out_shape = np.shape(ad.value_of(fn(x)))
        w = rng.standard_normal(out_shape)  # projection weights for a scalar loss

        def scalar(xa):
            return float(np.sum(np.asarray(ad.value_of(fn(xa))) * w))

        # reverse rule
        leafx = ad.leaf(x)
        out = fn(leafx)
        loss = ad.sum_(ad.mul(out, w))
        grads = ad.backward(loss)
        g = ad.grad_of(grads, leafx)
        assert rel_err(g, fd_grad(scalar, x.copy())) < 1e-4, name

        # forward rule
        d = rng.standard_normal(shape)
        _, tan = ad.jvp(lambda xa: fn(xa), [x], [d])
        assert rel_err(tan, fd_directional(lambda xa: ad.value_of(fn(xa)), [x], [d])) < 1e-4, name


BINARY_CASES = [
    ("add", ad.add, (3, 4), (3, 4)),
    ("add_broadcast", ad.add, (3, 4), (4,)),
    ("sub", ad.sub, (3, 4), (3, 4)),
    ("mul", ad.mul, (3, 4), (3, 4)),
    ("mul_broadcast", ad.mul, (3, 4), (1, 4)),
    ("div", ad.div, (3, 4), (3, 4)),
    ("matmul", ad.matmul, (3, 4), (4, 2)),
    ("matmul_vec", ad.matmul, (4,), (4, 2)),
]


@pytest.mark.parametrize("name,fn,sa,sb", BINARY_CASES)
def test_binary_rules_match_fd(name, fn, sa, sb, rng):
    for trial in range(5):
        a = rng.standard_normal(sa)
        b = rng.standard_normal(sb)
        if name == "div":
            b = b + np.sign(b) * 1.0  # keep away from zero
        out_shape = np.shape(ad.value_of(fn(a, b)))
        w = rng.standard_normal(out_shape)

        la, lb = ad.leaf(a), ad.leaf(b)
        loss = ad.sum_(ad.mul(fn(la, lb), w))
        grads = ad.backward(loss)

        def scalar_a(xa):
            return float(np.sum(ad.value_of(fn(xa, b)) * w))

        def scalar_b(xb):
            return float(np.sum(ad.value_of(fn(a, xb)) * w))

        assert rel_err(ad.grad_of(grads, la), fd_grad(scalar_a, a.copy())) < 1e-4, name
        assert rel_err(ad.grad_of(grads, lb), fd_grad(scalar_b, b.copy())) < 1e-4, name

        da = rng.standard_normal(sa)
        db = rng.standard_normal(sb)
        _, tan = ad.jvp(lambda xa, xb: fn(xa, xb), [a, b], [da, db])
        ref = fd_directional(lambda xa, xb: ad.value_of(fn(xa, xb)), [a, b], [da, db])
        assert rel_err(tan, ref) < 1e-4, name


def test_concat_rules_match_fd(rng):
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 5))
    w = rng.standard_normal((3, 7))
    la, lb = ad.leaf(a), ad.leaf(b)
    loss = ad.sum_(ad.mul(ad.concat([la, lb], axis=1), w))
    grads = ad.backward(loss)
    assert np.array_equal(ad.grad_of(grads, la), w[:, :2])
    assert np.array_equal(ad.grad_of(grads, lb), w[:, 2:])

    da, db = rng.standard_normal((3, 2)), rng.standard_normal((3, 5))
    _, tan = ad.jvp(lambda xa, xb: ad.concat([xa, xb], axis=1), [a, b], [da, db])
    assert np.array_equal(tan, np.concatenate([da, db], axis=1))


# ---------------------------------------------------------------------------
# Whole-net checks
# ---------------------------------------------------------------------------

def test_random_net_grads_match_fd(rng):
    # random 2-layer net, 8 inputs: grads vs central differences at h=1e-5
    params = tiny_mlp_params(rng)
    x = rng.standard_normal((8, 3))
    target = rng.standard_normal((8, 2))
    _, gs = ad.grad(lambda p: tiny_mlp_loss(p, x, target), params)
    for name in params.entries:
        def scalar(v, name=name):
            trial = params.copy()
            trial.entries[name] = v
            return tiny_mlp_loss({k: ad.leaf(w) for k, w in trial.entries.items()},
                                 x, target).value
        assert rel_err(gs[name], fd_grad(scalar, params.entries[name].copy())) < 1e-4


def test_net_jvp_matches_fd_and_reverse(rng):
    params = tiny_mlp_params(rng)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 2))
    d = rng.standard_normal((4, 3))

    def f(xn):
        p = {k: v for k, v in params.entries.items()}
        return tiny_mlp_loss(p, xn, target)

    _, tan = ad.jvp(f, [x], [d])
    ref = fd_directional(lambda xv: ad.value_of(f(ad.leaf(xv))), [x], [d])
    assert rel_err(tan, ref) < 1e-4

    # <grad_x, d> agrees with the jvp tangent to 1e-6
    xleaf = ad.leaf(x)
    loss = f(xleaf)
    gx = ad.grad_of(ad.backward(loss), xleaf)
    assert rel_err(float(np.sum(gx * d)), float(tan)) < 1e-6


def test_composition_jvp_chain_rule(rng):
    # jvp through a composition equals FD of the composition
    a = rng.standard_normal((2, 3))

    def f(x):
        h = ad.tanh(ad.mul(x, 1.7))
        h = ad.concat([h, ad.square(h)], axis=1)
        return ad.sin(ad.sum_(h, axis=1))

    d = rng.standard_normal((2, 3))
    _, tan = ad.jvp(f, [a], [d])
    ref = fd_directional(lambda x: ad.value_of(f(x)), [a], [d])
    assert rel_err(tan, ref) < 1e-4


# ---------------------------------------------------------------------------
# stopgrad / hinge / error contracts
# ---------------------------------------------------------------------------

def test_stopgrad_identity_zero_grad_zero_tangent(rng):
    x = rng.standard_normal((3,))
    leafx = ad.leaf(x, tangent=np.ones(3))
    out = ad.stopgrad(leafx)
    assert np.array_equal(out.value, x)
    assert out.tangent is None
    loss = ad.sum_(ad.mul(ad.add(out, leafx), 2.0))
    g = ad.grad_of(ad.backward(loss), leafx)
    # only the direct path contributes: d/dx sum(2*(sg(x) + x)) = 2
    assert np.array_equal(g, np.full(3, 2.0))


def test_hinge_subgradient_zero_at_kink():
    x = ad.leaf(np.array([0.0, -1.0, 2.0]))
    loss = ad.sum_(ad.maximum_const(x, 0.0))
    g = ad.grad_of(ad.backward(x and loss), x)
    assert np.array_equal(g, np.array([0.0, 0.0, 1.0]))
    _, tan = ad.jvp(lambda v: ad.maximum_const(v, 0.0),
                    [np.array([0.0, -1.0, 2.0])], [np.ones(3)])
    assert np.array_equal(tan, np.array([0.0, 0.0, 1.0]))


def test_nonscalar_loss_rejected(rng):
    params = ad.ParameterSet({"w": rng.standard_normal(3)})
    with pytest.raises(ContractViolation):
        ad.grad(lambda p: ad.square(p["w"]), params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_names_primitive():
    x = ad.leaf(np.array([1.0, 0.0]))
    with pytest.raises(NumericFailure, match="div"):
        ad.div(1.0, x)
    with pytest.raises(NumericFailure, match="sqrt"):
        ad.sqrt(ad.leaf(np.array([-1.0])))


def test_jvp_shape_mismatch_rejected():
    with pytest.raises(ContractViolation):
        ad.jvp(lambda x: x, [np.zeros(3)], [np.zeros(2)])


def test_deterministic_forward(rng):
    params = tiny_mlp_params(rng)
    x = rng.standard_normal((4, 3))
    t = rng.standard_normal((4, 2))
    l1, g1 = ad.grad(lambda p: tiny_mlp_loss(p, x, t), params)
    l2, g2 = ad.grad(lambda p: tiny_mlp_loss(p, x, t), params)
    assert l1 == l2
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


def test_raw_mode_matches_graph_mode_bitwise(rng):
    # identical numpy expressions run in and out of graph mode
    params = tiny_mlp_params(rng)
    x = rng.standard_normal((4, 3))
    p_nodes = {k: ad.leaf(v) for k, v in params.entries.items()}
    from conftest import tiny_mlp_forward
    y_graph = tiny_mlp_forward(p_nodes, ad.leaf(x)).value
    y_raw = tiny_mlp_forward(params.entries, x)
    assert np.array_equal(y_graph, y_raw)
