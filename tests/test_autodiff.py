"""Engine correctness: every primitive's reverse and forward rules against
central finite differences and against each other (adjointness), plus the
hinge and error contracts."""

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
    leaves = ad.ParameterSet({"w": np.array([3.0])}).lift()
    loss = ad.sum_(ad.square(leaves["w"]))
    gs = ad.param_grads(loss, leaves)
    assert loss.value == 9.0
    assert np.array_equal(gs["w"], np.array([6.0]))


def test_grad_perfect_fit_is_zero():
    # loss = mean((w*x - y)^2) with w=1, x=2, y=2
    leaves = ad.ParameterSet({"w": np.array([1.0])}).lift()
    x, y = np.array([2.0]), np.array([2.0])
    loss = ad.mean(ad.square(ad.sub(ad.mul(leaves["w"], x), y)))
    gs = ad.param_grads(loss, leaves)
    assert loss.value == 0.0
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
    ("sum_all", ad.sum_, (3, 4), None),
    ("gelu", ad.gelu, (3, 4), None),
    ("square", ad.square, (3, 4), None),
    ("sqrt", ad.sqrt, (3, 4), "positive"),
    ("mean_all", ad.mean, (3, 4), None),
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
        g = ad.param_grads(loss, {"x": leafx})["x"]
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
    ("sub_broadcast", ad.sub, (3, 4), (4,)),
    ("div_broadcast", ad.div, (3, 4), (1, 4)),
]


@pytest.mark.parametrize("name,fn,sa,sb", BINARY_CASES)
def test_binary_rules_match_fd(name, fn, sa, sb, rng):
    for trial in range(5):
        a = rng.standard_normal(sa)
        b = rng.standard_normal(sb)
        if name.startswith("div"):
            b = b + np.sign(b) * 1.0  # keep away from zero
        out_shape = np.shape(ad.value_of(fn(a, b)))
        w = rng.standard_normal(out_shape)

        la, lb = ad.leaf(a), ad.leaf(b)
        loss = ad.sum_(ad.mul(fn(la, lb), w))
        grads = ad.param_grads(loss, {"a": la, "b": lb})

        def scalar_a(xa):
            return float(np.sum(ad.value_of(fn(xa, b)) * w))

        def scalar_b(xb):
            return float(np.sum(ad.value_of(fn(a, xb)) * w))

        assert rel_err(grads["a"], fd_grad(scalar_a, a.copy())) < 1e-4, name
        assert rel_err(grads["b"], fd_grad(scalar_b, b.copy())) < 1e-4, name

        da = rng.standard_normal(sa)
        db = rng.standard_normal(sb)
        _, tan = ad.jvp(lambda xa, xb: fn(xa, xb), [a, b], [da, db])
        ref = fd_directional(lambda xa, xb: ad.value_of(fn(xa, xb)), [a, b], [da, db])
        assert rel_err(tan, ref) < 1e-4, name


def test_every_documented_primitive_has_fd_case():
    # the primitive names sit on the indented lines of the module docstring
    named = [word for line in ad.__doc__.splitlines() if line.startswith("    ")
             for word in line.split()]
    assert len(named) == 16
    for name in named:
        assert callable(getattr(ad, name, None) or getattr(ad, name + "_", None)), name
    # concat is covered by its own test below
    covered = ({name for name, *_ in UNARY_CASES} | {name for name, *_ in BINARY_CASES}
               | {"concat"})
    assert set(named) <= covered, sorted(set(named) - covered)


def test_concat_rules_match_fd(rng):
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 5))
    w = rng.standard_normal((3, 7))
    la, lb = ad.leaf(a), ad.leaf(b)
    loss = ad.sum_(ad.mul(ad.concat([la, lb], axis=1), w))
    grads = ad.param_grads(loss, {"a": la, "b": lb})
    assert np.array_equal(grads["a"], w[:, :2])
    assert np.array_equal(grads["b"], w[:, 2:])

    da, db = rng.standard_normal((3, 2)), rng.standard_normal((3, 5))
    _, tan = ad.jvp(lambda xa, xb: ad.concat([xa, xb], axis=1), [a, b], [da, db])
    assert np.array_equal(tan, np.concatenate([da, db], axis=1))


ADJOINT_CASES = (
    [(name, fn, (shape,), domain) for name, fn, shape, domain in UNARY_CASES]
    + [(name, fn, (sa, sb), "nonzero" if name.startswith("div") else None)
       for name, fn, sa, sb in BINARY_CASES]
    + [("matmul_square", ad.matmul, ((4, 4), (4, 4)), None),
       ("matmul_vec_square", ad.matmul, ((4,), (4, 4)), None),
       ("concat", lambda *ps: ad.concat(ps, axis=1), ((3, 2), (3, 5), (3, 1)), None),
       ("concat_last_axis", lambda *ps: ad.concat(ps, axis=-1), ((2, 3), (2, 3)), None),
       ("concat_rows", lambda *ps: ad.concat(ps, axis=0), ((1, 4), (3, 4)), None),
       ("narrow_rows", lambda a: ad.narrow(a, 0, 1, 2), ((3, 4),), None),
       ("reshape_flat", lambda a: ad.reshape(a, (12,)), ((3, 4),), None)]
)


@pytest.mark.parametrize("name,fn,shapes,domain", ADJOINT_CASES,
                         ids=[case[0] for case in ADJOINT_CASES])
def test_tangent_map_and_transpose_are_adjoint(name, fn, shapes, domain, rng):
    # per operand i: <vjp(g)_i, t_i> = <g, tangent> with only t_i seeded
    xs = [rng.standard_normal(shape) for shape in shapes]
    if domain == "positive":
        xs = [np.abs(x) + 0.5 for x in xs]
    if domain == "nonzero":
        xs[-1] = xs[-1] + np.sign(xs[-1])
    for i, shape in enumerate(shapes):
        t = rng.standard_normal(shape)
        leaves = [ad.leaf(x, tangent=t if j == i else None) for j, x in enumerate(xs)]
        out = fn(*leaves)
        assert out.parents[i] is leaves[i], name
        g = rng.standard_normal(out.shape)
        pulled = float(np.sum(out.vjp(g)[i] * t))
        pushed = float(np.sum(g * out.tangent))
        assert rel_err(pulled, pushed) < 1e-12, (name, i)


# ---------------------------------------------------------------------------
# Whole-net checks
# ---------------------------------------------------------------------------

def test_random_net_grads_match_fd(rng):
    # random 2-layer net, 8 inputs: grads vs central differences at h=1e-5
    params = tiny_mlp_params(rng)
    x = rng.standard_normal((8, 3))
    target = rng.standard_normal((8, 2))
    leaves = params.lift()
    gs = ad.param_grads(tiny_mlp_loss(leaves, x, target), leaves)
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
    gx = ad.param_grads(loss, {"x": xleaf})["x"]
    assert rel_err(float(np.sum(gx * d)), float(tan)) < 1e-6


def test_composition_jvp_chain_rule(rng):
    # jvp through a composition equals FD of the composition
    a = rng.standard_normal((2, 3))

    def f(x):
        h = ad.gelu(ad.mul(x, 1.7))
        h = ad.concat([h, ad.square(h)], axis=1)
        return ad.sin(ad.sum_(h, axis=1))

    d = rng.standard_normal((2, 3))
    _, tan = ad.jvp(f, [a], [d])
    ref = fd_directional(lambda x: ad.value_of(f(x)), [a], [d])
    assert rel_err(tan, ref) < 1e-4


# ---------------------------------------------------------------------------
# hinge / error contracts
# ---------------------------------------------------------------------------

def test_hinge_subgradient_zero_at_kink():
    x = ad.leaf(np.array([0.0, -1.0, 2.0]))
    loss = ad.sum_(ad.maximum_const(x, 0.0))
    g = ad.param_grads(loss, {"x": x})["x"]
    assert np.array_equal(g, np.array([0.0, 0.0, 1.0]))
    _, tan = ad.jvp(lambda v: ad.maximum_const(v, 0.0),
                    [np.array([0.0, -1.0, 2.0])], [np.ones(3)])
    assert np.array_equal(tan, np.array([0.0, 0.0, 1.0]))


def test_nonscalar_loss_rejected(rng):
    leaves = ad.ParameterSet({"w": rng.standard_normal(3)}).lift()
    with pytest.raises(ContractViolation):
        ad.param_grads(ad.square(leaves["w"]), leaves)
    with pytest.raises(ContractViolation):
        ad.param_grads(np.float64(1.0), leaves)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_names_primitive():
    # values are checked at the sink: the graph builds, the gradient raises
    x = ad.leaf(np.array([1.0, 0.0]))
    loss = ad.sum_(ad.div(1.0, x))
    with pytest.raises(NumericFailure, match="div"):
        ad.param_grads(loss, {"x": x})
    y = ad.leaf(np.array([-1.0]))
    loss = ad.sum_(ad.sqrt(y))
    with pytest.raises(NumericFailure, match="sqrt"):
        ad.param_grads(loss, {"y": y})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_names_the_origin_not_a_descendant():
    x = ad.leaf(np.array([4.0, -1.0]))
    loss = ad.sum_(ad.square(ad.mul(ad.sqrt(x), 2.0)))
    with pytest.raises(NumericFailure,
                       match="non-finite value produced by primitive 'sqrt'"):
        ad.param_grads(loss, {"x": x})
    # finite operands upstream of the origin are not named either
    loss = ad.mean(ad.gelu(ad.div(1.0, ad.sub(x, np.array([4.0, 0.0])))))
    with pytest.raises(NumericFailure,
                       match="non-finite value produced by primitive 'div'"):
        ad.param_grads(loss, {"x": x})
    # a non-finite constant operand is the origin itself
    loss = ad.sum_(ad.mul(x, np.array([1.0, np.inf])))
    with pytest.raises(NumericFailure,
                       match="non-finite value produced by primitive 'leaf'"):
        ad.param_grads(loss, {"x": x})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_in_a_tangent_names_primitive():
    # sqrt at 0 has a finite value and an infinite derivative
    with pytest.raises(NumericFailure,
                       match="non-finite tangent produced by primitive 'sqrt'"):
        ad.jvp(ad.sqrt, [0.0], [1.0])
    with pytest.raises(NumericFailure,
                       match="non-finite tangent produced by primitive 'sqrt'"):
        ad.jvp(lambda v: ad.sum_(ad.mul(ad.sqrt(v), 3.0)),
               [np.array([1.0, 0.0])], [np.ones(2)])


# ---------------------------------------------------------------------------
# Pruning: no transposes into constants, no Nodes for constant expressions
# ---------------------------------------------------------------------------

def test_vjp_returns_none_for_constant_operands(rng):
    w = ad.leaf(rng.standard_normal(3))
    c = rng.standard_normal(3)
    out = ad.add(w, c)
    g = rng.standard_normal(3)
    gw, gc = out.vjp(g)
    assert out.needs_grad and gc is None
    assert np.array_equal(gw, g)

    x = rng.standard_normal((5, 3))
    W = ad.leaf(rng.standard_normal((3, 2)))
    out = ad.matmul(x, W)
    g = rng.standard_normal((5, 2))
    gx, gW = out.vjp(g)
    assert gx is None
    assert np.array_equal(gW, x.T @ g)


def test_constant_expression_returns_a_plain_array(rng):
    x = rng.standard_normal((2, 3))
    c = ad.leaf(x, needs_grad=False)
    out = ad.add(ad.sin(ad.mul(c, 2.0)), ad.narrow(c, 1, 0, 1))
    assert type(out) is np.ndarray
    assert np.array_equal(out, np.sin(x * 2.0) + x[:, 0:1])


def test_constant_with_tangent_builds_a_node_without_vjp(rng):
    x, d = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    c = ad.leaf(x, tangent=d, needs_grad=False)
    out = ad.mul(ad.sin(c), 2.0)
    assert isinstance(out, ad.Node)
    assert out.vjp is None and not out.needs_grad
    assert np.array_equal(out.value, np.sin(x) * 2.0)
    assert np.array_equal(out.tangent, d * np.cos(x) * 2.0)
    # the tangent passes on into a Node that needs gradients, whose VJP
    # skips the constant operand
    W = ad.leaf(rng.standard_normal((3, 4)))
    y = ad.matmul(out, W)
    assert y.needs_grad
    assert np.array_equal(y.tangent, out.tangent @ W.value)
    assert y.vjp(np.ones((2, 4)))[0] is None


@pytest.mark.parametrize("name,fn", [("add", ad.add), ("sub", ad.sub),
                                     ("mul", ad.mul), ("div", ad.div)])
def test_jvp_tangent_of_a_broadcast_operand_has_the_output_shape(name, fn, rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)
    b = b + np.sign(b)  # keep div away from zero
    d = rng.standard_normal(4)
    out, tan = ad.jvp(lambda xb: fn(a, xb), [b], [d])
    assert np.shape(out) == tan.shape == (3, 4), name
    ref = fd_directional(lambda xb: ad.value_of(fn(a, xb)), [b], [d])
    assert rel_err(tan, ref) < 1e-4, name


def test_operators_on_nodes_rejected():
    # Nodes combine only through the primitives, never through numpy operators
    x = ad.leaf(np.ones(2))
    with pytest.raises(TypeError):
        np.ones(2) + x
    with pytest.raises(TypeError):
        x * 2.0


def test_jvp_shape_mismatch_rejected():
    with pytest.raises(ContractViolation):
        ad.jvp(lambda x: x, [np.zeros(3)], [np.zeros(2)])


def test_deterministic_forward(rng):
    params = tiny_mlp_params(rng)
    x = rng.standard_normal((4, 3))
    t = rng.standard_normal((4, 2))
    leaves1, leaves2 = params.lift(), params.lift()
    l1, l2 = tiny_mlp_loss(leaves1, x, t), tiny_mlp_loss(leaves2, x, t)
    g1, g2 = ad.param_grads(l1, leaves1), ad.param_grads(l2, leaves2)
    assert l1.value == l2.value
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
