"""Distillation machinery: restricted interval sampling, the guided-mixture
target, and the forward-mode mean-velocity target with its stop-gradient
contract."""

from types import SimpleNamespace

import numpy as np
import pytest

from flowcache import autodiff as ad
from flowcache import distill, flow
from flowcache.distill import (CfgConfig, RestrictConfig, cfg_mixture,
                               meanflow_target, sample_t_r, sample_t_r_many)
from flowcache.errors import ContractViolation
from flowcache.flow import TimePair, ToyDistribution
from flowcache.nets import Condition, VelocityModel, VelocityModelConfig
from flowcache.optim import OptimizerState

from conftest import fd_grad, rel_err


class ScriptedRng:
    """rng stub returning scripted uniform draws (for pinned examples)."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        v = self.values.pop(0)
        return lo + (hi - lo) * v


# ---------------------------------------------------------------------------
# sample_t_r
# ---------------------------------------------------------------------------

def test_zero_interval_gives_r_equal_t():
    pair = sample_t_r(RestrictConfig(0.3), ScriptedRng([0.0, 0.62]))
    assert pair.r == pair.t == 0.62


def test_clamp_at_zero():
    # I = 0.2, t = 0.1 -> r = max(0, -0.1) = 0
    pair = sample_t_r(RestrictConfig(0.2), ScriptedRng([1.0, 0.1]))
    assert pair.t == 0.1
    assert pair.r == 0.0


def test_million_draws_respect_cap():
    cfg = RestrictConfig(0.2)
    rng = np.random.default_rng(0)
    t, r = sample_t_r_many(cfg, 10 ** 6, rng)
    iv = t - r
    assert np.all(iv <= 0.2)
    assert iv.max() >= 0.19
    assert np.all((0 <= r) & (r <= t) & (t <= 1))


def test_scalar_sampler_invariant_many_draws():
    cfg = RestrictConfig(0.35)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20000):
        pair = sample_t_r(cfg, rng)
        worst = max(worst, pair.interval)
        assert pair.interval <= 0.35
    assert worst > 0.3


def test_unrestricted_spans_unit_interval():
    rng = np.random.default_rng(3)
    t, r = sample_t_r_many(RestrictConfig(1.0), 10 ** 5, rng)
    assert (t - r).max() > 0.9


# ---------------------------------------------------------------------------
# guided mixture
# ---------------------------------------------------------------------------

def test_mixture_collapses_at_g_one(rng):
    v_c = rng.standard_normal((4, 2))
    v_uc = rng.standard_normal((4, 2))
    assert np.array_equal(cfg_mixture(v_c, v_uc, 1.0), v_c)


def test_mixture_direct_formula():
    assert cfg_mixture(np.array([1.0]), np.array([0.0]), 2.0)[0] == 2.0


def test_cfg_config_validation():
    with pytest.raises(ContractViolation):
        CfgConfig(g_min=0.0, g_max=2.0)
    with pytest.raises(ContractViolation):
        CfgConfig(g_min=3.0, g_max=2.0)
    with pytest.raises(ContractViolation):
        RestrictConfig(0.0)
    with pytest.raises(ContractViolation):
        RestrictConfig(1.5)


# ---------------------------------------------------------------------------
# mean-velocity target
# ---------------------------------------------------------------------------

def linear_map_model(A):
    """Duck-typed model computing u(x, r, t) = x @ A through the graph."""
    return SimpleNamespace(
        config=SimpleNamespace(accepts_r=True),
        forward=lambda params, x, t, r=None, cond=None, A=A: ad.matmul(x, A),
    )


def time_linear_model(b):
    """u(x, r, t) = t * b, independent of x (pure time-derivative case)."""
    def forward(params, x, t, r=None, cond=None):
        n = np.shape(ad.value_of(x))[0]
        return ad.mul(ad.mul(t, b), np.ones((n, 1)))
    return SimpleNamespace(config=SimpleNamespace(accepts_r=True), forward=forward)


def test_target_equals_v_at_zero_interval(rng):
    m = VelocityModel(VelocityModelConfig(input_dim=2, hidden_dim=16, depth=2,
                                          time_embed_dim=8, accepts_r=True))
    params = m.init_params(rng)
    for k in params.entries:
        params.entries[k] = 0.3 * rng.standard_normal(params.entries[k].shape)
    x = rng.standard_normal((5, 2))
    v = rng.standard_normal((5, 2))
    u_tgt = meanflow_target(m, params, x, TimePair(0.4, 0.4), v, Condition(0))
    assert np.array_equal(u_tgt, v)  # bit-exact at t == r


def test_target_linear_map_symbolic(rng):
    A = rng.standard_normal((3, 3))
    x = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 3))
    pair = TimePair(0.8, 0.25)
    model = linear_map_model(A)
    u_tgt = meanflow_target(model, ad.ParameterSet({}), x, pair, v)
    expected = v - pair.interval * (v @ A)
    assert rel_err(u_tgt, expected) < 1e-12


def test_target_time_derivative_only(rng):
    b = np.array([0.7, -1.2])
    x = rng.standard_normal((3, 2))
    v = rng.standard_normal((3, 2))
    pair = TimePair(0.9, 0.55)
    u_tgt = meanflow_target(time_linear_model(b), ad.ParameterSet({}), x, pair, v)
    expected = v - pair.interval * b
    assert rel_err(u_tgt, expected) < 1e-12


def test_target_rejects_bad_shapes(rng):
    m = VelocityModel(VelocityModelConfig(input_dim=2, hidden_dim=8, depth=1,
                                          time_embed_dim=4, accepts_r=True))
    params = m.init_params(rng)
    with pytest.raises(ContractViolation):
        meanflow_target(m, params, np.zeros((2, 2)), TimePair(0.5, 0.2),
                        np.zeros((3, 2)), Condition(0))


def test_target_requires_interval_model(rng):
    m = VelocityModel(VelocityModelConfig(input_dim=2, hidden_dim=8, depth=1,
                                          time_embed_dim=4, accepts_r=False))
    params = m.init_params(rng)
    with pytest.raises(ContractViolation):
        meanflow_target(m, params, np.zeros((2, 2)), TimePair(0.5, 0.2),
                        np.zeros((2, 2)), Condition(0))


# ---------------------------------------------------------------------------
# stop-gradient contract
# ---------------------------------------------------------------------------

def _meanflow_loss_value(model, params, x, pair, v, cond, frozen_target=None):
    """Loss with the target either recomputed (None) or frozen."""
    if frozen_target is None:
        target = meanflow_target(model, params, x, pair, v, cond)
    else:
        target = frozen_target
    u = model.forward(params.entries, x, pair.t, pair.r, cond)
    diff = ad.value_of(u) - target
    return float(np.mean(np.sum(diff * diff, axis=1)))


def test_no_gradient_through_target(rng):
    m = VelocityModel(VelocityModelConfig(input_dim=1, hidden_dim=8, depth=1,
                                          time_embed_dim=4, accepts_r=True))
    params = m.init_params(rng)
    for k in params.entries:
        params.entries[k] = 0.4 * rng.standard_normal(params.entries[k].shape)
    x = rng.standard_normal((6, 1))
    v = rng.standard_normal((6, 1))
    pair = TimePair(0.7, 0.3)
    cond = Condition(0)

    # engine gradients of ||u - sg(u_tgt)||^2
    leaves = params.lift()
    u, u_tgt = distill._interval_forward(m, leaves, x, pair.t, pair.r, v, cond)
    loss = ad.mean(ad.sum_(ad.square(ad.sub(u, u_tgt)), axis=1))
    grads = ad.param_grads(loss, leaves)
    frozen = u_tgt.copy()

    name = "block0.fc1.w"
    engine_grad = grads[name]

    def loss_frozen(w):
        trial = params.copy()
        trial.entries[name] = w
        return _meanflow_loss_value(m, trial, x, pair, v, cond, frozen_target=frozen)

    def loss_recomputed(w):
        trial = params.copy()
        trial.entries[name] = w
        return _meanflow_loss_value(m, trial, x, pair, v, cond, frozen_target=None)

    fd_frozen = fd_grad(loss_frozen, params[name].copy())
    fd_full = fd_grad(loss_recomputed, params[name].copy())
    # gradients follow the detached-target objective...
    assert rel_err(engine_grad, fd_frozen) < 1e-4
    # ...and differ from the re-derived-target objective, which the target
    # subgraph would contribute to if the stop-gradient leaked
    assert rel_err(fd_full, fd_frozen) > 1e-3


# ---------------------------------------------------------------------------
# oracle substitution: the exact mean-velocity field has (near) zero loss
# ---------------------------------------------------------------------------

def analytic_oracle_model(sigma_d):
    def forward(params, x, t, r=None, cond=None):
        if r is None or ad.value_of(r) == ad.value_of(t):
            return flow.analytic_gaussian_velocity(x, t, sigma_d)
        return flow.analytic_mean_velocity_tr(x, t, r, sigma_d)
    return SimpleNamespace(config=SimpleNamespace(accepts_r=True), forward=forward)


def test_oracle_model_has_zero_meanflow_loss():
    sigma_d = 1.0
    model = analytic_oracle_model(sigma_d)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        pair = sample_t_r(RestrictConfig(0.2), rng)
        if pair.interval == 0.0:
            continue
        x0 = sigma_d * rng.standard_normal((16, 1))
        x1 = rng.standard_normal((16, 1))
        x_t = (1 - pair.t) * x0 + pair.t * x1
        v = ad.value_of(flow.analytic_gaussian_velocity(x_t, pair.t, sigma_d))
        u_tgt = meanflow_target(model, ad.ParameterSet({}), x_t, pair, v)
        u = ad.value_of(model.forward({}, x_t, pair.t, pair.r))
        worst = max(worst, float(np.mean(np.sum((u - u_tgt) ** 2, axis=1))))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# training loops (smoke level; quality bars live in acceptance)
# ---------------------------------------------------------------------------

def build_linear_teacher(a_cond, a_uncond, vocab=1):
    """Duck-typed teacher: v = a_c x for real classes, a_uc x for null."""
    def forward(params, x, t, r=None, cond=None):
        a = a_uncond if cond is None or cond.class_id is None else a_cond
        return ad.mul(x, a)
    return SimpleNamespace(
        config=SimpleNamespace(accepts_r=False, input_dim=1,
                               condition_vocab=vocab),
        forward=forward)


def test_cfg_distill_step_report(rng):
    teacher = build_linear_teacher(1.0, 0.0)
    student = VelocityModel(VelocityModelConfig(
        input_dim=1, hidden_dim=16, depth=2, time_embed_dim=8,
        condition_vocab=1, accepts_r=True, accepts_cfg=True,
        cfg_min=1.0, cfg_max=4.0))
    params = student.init_params(rng)
    opt = OptimizerState.init(params, lr=1e-3)
    batch = flow.PathSample.create(rng.standard_normal((8, 1)),
                                   rng.standard_normal((8, 1)), 0.5)
    rep = distill.cfg_distill_step(student, params, teacher,
                                   ad.ParameterSet({}), batch, Condition(0),
                                   2.0, CfgConfig(1.0, 4.0), opt)
    assert np.isfinite(rep.loss) and np.isfinite(rep.grad_norm)
    assert params.version == 1


def test_train_meanflow_smoke_and_interval_stats():
    dist = ToyDistribution("gaussian1d")
    teacher = VelocityModel(VelocityModelConfig(
        input_dim=1, hidden_dim=16, depth=2, time_embed_dim=8,
        condition_vocab=1))
    tparams, _ = flow.train_base(teacher, dist, iters=300, batch_size=64,
                                 lr=3e-3, seed=0)
    student = VelocityModel(VelocityModelConfig(
        input_dim=1, hidden_dim=16, depth=2, time_embed_dim=8,
        condition_vocab=1, accepts_r=True))
    init = distill.init_student_from_teacher(student, tparams,
                                             np.random.default_rng(0))
    restrict = RestrictConfig(0.25)
    params, reports = distill.train_meanflow(
        student, init, teacher, tparams, dist, restrict=restrict, cfg=None,
        iters=150, batch_size=32, groups_per_step=2, lr=1e-3, seed=0)
    losses = [r.loss for r in reports]
    assert all(r.interval_max <= 0.25 for r in reports)
    assert all(np.isfinite(losses))
    # teacher-initialized student starts near the short-interval target;
    # require stability, not decrease, at smoke scale
    assert np.median(losses) < 0.5 and max(losses) < 10.0
    assert all(np.isfinite(r.grad_norm) for r in reports)
    assert params.version == 150


def test_escaped_interval_raises_before_update(rng):
    student = VelocityModel(VelocityModelConfig(
        input_dim=1, hidden_dim=8, depth=1, time_embed_dim=4,
        condition_vocab=1, accepts_r=True))
    params = student.init_params(rng)
    opt = OptimizerState.init(params, lr=1e-3)
    groups = [(rng.standard_normal((4, 1)), TimePair(0.9, 0.4), Condition(0))]
    with pytest.raises(ContractViolation, match="escaped the restriction"):
        distill.meanflow_distill_step(student, params, student, params, groups,
                                      RestrictConfig(0.2), opt)
    assert params.version == 0


# ---------------------------------------------------------------------------
# one graph per step: groups stacked into one batch
# ---------------------------------------------------------------------------

def group_models(rng):
    """A guidance-conditioned teacher and its interval student, randomized."""
    kw = dict(input_dim=2, hidden_dim=16, depth=2, time_embed_dim=8,
              condition_vocab=2, accepts_cfg=True)
    teacher = VelocityModel(VelocityModelConfig(**kw))
    student = VelocityModel(VelocityModelConfig(accepts_r=True, **kw))
    tparams = teacher.init_params(rng)
    sparams = student.init_params(rng)
    for p in (tparams, sparams):
        for k in p.entries:
            p.entries[k] = 0.3 * rng.standard_normal(p.entries[k].shape)
    return teacher, tparams, student, sparams


def step_groups(rng, pairs, rows=4):
    conds = [Condition(0, 2.0), Condition(None, 5.5), Condition(1, 1.0)]
    return [(rng.standard_normal((rows, 2)), pair, conds[i % len(conds)])
            for i, pair in enumerate(pairs)]


def normwise_rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_step_matches_per_group_scalar_reference(rng, monkeypatch):
    teacher, tparams, student, sparams = group_models(rng)
    groups = step_groups(rng, [TimePair(0.8, 0.65), TimePair(0.4, 0.4),
                               TimePair(0.3, 0.12), TimePair(0.95, 0.9)])
    # reference: the mean over groups of each group's own scalar-call loss
    leaves = sparams.lift()
    total = None
    for x_t, pair, cond in groups:
        v = ad.value_of(teacher.forward(tparams.entries, x_t, pair.t, None, cond))
        u, u_tgt = distill._interval_forward(student, leaves, x_t, pair.t,
                                             pair.r, v, cond)
        g_loss = flow.squared_error_loss(u, u_tgt)
        total = g_loss if total is None else ad.add(total, g_loss)
    ref_loss = ad.mul(total, 1.0 / len(groups))
    ref_grads = ad.param_grads(ref_loss, leaves)

    seen = {}
    monkeypatch.setattr(distill, "adam_step",
                        lambda params, gs, opt: seen.update(gs))
    rep = distill.meanflow_distill_step(
        student, sparams, teacher, tparams, groups, RestrictConfig(0.2),
        OptimizerState.init(sparams, lr=1e-3), clip=None)
    assert abs(rep.loss - float(ref_loss.value)) < 1e-12 * abs(rep.loss)
    assert set(seen) == set(ref_grads)
    for name, g in ref_grads.items():
        assert normwise_rel(seen[name], g) < 1e-12, name


def test_zero_interval_group_target_is_v_in_a_mixed_batch(rng):
    _, _, student, sparams = group_models(rng)
    x = rng.standard_normal((9, 2))
    v = rng.standard_normal((9, 2))
    t = np.array([0.7, 0.45, 0.2])
    r = np.array([0.55, 0.45, 0.0])
    conds = [Condition(0, 3.0), Condition(1, 2.0), Condition(None, 1.0)]
    _, u_tgt = distill._interval_forward(student, sparams.entries, x, t, r, v,
                                         conds)
    assert np.array_equal(u_tgt[3:6], v[3:6])  # bit-exact at t == r
    assert not np.array_equal(u_tgt[:3], v[:3])
    assert not np.array_equal(u_tgt[6:], v[6:])


def test_constant_seeds_match_gradient_leaf_seeds(rng, monkeypatch):
    # x and t enter the meanflow graph as constants carrying the tangents;
    # as gradient leaves (the graph before pruning, but for r, a plain
    # array either way) they give the same target and parameter gradients
    _, _, student, sparams = group_models(rng)
    x = rng.standard_normal((8, 2))
    v = rng.standard_normal((8, 2))
    t, r = np.array([0.7, 0.35]), np.array([0.55, 0.3])
    conds = [Condition(0, 3.0), Condition(1, 2.0)]

    def run():
        leaves = sparams.lift()
        u, u_tgt = distill._interval_forward(student, leaves, x, t, r, v, conds)
        loss = flow.squared_error_loss(u, u_tgt)
        return ad.param_grads(loss, leaves), u_tgt, len(ad.backward(loss))

    grads, u_tgt, reached = run()
    leaf = ad.leaf
    monkeypatch.setattr(ad, "leaf", lambda value, tangent=None, needs_grad=True:
                        leaf(value, tangent))
    ref_grads, ref_tgt, ref_reached = run()
    assert reached < ref_reached  # the pruned graph skips the x and t paths
    assert np.array_equal(u_tgt, ref_tgt)
    assert set(grads) == set(ref_grads)
    for name, g in ref_grads.items():
        assert np.array_equal(grads[name], g), name


def test_uneven_groups_rejected(rng):
    teacher, tparams, student, sparams = group_models(rng)
    opt = OptimizerState.init(sparams, lr=1e-3)
    groups = step_groups(rng, [TimePair(0.5, 0.4), TimePair(0.6, 0.5)])
    groups[1] = (rng.standard_normal((6, 2)),) + groups[1][1:]
    with pytest.raises(ContractViolation, match="equal row counts"):
        distill.meanflow_distill_step(student, sparams, teacher, tparams,
                                      groups, RestrictConfig(0.2), opt)
    with pytest.raises(ContractViolation, match="equal groups"):
        distill.train_meanflow(student, sparams, teacher, tparams,
                               ToyDistribution("gaussian1d"),
                               restrict=RestrictConfig(0.2), cfg=CfgConfig(),
                               iters=1, batch_size=10, groups_per_step=4,
                               lr=1e-3)
    assert sparams.version == 0
