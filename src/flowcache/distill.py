"""Distillation stages: guided-mixture (CFG) distillation of the base field
into a single guidance-conditioned student, then mean-velocity distillation
of that student with a restricted interval range.

Interval sampling for the restricted stage draws the interval first and
clamps the start at zero:

    I ~ U(0, R),  t ~ U(0, 1),  r = max(0, t - I),

so t - r <= R always holds (R = 1 reproduces the unrestricted variant).

The mean-velocity regression target is built with one forward-mode pass:
with v the frozen teacher's instantaneous velocity at (x_t, t), the tangent
of u_theta(x_t, r, t) along (v, 0, 1) is the total derivative du/dt on the
sampling trajectory, and

    u_tgt = v - (t - r) * du/dt,

used under stop-gradient, i.e. the loss is ||u_theta - sg(u_tgt)||^2. Here
that is literal: u_tgt is a plain array, never part of the student's graph.

A mean-velocity step is one graph: the groups of a step (one time pair and
condition each) are stacked into one batch, the teacher and the student are
each called once with per-group conditioning, and the target subtracts each
row's own interval, v - (t - r)[row] * du/dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, as_f64, value_of
from .errors import ContractViolation, NumericFailure
from .flow import (PathSample, TimePair, ToyDistribution, cosine_lr,
                   squared_error_loss)
from .nets import Condition, VelocityModel
from .optim import OptimizerState, adam_step, clip_grad_norm, global_grad_norm


# ---------------------------------------------------------------------------
# Configs and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CfgConfig:
    """Guidance-scale sampling range for distillation."""

    g_min: float = 1.0
    g_max: float = 8.0

    def __post_init__(self):
        if not (0.0 < self.g_min <= self.g_max):
            raise ContractViolation("need 0 < g_min <= g_max")


@dataclass(frozen=True)
class RestrictConfig:
    """Interval cap R; R = 1 is the unrestricted variant."""

    restrict_factor: float = 0.2

    def __post_init__(self):
        if not (0.0 < self.restrict_factor <= 1.0):
            raise ContractViolation("restrict_factor must lie in (0, 1]")


@dataclass
class DistillBatchReport:
    loss: float
    grad_norm: float
    interval_min: float | None = None
    interval_max: float | None = None
    interval_mean: float | None = None


# ---------------------------------------------------------------------------
# Restricted interval sampling
# ---------------------------------------------------------------------------

def sample_t_r(cfg: RestrictConfig, rng) -> TimePair:
    """One restricted pair: I ~ U(0,R), t ~ U(0,1), r = max(0, t-I)."""
    interval = rng.uniform(0.0, cfg.restrict_factor)
    t = rng.uniform(0.0, 1.0)
    return TimePair(t, max(0.0, t - interval))


def sample_t_r_many(cfg: RestrictConfig, n: int, rng):
    """Vectorized draws with the same per-pair distribution."""
    intervals = rng.uniform(0.0, cfg.restrict_factor, n)
    t = rng.uniform(0.0, 1.0, n)
    r = np.maximum(0.0, t - intervals)
    return t, r


# ---------------------------------------------------------------------------
# CFG distillation (teacher mixture -> guidance-conditioned student)
# ---------------------------------------------------------------------------

def cfg_mixture(v_cond, v_uncond, g: float):
    """The guided mixture g*v_c + (1-g)*v_uc."""
    return g * v_cond + (1.0 - g) * v_uncond


def cfg_distill_step(student: VelocityModel, params: ParameterSet,
                     teacher: VelocityModel, teacher_params: ParameterSet,
                     batch: PathSample, cond: Condition, g: float,
                     cfg: CfgConfig, opt: OptimizerState) -> DistillBatchReport:
    """One optimizer step matching the student to the teacher mixture at one
    (t, g); the teacher is evaluated conditionally and with the null class."""
    if not (cfg.g_min <= g <= cfg.g_max):
        raise ContractViolation(f"g={g} outside [{cfg.g_min}, {cfg.g_max}]")
    v_c = value_of(teacher.forward(teacher_params.entries, batch.xt, batch.t,
                                   None, Condition(cond.class_id)))
    v_uc = value_of(teacher.forward(teacher_params.entries, batch.xt, batch.t,
                                    None, Condition(None)))
    if not (np.all(np.isfinite(v_c)) and np.all(np.isfinite(v_uc))):
        raise NumericFailure("teacher produced non-finite velocity")
    v_target = cfg_mixture(v_c, v_uc, g)

    leaves = params.lift()
    pred = student.forward(leaves, batch.xt, batch.t, None,
                           Condition(cond.class_id, g))
    loss = squared_error_loss(pred, v_target)
    gs = ad.param_grads(loss, leaves)
    norm = global_grad_norm(gs)
    adam_step(params, gs, opt)
    return DistillBatchReport(loss=float(loss.value), grad_norm=norm)


def init_student_from_teacher(student: VelocityModel, teacher_params: ParameterSet,
                              rng) -> ParameterSet:
    """Student starts as a copy of the teacher where names/shapes agree; the
    interval-time pathway starts at zero so r is initially ignored."""
    params = student.init_params(rng)
    for name, value in teacher_params.entries.items():
        if name in params.entries and params.entries[name].shape == value.shape:
            params.entries[name] = value.copy()
    if "time_r.w" in params.entries:
        params.entries["time_r.w"] = np.zeros_like(params.entries["time_r.w"])
        params.entries["time_r.b"] = np.zeros_like(params.entries["time_r.b"])
    return params


def train_cfg(student: VelocityModel, teacher: VelocityModel,
              teacher_params: ParameterSet, dist: ToyDistribution, *,
              cfg: CfgConfig, iters: int, batch_size: int, lr: float,
              lr_final: float | None = None, seed: int = 0):
    """Full CFG distillation loop; returns (student params, reports)."""
    rng = np.random.default_rng(np.random.SeedSequence([dist.seed, seed, 23]))
    params = init_student_from_teacher(student, teacher_params, rng)
    opt = OptimizerState.init(params, lr=lr)
    lr_final = lr if lr_final is None else lr_final
    reports = []
    for it in range(iters):
        k = int(rng.integers(0, dist.n_classes))
        t = float(rng.uniform())
        g = float(rng.uniform(cfg.g_min, cfg.g_max))
        x0 = dist.sample_class(k, batch_size, rng)
        x1 = rng.standard_normal(x0.shape)
        batch = PathSample.create(x0, x1, t)
        opt.hyper["lr"] = cosine_lr(lr, lr_final, it, iters)
        reports.append(cfg_distill_step(student, params, teacher, teacher_params,
                                        batch, Condition(k), g, cfg, opt))
    return params, reports


# ---------------------------------------------------------------------------
# Mean-velocity target and distillation
# ---------------------------------------------------------------------------

def _interval_forward(model: VelocityModel, params, x_t, t, r, v, cond):
    """Graph forward of u_theta at (x_t, r, t) with jvp tangents (v, 0, 1).

    t and r hold one time per group (scalars for a single group) and cond
    one Condition per group; the rows of x_t split evenly across the groups.
    x and t enter as constants that carry the tangents and r as a plain
    array, so the graph needs gradients only through `params`. Returns
    (u node, u_tgt array); a non-finite u or du/dt raises NumericFailure
    naming its origin primitive. u_tgt is detached by construction. In the
    rows of a group with t == r the target is exactly v (zero interval),
    bit-for-bit.
    """
    v = as_f64(v)
    t, r = as_f64(t), as_f64(r)
    x_node = ad.leaf(value_of(x_t), tangent=v, needs_grad=False)
    t_node = ad.leaf(t, tangent=np.ones_like(t), needs_grad=False)
    u = model.forward(params, x_node, t_node, r, cond)
    ad.check_finite(u)
    dudt = u.tangent
    if dudt is None:
        dudt = np.zeros_like(v)
    interval = np.repeat(np.reshape(t - r, -1), len(v) // t.size)[:, None]
    u_tgt = np.where(interval == 0.0, v, v - interval * dudt)
    if not np.all(np.isfinite(u_tgt)):
        raise NumericFailure("mean-velocity target is non-finite")
    return u, u_tgt


def meanflow_target(model: VelocityModel, params: ParameterSet, x_t,
                    pair: TimePair, v, cond: Condition = Condition()):
    """The stop-gradient regression target v - (t-r) du/dt (plain array)."""
    if not model.config.accepts_r:
        raise ContractViolation("mean-velocity target needs an accepts_r model")
    v = as_f64(v)
    if v.shape != np.shape(value_of(x_t)):
        raise ContractViolation("v must shape-match x_t")
    _, u_tgt = _interval_forward(model, params.entries, x_t, pair.t, pair.r,
                                 v, cond)
    return u_tgt


def meanflow_distill_step(model: VelocityModel, params: ParameterSet,
                          teacher: VelocityModel, teacher_params: ParameterSet,
                          groups, restrict: RestrictConfig, opt: OptimizerState,
                          clip: float | None = 1.0) -> DistillBatchReport:
    """One optimizer step over several (pair, sub-batch) groups.

    Each group carries (PathSample-like states, TimePair, Condition), and
    every group has the same number of rows. The groups are stacked into one
    batch: one teacher call gives v at (x_t, t) in instantaneous mode, one
    graph gives u and its tangent, and the gradient descends the mean over
    all rows of ||u - sg(u_tgt)||^2.
    """
    intervals = [pair.interval for _, pair, _ in groups]
    if max(intervals) > restrict.restrict_factor + 1e-12:
        raise ContractViolation(
            f"sampled interval {max(intervals)} escaped the restriction "
            f"{restrict.restrict_factor}")
    states = [as_f64(value_of(x_t)) for x_t, _, _ in groups]
    if len({len(x) for x in states}) != 1:
        raise ContractViolation(
            f"groups must have equal row counts, got {[len(x) for x in states]}")
    x_t = np.concatenate(states)
    t = np.array([pair.t for _, pair, _ in groups])
    r = np.array([pair.r for _, pair, _ in groups])
    conds = [cond for _, _, cond in groups]

    v = value_of(teacher.forward(teacher_params.entries, x_t, t, None, conds))
    leaves = params.lift()
    u, u_tgt = _interval_forward(model, leaves, x_t, t, r, v, conds)
    loss = squared_error_loss(u, u_tgt)
    gs = ad.param_grads(loss, leaves)
    if clip is not None:
        norm = clip_grad_norm(gs, clip)
    else:
        norm = global_grad_norm(gs)
    adam_step(params, gs, opt)
    return DistillBatchReport(loss=float(loss.value), grad_norm=norm,
                              interval_min=min(intervals),
                              interval_max=max(intervals),
                              interval_mean=float(np.mean(intervals)))


def train_meanflow(model: VelocityModel, init_params: ParameterSet,
                   teacher: VelocityModel, teacher_params: ParameterSet,
                   dist: ToyDistribution, *, restrict: RestrictConfig,
                   cfg: CfgConfig | None, iters: int, batch_size: int,
                   groups_per_step: int = 4, lr: float, lr_final: float | None = None,
                   clip: float | None = 1.0, seed: int = 0):
    """Mean-velocity distillation loop starting from the CFG student.

    Every step draws `groups_per_step` restricted pairs and splits the batch
    evenly across them, giving the report meaningful interval statistics.
    Each step is one teacher call and one graph over the whole batch.
    """
    if not model.config.accepts_r:
        raise ContractViolation("mean-velocity distillation needs accepts_r")
    if groups_per_step < 1 or batch_size < 1 or batch_size % groups_per_step:
        raise ContractViolation(
            f"batch_size {batch_size} does not split into {groups_per_step} "
            f"equal groups")
    rng = np.random.default_rng(np.random.SeedSequence([dist.seed, seed, 37]))
    params = init_params.copy()
    opt = OptimizerState.init(params, lr=lr)
    lr_final = lr if lr_final is None else lr_final
    per_group = batch_size // groups_per_step
    reports = []
    for it in range(iters):
        groups = []
        for _ in range(groups_per_step):
            pair = sample_t_r(restrict, rng)
            k = int(rng.integers(0, dist.n_classes))
            g = float(rng.uniform(cfg.g_min, cfg.g_max)) if cfg is not None else None
            x0 = dist.sample_class(k, per_group, rng)
            x1 = rng.standard_normal(x0.shape)
            x_t = (1.0 - pair.t) * x0 + pair.t * x1
            groups.append((x_t, pair, Condition(k, g)))
        opt.hyper["lr"] = cosine_lr(lr, lr_final, it, iters)
        reports.append(meanflow_distill_step(model, params, teacher,
                                             teacher_params, groups, restrict,
                                             opt, clip))
    return params, reports
