"""Toy data distributions, base flow-matching training, samplers, and the
analytic oracles for the 1D Gaussian case.

Time convention: t=1 is pure noise, t=0 is data, and the interpolation path
is x_t = (1-t) x0 + t x1 with x1 ~ N(0, I). Samplers therefore walk t
downward, and one exact mean-velocity step is x_r = x_t - (t-r) u.

For gaussian1d data with std sigma_d the probability-flow ODE is linear,
dx/dtau = a(tau) x with

    a(tau) = (tau - (1-tau) sigma_d^2) / ((1-tau)^2 sigma_d^2 + tau^2),

and since a(tau) = d/dtau log s(tau) for s(tau)^2 = (1-tau)^2 sigma_d^2 +
tau^2, the solution operator is simply s(r)/s(t). That closed form backs
analytic_mean_velocity; the RK4 fine-step integrator lives in the tests as
an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, as_f64, value_of
from .errors import ContractViolation
from .nets import Condition, VelocityModel
from .optim import OptimizerState, adam_step

DIST_KINDS = ("gaussian1d", "two_moons", "checkerboard", "eight_gaussians")


# ---------------------------------------------------------------------------
# Time pairs and path samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimePair:
    """Interval endpoints with 0 <= r <= t <= 1; t is the start (noisier
    side), r the destination."""

    t: float
    r: float

    def __post_init__(self):
        if not (0.0 <= self.r <= self.t <= 1.0):
            raise ContractViolation(f"invalid time pair (t={self.t}, r={self.r})")

    @property
    def interval(self) -> float:
        return self.t - self.r


@dataclass(frozen=True)
class PathSample:
    """One interpolation batch: xt must equal (1-t) x0 + t x1 elementwise."""

    x0: Array
    x1: Array
    t: float
    xt: Array

    def __post_init__(self):
        expected = (1.0 - self.t) * self.x0 + self.t * self.x1
        if not np.array_equal(self.xt, expected):
            raise ContractViolation("xt does not satisfy the interpolation identity")

    @classmethod
    def create(cls, x0, x1, t: float) -> "PathSample":
        x0, x1 = as_f64(x0), as_f64(x1)
        return cls(x0=x0, x1=x1, t=float(t), xt=(1.0 - t) * x0 + t * x1)


# ---------------------------------------------------------------------------
# Toy distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyDistribution:
    """A named toy data marginal; sampling is deterministic per (seed, call
    seed). Class structure: gaussian1d has one class, two_moons the two
    moons, checkerboard the two column-parity families, eight_gaussians the
    eight modes."""

    kind: str
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ContractViolation(f"unknown distribution kind '{self.kind}'")
        if self.kind == "gaussian1d" and not self.sigma > 0:
            raise ContractViolation("gaussian1d requires sigma > 0")

    @property
    def dim(self) -> int:
        return 1 if self.kind == "gaussian1d" else 2

    @property
    def n_classes(self) -> int:
        return {"gaussian1d": 1, "two_moons": 2,
                "checkerboard": 2, "eight_gaussians": 8}[self.kind]

    def rng_for(self, call_seed: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, int(call_seed)]))

    # -- generators ----------------------------------------------------------

    def sample_labeled(self, n: int, rng) -> tuple[Array, Array]:
        if n <= 0:
            raise ContractViolation("n must be positive")
        labels = rng.integers(0, self.n_classes, size=n)
        return self._points_for(labels, rng), labels

    def sample_class(self, class_id: int, n: int, rng) -> Array:
        if not (0 <= class_id < self.n_classes):
            raise ContractViolation(f"class_id {class_id} out of range")
        labels = np.full(n, class_id, dtype=np.int64)
        return self._points_for(labels, rng)

    def _points_for(self, labels: Array, rng) -> Array:
        n = labels.shape[0]
        if self.kind == "gaussian1d":
            return self.sigma * rng.standard_normal((n, 1))
        if self.kind == "two_moons":
            theta = rng.uniform(0.0, np.pi, n)
            # noise is clipped at 4 sigma so samples stay inside the box
            noise = np.clip(rng.normal(0.0, 0.08, (n, 2)), -0.32, 0.32)
            upper = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            lower = np.stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)], axis=1)
            base = np.where(labels[:, None] == 0, upper, lower)
            return 1.4 * (base - np.array([0.5, 0.25])) + noise
        if self.kind == "checkerboard":
            # 4x4 board on [-2,2]^2, dark cells only; class = column parity
            cell = rng.integers(0, 4, size=n)  # which dark cell within the class
            col = labels + 2 * (cell // 2)
            row_options = np.where((col % 2) == 0, 0, 1)
            row = row_options + 2 * (cell % 2)
            u = rng.uniform(0.0, 1.0, n)
            v = rng.uniform(0.0, 1.0, n)
            x = -2.0 + (col + u) * 1.0
            y = -2.0 + (row + v) * 1.0
            return np.stack([x, y], axis=1)
        if self.kind == "eight_gaussians":
            angles = 2.0 * np.pi * labels / 8.0
            centers = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            return centers + 0.12 * rng.standard_normal((n, 2))
        raise ContractViolation(f"unknown distribution kind '{self.kind}'")


def sample_data(dist: ToyDistribution, n: int, seed: int) -> Array:
    """n i.i.d. draws from the marginal; bit-reproducible per (dist, seed)."""
    points, _ = dist.sample_labeled(n, dist.rng_for(seed))
    return points


def sample_data_labeled(dist: ToyDistribution, n: int, seed: int):
    return dist.sample_labeled(n, dist.rng_for(seed))


# ---------------------------------------------------------------------------
# Losses and samplers
# ---------------------------------------------------------------------------

def fm_loss_from_output(pred, batch: PathSample):
    """Mean over the batch of the squared L2 distance to x1 - x0."""
    target = batch.x1 - batch.x0
    return ad.mean(ad.sum_(ad.square(ad.sub(pred, target)), axis=1))


def fm_loss(model: VelocityModel, params, batch: PathSample,
            cond: Condition = Condition()):
    """Flow-matching regression loss for an instantaneous-velocity model."""
    if model.config.accepts_r:
        raise ContractViolation(
            "flow-matching regression expects an accepts_r=False model")
    pred = model.forward(params, batch.xt, batch.t, None, cond)
    return fm_loss_from_output(pred, batch)


def euler_walk(field, x1: Array, steps: int) -> Array:
    """Backward Euler walk of dx/dt = field(x, t) from t=1 to t=0."""
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    x = as_f64(x1)
    dt = 1.0 / steps
    for j in range(steps):
        t = 1.0 - j / steps
        x = x - dt * field(x, t)
    return x


def euler_sample(model: VelocityModel, params, x1: Array, steps: int,
                 cond: Condition = Condition(), cfg_scale: float | None = None,
                 uncond_params=None) -> Array:
    """Euler integration of the learned field; with cfg_scale set, each step
    uses the guided mixture g*v_c + (1-g)*v_uc (null-condition branch)."""
    if cfg_scale is None:
        def field(x, t):
            return value_of(model.forward(params, x, t, None, cond))
    else:
        uparams = params if uncond_params is None else uncond_params
        uncond = Condition(class_id=None, cfg_scale=cond.cfg_scale)

        def field(x, t):
            vc = value_of(model.forward(params, x, t, None, cond))
            vu = value_of(model.forward(uparams, x, t, None, uncond))
            return cfg_scale * vc + (1.0 - cfg_scale) * vu

    return euler_walk(field, x1, steps)


def mean_velocity_step(x_t: Array, pair: TimePair, u: Array) -> Array:
    """One exact-in-principle step: x_r = x_t - (t - r) u."""
    x_t, u = as_f64(x_t), as_f64(u)
    if x_t.shape != u.shape:
        raise ContractViolation(
            f"state shape {x_t.shape} does not match velocity shape {u.shape}")
    return x_t - pair.interval * u


def mean_velocity_sample(model: VelocityModel, params, pairs, x1: Array,
                         cond: Condition = Condition()) -> Array:
    """Uncached multi-step sampler: one full model call per time pair."""
    x = as_f64(x1)
    for pair in pairs:
        u = value_of(model.forward(params, x, pair.t, pair.r, cond))
        x = mean_velocity_step(x, pair, u)
    return x


def uniform_pairs(steps: int) -> list[TimePair]:
    """Contiguous uniform grid from t=1 down to 0 (r_j == t_{j+1} exactly)."""
    if steps < 1:
        raise ContractViolation("steps must be >= 1")
    grid = [1.0 - k / steps for k in range(steps + 1)]
    return [TimePair(grid[j], grid[j + 1]) for j in range(steps)]


# ---------------------------------------------------------------------------
# Analytic oracles (gaussian1d)
# ---------------------------------------------------------------------------

def analytic_gaussian_velocity(x, t: float, sigma_d: float):
    """E[x1 - x0 | x_t = x] for x0 ~ N(0, sigma_d^2), x1 ~ N(0, 1)."""
    if not (0.0 <= float(value_of(t)) <= 1.0):
        raise ContractViolation("t outside [0, 1]")
    if not sigma_d > 0:
        raise ContractViolation("sigma_d must be positive")
    num = ad.sub(t, ad.mul(ad.sub(1.0, t), sigma_d ** 2))
    den = ad.add(ad.square(ad.mul(ad.sub(1.0, t), sigma_d)), ad.square(t))
    return ad.mul(x, ad.div(num, den))


def _path_scale(t, sigma_d: float):
    """s(t) = sqrt((1-t)^2 sigma_d^2 + t^2), the marginal std along the path."""
    return ad.sqrt(ad.add(ad.square(ad.mul(ad.sub(1.0, t), sigma_d)), ad.square(t)))


def analytic_mean_velocity_tr(x_t, t, r, sigma_d: float):
    """Graph-compatible core of analytic_mean_velocity (t, r may be Nodes)."""
    if float(value_of(r)) >= float(value_of(t)):
        raise ContractViolation(
            "analytic_mean_velocity requires r < t; use "
            "analytic_gaussian_velocity for the instantaneous limit")
    ratio = ad.div(_path_scale(r, sigma_d), _path_scale(t, sigma_d))
    return ad.mul(x_t, ad.div(ad.sub(1.0, ratio), ad.sub(t, r)))


def analytic_mean_velocity(x_t, pair, sigma_d: float):
    """Exact mean velocity over [r, t]: x_t (1 - s(r)/s(t)) / (t - r).

    The solution operator of the linear path ODE is s(r)/s(t), so this is
    the integral-mean of the instantaneous field in closed form. For r == t
    use analytic_gaussian_velocity (the limit).
    """
    return analytic_mean_velocity_tr(x_t, pair.t, pair.r, sigma_d)


# ---------------------------------------------------------------------------
# Base flow-matching training
# ---------------------------------------------------------------------------

def cosine_lr(lr0: float, lr1: float, it: int, total: int) -> float:
    if total <= 1:
        return lr0
    w = 0.5 * (1.0 + np.cos(np.pi * it / (total - 1)))
    return lr1 + (lr0 - lr1) * w


def train_base(model: VelocityModel, dist: ToyDistribution, *, iters: int,
               batch_size: int, lr: float, lr_final: float | None = None,
               p_uncond: float = 0.1, seed: int = 0):
    """Train the instantaneous-velocity teacher with condition dropout.

    Each iteration draws one class and one t for the whole batch (the model
    conditions on scalar times), and with probability p_uncond trains the
    null-condition branch on that batch.
    """
    rng = np.random.default_rng(np.random.SeedSequence([dist.seed, seed, 11]))
    params = model.init_params(rng)
    opt = OptimizerState.init(params, lr=lr)
    lr_final = lr if lr_final is None else lr_final
    losses = []
    for it in range(iters):
        k = int(rng.integers(0, dist.n_classes))
        drop = rng.uniform() < p_uncond
        t = float(rng.uniform())
        x0 = dist.sample_class(k, batch_size, rng)
        x1 = rng.standard_normal(x0.shape)
        batch = PathSample.create(x0, x1, t)
        cond = Condition(class_id=None if drop else k)

        leaves = params.lift()
        loss = fm_loss(model, leaves, batch, cond)
        gs = ad.param_grads(loss, leaves)
        opt.hyper["lr"] = cosine_lr(lr, lr_final, it, iters)
        adam_step(params, gs, opt)
        losses.append(float(loss.value))
    return params, losses
