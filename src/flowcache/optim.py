"""Adam with its learning-rate schedule, gradient clipping, spectral
normalization, and the settings of one training loop.

Every training stage steps through `descend`. It consumes the loss's
graph: once the gradients are taken and the loss value read, the loss Node
is cut from its operands, so a graph no caller still holds is freed before
the norm pass and the Adam update run. The loss Node keeps its value.

The cosine learning-rate schedule lives in `OptimizerState`: it holds the
peak rate, the final rate and the iteration count, and `adam_step` takes
step k at cosine_lr(lr, lr_final, k, iters), so no training loop computes a
rate. Adam's moment decays and epsilon are the usual constants.

The spectral normalizer keeps a persistent left singular-vector estimate per
weight and refines it with one power iteration per call (the usual
train-time discipline); the returned weight is W / sigma_hat with sigma_hat
the Rayleigh estimate u^T W v of the largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Node, ParameterSet, as_f64, value_of
from .errors import ContractViolation, NumericFailure

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainSettings:
    """The loop settings of one training stage, as its config section gives
    them. `lr_final` None keeps the rate at `lr`."""

    iters: int
    batch_size: int
    lr: float
    lr_final: float | None = None
    p_uncond: float = 0.1  # base stage only
    groups_per_step: int = 4  # mean-velocity stage only
    grad_clip: float | None = 1.0  # mean-velocity stage only

    def __post_init__(self):
        for name in ("iters", "batch_size", "groups_per_step"):
            if getattr(self, name) < 1:
                raise ContractViolation(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "lr_final", "grad_clip"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ContractViolation(f"{name} must be > 0, got {value}")
        if not (0.0 <= self.p_uncond <= 1.0):
            raise ContractViolation(
                f"p_uncond must lie in [0, 1], got {self.p_uncond}")


def cosine_lr(lr0: float, lr1: float, it: int, total: int) -> float:
    """Cosine decay from lr0 at it = 0 to lr1 at it = total - 1."""
    if total <= 1:
        return lr0
    w = 0.5 * (1.0 + np.cos(np.pi * it / (total - 1)))
    return lr1 + (lr0 - lr1) * w


@dataclass
class OptimizerState:
    """Per-parameter first/second moments and the learning-rate schedule:
    step k runs at cosine_lr(lr, lr_final, k, iters), or at lr when lr_final
    is None."""

    first_moment: dict[str, Array]
    second_moment: dict[str, Array]
    lr: float
    lr_final: float | None = None
    iters: int = 1
    step_count: int = 0

    @classmethod
    def init(cls, params: ParameterSet, lr: float, lr_final: float | None = None,
             iters: int = 1) -> "OptimizerState":
        return cls(
            first_moment={k: np.zeros_like(v) for k, v in params.entries.items()},
            second_moment={k: np.zeros_like(v) for k, v in params.entries.items()},
            lr=float(lr), lr_final=None if lr_final is None else float(lr_final),
            iters=int(iters))

    @property
    def current_lr(self) -> float:
        """The rate of the next step."""
        if self.lr_final is None:
            return self.lr
        return cosine_lr(self.lr, self.lr_final, self.step_count, self.iters)


def adam_step(params: ParameterSet, grads: dict[str, Array],
              state: OptimizerState) -> None:
    """One bias-corrected adaptive-moment update, in place, at the state's
    scheduled rate.

    All gradients are validated before anything is touched: a NaN/Inf
    gradient raises NumericFailure and leaves parameters unchanged.
    """
    for name, p in params.entries.items():
        g = grads.get(name)
        if g is None:
            raise ContractViolation(f"missing gradient for parameter '{name}'")
        if np.shape(g) != p.shape:
            raise ContractViolation(
                f"gradient shape {np.shape(g)} does not match parameter "
                f"'{name}' shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericFailure(f"non-finite gradient for parameter '{name}'")

    lr = state.current_lr
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    t = state.step_count + 1
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.entries.items():
        g = as_f64(grads[name])
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    state.step_count = t


@dataclass
class StepReport:
    """One optimizer step: loss, pre-clip gradient norm and rate, plus a
    mean-velocity step's intervals or a GAN step's discriminator record;
    `float()` and `loss_p` give the loss, as perfbench's tracer reads it."""

    loss: float
    grad_norm: float
    lr: float
    interval_min: float | None = None
    interval_max: float | None = None
    interval_mean: float | None = None
    loss_d: float | None = None
    d_real_score: float | None = None
    d_fake_score: float | None = None
    loss_p = property(lambda self: self.loss)

    def __float__(self) -> float:
        return self.loss


def descend(params: ParameterSet, leaves: dict[str, Node], loss: Node,
            opt: OptimizerState, clip: float | None = None) -> StepReport:
    """One step on `loss` over `leaves`, lifted from `params`; gradients
    over a global norm of `clip` are scaled down to it. Finite gradients
    whose norm overflows float64 raise NumericFailure before any parameter
    or moment is touched: clipping by an infinite norm would zero the step,
    and Adam's second moment would become infinite.

    Consumes the loss's graph: after the gradients are taken, `loss` keeps
    its value but loses its operands and VJP, so the graph behind it is
    freed before the update unless the caller still holds one of its Nodes.
    """
    grads = ad.param_grads(loss, leaves)
    value = float(loss.value)
    loss.parents, loss.vjp = (), None
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if np.isinf(norm) and all(np.all(np.isfinite(g)) for g in grads.values()):
        raise NumericFailure("the gradient norm overflows float64: the squares "
                             "of finite gradients sum past its range")
    if clip is not None and norm > clip:
        # not in place: leaves that received one cotangent share its array
        for name, g in grads.items():
            grads[name] = g * (clip / norm)
    lr = opt.current_lr
    adam_step(params, grads, opt)
    return StepReport(loss=value, grad_norm=norm, lr=lr)


def spectral_normalize(weight: Array | Node,
                       u_state: Array) -> tuple[Array | Node, Array, bool]:
    """One power-iteration refinement and division by the Rayleigh estimate.

    Returns (normalized weight, updated u_state, degenerate). A zero weight
    matrix cannot be normalized; it is returned unchanged with the degeneracy
    flag set and u_state untouched. Sigma is built with the autodiff
    primitives, with u and v held constant, so a graph ``Node`` weight gets
    gradients through the normalization and a raw weight gets the bit-equal
    value.
    """
    weight = weight if isinstance(weight, Node) else as_f64(weight)
    wv = value_of(weight)
    u_state = as_f64(u_state)
    if wv.ndim != 2:
        raise ContractViolation("spectral_normalize expects a rank-2 weight")
    if u_state.shape != (wv.shape[0],):
        raise ContractViolation(
            f"u_state length {u_state.shape} does not match weight row count "
            f"{wv.shape[0]}")
    if not np.any(u_state):
        raise ContractViolation("u_state must be nonzero")
    if not np.any(wv):
        return weight, u_state, True

    v = wv.T @ u_state
    nv = np.linalg.norm(v)
    if nv == 0.0:
        # u_state happens to lie in the left null space; cannot make progress
        return weight, u_state, True
    v = v / nv
    u = wv @ v
    nu = np.linalg.norm(u)
    if nu == 0.0:
        return weight, u_state, True
    u = u / nu
    sigma = ad.sum_(ad.mul(ad.matmul(weight, v.reshape(-1, 1)), u.reshape(-1, 1)))
    return ad.div(weight, sigma), u, False
