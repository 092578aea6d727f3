"""Adam optimizer state/step, gradient clipping, and spectral normalization.

The spectral normalizer keeps a persistent left singular-vector estimate per
weight and refines it with one power iteration per call (the usual
train-time discipline); the returned weight is W / sigma_hat with sigma_hat
the Rayleigh estimate u^T W v of the largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Node, ParameterSet, as_f64, value_of
from .errors import ContractViolation, NumericFailure


@dataclass
class OptimizerState:
    """Per-parameter first/second moments plus hyperparameters."""

    first_moment: dict[str, Array]
    second_moment: dict[str, Array]
    step_count: int = 0
    hyper: dict[str, float] = field(default_factory=dict)

    @classmethod
    def init(cls, params: ParameterSet, lr: float, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerState":
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ContractViolation("adam betas must lie strictly in (0, 1)")
        return cls(
            first_moment={k: np.zeros_like(v) for k, v in params.entries.items()},
            second_moment={k: np.zeros_like(v) for k, v in params.entries.items()},
            step_count=0,
            hyper={"lr": float(lr), "beta1": float(beta1),
                   "beta2": float(beta2), "eps": float(eps)},
        )


def adam_step(params: ParameterSet, grads: dict[str, Array],
              state: OptimizerState) -> tuple[ParameterSet, OptimizerState]:
    """One bias-corrected adaptive-moment update, in place.

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

    lr = state.hyper["lr"]
    b1, b2, eps = state.hyper["beta1"], state.hyper["beta2"], state.hyper["eps"]
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
    params.version += 1
    return params, state


def global_grad_norm(grads: dict[str, Array]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_grad_norm(grads: dict[str, Array], max_norm: float) -> float:
    """Scale gradients in place to a global norm cap; returns pre-clip norm."""
    norm = global_grad_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def spectral_normalize(weight: Array | Node,
                       u_state: Array) -> tuple[Array | Node, Array, bool]:
    """One power-iteration refinement and division by the Rayleigh estimate.

    Returns (normalized weight, updated u_state, degenerate). A zero weight
    matrix cannot be normalized; it is returned unchanged with the degeneracy
    flag set and u_state untouched. For a graph ``Node`` weight sigma is built
    inside the graph with u and v held constant, so gradients see the
    normalization; u is bit-equal to the raw call's, the weight agrees to
    rounding (sigma is summed in a different order).
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
    if isinstance(weight, Node):
        sigma = ad.sum_(ad.mul(ad.matmul(weight, v.reshape(-1, 1)),
                               u.reshape(-1, 1)))
        return ad.div(weight, sigma), u, False
    return wv / float(u @ wv @ v), u, False
