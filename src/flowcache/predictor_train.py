"""Cache-conditioned predictor training: an MSE initialization phase, then
an adversarial phase with a multi-scale hinge discriminator reading features
from the frozen distilled backbone.

Each training draw builds a cache at a restricted pair (t, r), offsets both
endpoints by Delta ~ U(0, Delta_max) clamped at zero,

    (t', r') = (max(0, t - Delta), max(0, r - Delta)),

and asks the predictor to reproduce the frozen backbone's mean velocity at
the offset query, both states built from the same (x0, noise) draw.

In the adversarial phase the compared samples are the landed states
x'' = x' - (t' - r') u for the predicted and the target velocity. The
discriminator sees backbone features of those states taken at the
instantaneous pair (t'', t'') with t'' = r' (the landed time); the
predictor minimizes  MSE + lambda * hinge(1 - D(fake))  and the
discriminator then minimizes  hinge(1 - D(real)) + hinge(1 + D(fake)) with
the fake re-scored as a constant (the predictor update always sees
discriminator weights from before the discriminator's own update).

With lambda = 0 the predictor update is bit-for-bit the plain MSE update on
the same batch, which the determinism tests rely on.

Each iteration of either phase yields the `optim.StepReport` of its
predictor step; a GAN iteration's adds the discriminator's loss and scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, as_f64, value_of
from .distill import RestrictConfig, sample_t_r
from .errors import ContractViolation, NumericFailure
from .flow import (TimePair, ToyDistribution, draw_path, interpolate,
                   squared_error_loss)
from .nets import (Condition, Discriminator, DiscriminatorConfig, Predictor,
                   VelocityModel, default_taps)
from .optim import OptimizerState, StepReport, descend


# ---------------------------------------------------------------------------
# Config and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictorTrainConfig:
    delta_max: float = 0.2
    mse_iters: int = 500
    gan_iters: int = 1000
    lambda_adv: float = 1.0
    lr_predictor: float = 1e-4
    lr_discriminator: float = 1e-2
    batch_size: int = 128
    disc_hidden_dim: int = 32
    spectral_norm: bool = True

    def __post_init__(self):
        if not (0.0 < self.delta_max <= 1.0):
            raise ContractViolation("delta_max must lie in (0, 1]")
        if self.lambda_adv < 0.0:
            raise ContractViolation("lambda_adv must be >= 0")
        if self.lr_predictor <= 0 or self.lr_discriminator <= 0:
            raise ContractViolation(
                "lr_predictor and lr_discriminator must be positive")
        if self.mse_iters < 0 or self.gan_iters < 0:
            raise ContractViolation("mse_iters and gan_iters must be >= 0")
        if self.mse_iters + self.gan_iters < 1:
            raise ContractViolation(
                "mse_iters + gan_iters must be >= 1: nothing would train")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if self.disc_hidden_dim < 1:
            raise ContractViolation("disc_hidden_dim must be >= 1")


@dataclass(frozen=True)
class TrainingPair:
    """One cache-and-query draw: the cached velocity with its origin, the
    offset query state/times/condition, and the frozen model's answer."""

    cache_value: np.ndarray
    cache_origin: TimePair
    x_query: np.ndarray
    query: TimePair
    cond: Condition
    target_u: np.ndarray


# ---------------------------------------------------------------------------
# Training-pair construction
# ---------------------------------------------------------------------------

def build_training_pair(model: VelocityModel, params: ParameterSet,
                        dist: ToyDistribution, restrict: RestrictConfig,
                        cfg: PredictorTrainConfig, rng) -> TrainingPair:
    """Sample one batched training draw from the frozen distilled model.

    Consumes, in order: the restricted pair, Delta, the class label, the
    guidance scale (when the backbone is guidance-conditioned), x0, noise.
    """
    pair = sample_t_r(restrict, rng)
    delta = float(rng.uniform(0.0, cfg.delta_max))
    k = int(rng.integers(0, dist.n_classes))
    g = None
    if model.config.accepts_cfg:
        g = float(rng.uniform(model.config.cfg_min, model.config.cfg_max))
    cond = Condition(k, g)
    x0, eps = draw_path(dist, k, cfg.batch_size, rng)

    x_t = interpolate(x0, eps, pair.t)
    cache_value = as_f64(value_of(model.forward(params.entries, x_t, pair.t,
                                                pair.r, cond)))
    query = TimePair(max(0.0, pair.t - delta), max(0.0, pair.r - delta))
    x_q = interpolate(x0, eps, query.t)
    target_u = as_f64(value_of(model.forward(params.entries, x_q, query.t,
                                             query.r, cond)))
    if not (np.all(np.isfinite(cache_value)) and np.all(np.isfinite(target_u))):
        raise NumericFailure("frozen backbone produced non-finite training pair")
    return TrainingPair(cache_value=cache_value, cache_origin=pair,
                        x_query=x_q, query=query, cond=cond, target_u=target_u)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def extract_features(extractor: VelocityModel, params: ParameterSet, x,
                     pair: TimePair, cond: Condition, taps):
    """Backbone activations at the tapped blocks; parameters stay raw (no
    gradient into the extractor), gradients flow to x."""
    _, feats = extractor.forward(params.entries, x, pair.t, pair.r, cond,
                                 taps=list(taps))
    return feats


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def _predictor_loss_graph(predictor: Predictor, leaves, pair: TrainingPair):
    u_pred = predictor.forward(leaves, pair.cache_value, pair.x_query,
                               pair.query.t, pair.query.r, pair.cond)
    mse = squared_error_loss(u_pred, pair.target_u)
    return u_pred, mse


def predictor_mse_step(predictor: Predictor, params: ParameterSet,
                       pair: TrainingPair, opt: OptimizerState) -> StepReport:
    """One optimizer step on the squared error to the frozen target."""
    leaves = params.lift()
    return descend(params, leaves,
                   _predictor_loss_graph(predictor, leaves, pair)[1], opt)


def hinge_mean(scores, sign: float):
    """E[max(0, 1 - sign * score)] over the batch."""
    return ad.mean(ad.maximum_const(ad.sub(1.0, ad.mul(scores, sign)), 0.0))


def gan_step(predictor: Predictor, params: ParameterSet,
             disc: Discriminator, extractor: VelocityModel,
             extractor_params: ParameterSet, pair: TrainingPair,
             cfg: PredictorTrainConfig, opt_p: OptimizerState,
             opt_d: OptimizerState, taps) -> StepReport:
    """Predictor update, then discriminator update, on one training pair;
    the predictor's report with the discriminator's loss and scores."""
    interval = pair.query.interval
    landed = TimePair(pair.query.r, pair.query.r)

    # -- predictor update (discriminator frozen as-is) -----------------------
    leaves = params.lift()
    u_pred, loss_p = _predictor_loss_graph(predictor, leaves, pair)
    if cfg.lambda_adv > 0.0:
        x_fake = ad.sub(pair.x_query, ad.mul(u_pred, interval))
        fake_scores = disc.forward(disc.params.entries, extract_features(
            extractor, extractor_params, x_fake, landed, pair.cond, taps))
        loss_p = ad.add(loss_p,
                        ad.mul(hinge_mean(fake_scores, 1.0), cfg.lambda_adv))
        del x_fake, fake_scores  # so `descend` frees the adversarial graph
    report = descend(params, leaves, loss_p, opt_p)

    # -- discriminator update (fake re-scored without gradient) --------------
    x_fake_const = pair.x_query - interval * value_of(u_pred)
    x_real_const = pair.x_query - interval * pair.target_u
    d_leaves = disc.params.lift()
    real_feats = extract_features(extractor, extractor_params, x_real_const,
                                  landed, pair.cond, taps)
    fake_feats = extract_features(extractor, extractor_params, x_fake_const,
                                  landed, pair.cond, taps)
    real_scores = disc.forward(d_leaves, real_feats)
    fake_scores = disc.forward(d_leaves, fake_feats)
    loss_d = ad.add(hinge_mean(real_scores, 1.0), hinge_mean(fake_scores, -1.0))
    report.loss_d = descend(disc.params, d_leaves, loss_d, opt_d).loss
    report.d_real_score = float(np.mean(value_of(real_scores)))
    report.d_fake_score = float(np.mean(value_of(fake_scores)))
    return report


# ---------------------------------------------------------------------------
# Full training loop
# ---------------------------------------------------------------------------

def train_predictor(backbone: VelocityModel, backbone_params: ParameterSet,
                    predictor: Predictor, dist: ToyDistribution, *,
                    restrict: RestrictConfig, cfg: PredictorTrainConfig,
                    seed: int = 0):
    """MSE phase then GAN phase against the frozen backbone.

    Every iteration consumes the same data-stream draws in either phase and
    the discriminator draws from its own stream, so a lambda=0 run walks the
    identical predictor trajectory as a pure-MSE run (gan_iters=0 with as
    many MSE iterations).

    Returns (predictor params, discriminator, one `StepReport` per
    iteration of both phases, the GAN phase's reports for perfbench).
    """
    rng = np.random.default_rng(np.random.SeedSequence([dist.seed, seed, 53]))
    disc_rng = np.random.default_rng(np.random.SeedSequence([dist.seed, seed, 54]))
    params = predictor.init_params(rng)
    opt_p = OptimizerState.init(params, lr=cfg.lr_predictor)

    dc = DiscriminatorConfig(scales=tuple(default_taps(backbone.config.depth)),
                             hidden_dim=cfg.disc_hidden_dim,
                             spectral_norm=cfg.spectral_norm)
    taps = list(dc.scales)
    disc = Discriminator(dc, feature_dim=backbone.config.hidden_dim, rng=disc_rng)
    opt_d = OptimizerState.init(disc.params, lr=cfg.lr_discriminator)

    before = {k: v.copy() for k, v in backbone_params.entries.items()}
    reports: list[StepReport] = []
    for it in range(cfg.mse_iters + cfg.gan_iters):
        pair = build_training_pair(backbone, backbone_params, dist, restrict,
                                   cfg, rng)
        reports.append(
            predictor_mse_step(predictor, params, pair, opt_p)
            if it < cfg.mse_iters else
            gan_step(predictor, params, disc, backbone, backbone_params,
                     pair, cfg, opt_p, opt_d, taps))
    for k, v in backbone_params.entries.items():
        if not np.array_equal(before[k], v):
            raise ContractViolation("frozen backbone parameters changed during training")
    return params, disc, reports, reports[cfg.mse_iters:]
