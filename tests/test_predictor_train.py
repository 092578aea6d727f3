"""Predictor training: pair construction (offset clamping), MSE and GAN
steps, frozen-extractor discipline, and the lambda=0 determinism contract."""

import numpy as np
import pytest

from flowcache import autodiff as ad
from flowcache.distill import RestrictConfig
from flowcache.errors import ContractViolation
from flowcache.flow import TimePair, ToyDistribution
from flowcache.nets import (Condition, DiscriminatorConfig, Predictor,
                            PredictorConfig, VelocityModel,
                            VelocityModelConfig, default_taps)
from flowcache.optim import OptimizerState, StepReport
from flowcache.predictor_train import (PredictorTrainConfig,
                                       TrainingPair, build_training_pair,
                                       extract_features, gan_step, hinge_mean,
                                       predictor_mse_step, train_predictor)

from conftest import fd_grad, rel_err


def small_backbone(rng, input_dim=1, randomize=True):
    m = VelocityModel(VelocityModelConfig(
        input_dim=input_dim, hidden_dim=48, depth=3, time_embed_dim=8,
        condition_vocab=1, accepts_r=True))
    p = m.init_params(rng)
    if randomize:
        for k in p.entries:
            p.entries[k] = 0.25 * rng.standard_normal(p.entries[k].shape)
    return m, p


def small_predictor(backbone, rng):
    pred = Predictor(PredictorConfig(hidden_dim=12, depth=1, time_embed_dim=4),
                     backbone)
    return pred, pred.init_params(rng)


class SequencedRng:
    """Scripted uniform draws; everything else delegates to a real rng."""

    def __init__(self, uniforms, seed=0):
        self.uniforms = list(uniforms)
        self.inner = np.random.default_rng(seed)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        if size is None and self.uniforms:
            v = self.uniforms.pop(0)
            return lo + (hi - lo) * v
        return self.inner.uniform(lo, hi, size)

    def integers(self, *a, **k):
        return self.inner.integers(*a, **k)

    def standard_normal(self, *a, **k):
        return self.inner.standard_normal(*a, **k)


# ---------------------------------------------------------------------------
# training pairs
# ---------------------------------------------------------------------------

def test_zero_offset_pair_reproduces_cache(rng):
    backbone, params = small_backbone(rng)
    dist = ToyDistribution("gaussian1d")
    # scripted draws: interval fraction, t, then Delta = 0
    srng = SequencedRng([0.5, 0.7, 0.0], seed=1)
    pair = build_training_pair(backbone, params, dist, RestrictConfig(0.2),
                               PredictorTrainConfig(batch_size=8), srng)
    assert pair.query == pair.cache_origin
    assert np.array_equal(pair.target_u, pair.cache_value)


def test_offset_clamps_at_zero(rng):
    backbone, params = small_backbone(rng)
    dist = ToyDistribution("gaussian1d")
    # t = 0.15, interval draw gives r = 0.05, Delta = 0.2 -> query (0, 0)
    srng = SequencedRng([0.5, 0.15, 1.0], seed=2)
    pair = build_training_pair(backbone, params, dist, RestrictConfig(0.2),
                               PredictorTrainConfig(delta_max=0.2, batch_size=4),
                               srng)
    assert pair.cache_origin.t == 0.15
    assert pair.cache_origin.r == pytest.approx(0.05)
    assert pair.query == TimePair(0.0, 0.0)


def test_offsets_respect_delta_max(rng):
    backbone, params = small_backbone(rng)
    dist = ToyDistribution("gaussian1d")
    cfg = PredictorTrainConfig(delta_max=0.2, batch_size=2)
    gen = np.random.default_rng(3)
    for _ in range(200):
        pair = build_training_pair(backbone, params, dist, RestrictConfig(0.2),
                                   cfg, gen)
        assert pair.cache_origin.t - pair.query.t <= 0.2 + 1e-12
        assert pair.query.r <= pair.query.t
    # the Delta draw itself is uniform on [0, delta_max]
    deltas = np.random.default_rng(0).uniform(0.0, 0.2, 10 ** 5)
    assert deltas.max() <= 0.2


def test_config_validation():
    with pytest.raises(ContractViolation):
        PredictorTrainConfig(delta_max=0.0)
    with pytest.raises(ContractViolation):
        PredictorTrainConfig(lambda_adv=-1.0)
    with pytest.raises(ContractViolation):
        PredictorTrainConfig(lr_predictor=0.0)


# ---------------------------------------------------------------------------
# mse step
# ---------------------------------------------------------------------------

def manual_pair(x, cache, target, pair_times=(0.5, 0.4)):
    t, r = pair_times
    return TrainingPair(cache_value=np.asarray(cache, float),
                        cache_origin=TimePair(min(t + 0.1, 1.0), r),
                        x_query=np.asarray(x, float), query=TimePair(t, r),
                        cond=Condition(0), target_u=np.asarray(target, float))


def test_mse_zero_when_predictor_matches(rng):
    backbone, _ = small_backbone(rng)
    pred, pp = small_predictor(backbone, rng)  # zero-init head => output 0
    pair = manual_pair(rng.standard_normal((4, 1)), rng.standard_normal((4, 1)),
                       np.zeros((4, 1)))
    opt = OptimizerState.init(pp, lr=1e-3)
    rep = predictor_mse_step(pred, pp, pair, opt)
    assert isinstance(rep, StepReport)
    assert rep.loss == 0.0 and rep.loss_d is None


def test_mse_constant_offset_equals_c2_d(rng):
    backbone, _ = small_backbone(rng, input_dim=2)
    pred, pp = small_predictor(backbone, rng)
    c = 0.7
    pair = manual_pair(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)),
                       np.full((5, 2), c))
    opt = OptimizerState.init(pp, lr=1e-3)
    loss = predictor_mse_step(pred, pp, pair, opt).loss
    assert abs(loss - c * c * 2) < 1e-12


def test_short_training_beats_naive_reuse_on_gaussian(rng):
    # after the MSE phase the predictor at Delta = delta_max/2 must beat
    # reusing the cached tensor verbatim
    backbone, params = small_backbone(rng)
    dist = ToyDistribution("gaussian1d")
    restrict = RestrictConfig(0.2)
    # quick distillation stand-in: train backbone briefly so it has structure
    pred, _ = small_predictor(backbone, rng)
    cfg = PredictorTrainConfig(mse_iters=500, gan_iters=0, batch_size=64,
                               lr_predictor=3e-3)
    pp, _, reports, _ = train_predictor(backbone, params, pred, dist,
                                        restrict=restrict, cfg=cfg, seed=0)
    assert len(reports) == 500
    assert np.isfinite([r.loss for r in reports]).all()
    # held-out evaluation at a fixed half-horizon offset
    gen = np.random.default_rng(99)
    mse_pred, mse_naive = [], []
    for _ in range(50):
        t = float(gen.uniform(0.25, 0.9))
        r = max(0.0, t - 0.1)
        delta = 0.1
        x0 = dist.sample_class(0, 32, gen)
        eps = gen.standard_normal(x0.shape)
        x_t = (1 - t) * x0 + t * eps
        cache = ad.value_of(backbone.forward(params.entries, x_t, t, r, Condition(0)))
        tq, rq = t - delta, max(0.0, r - delta)
        x_q = (1 - tq) * x0 + tq * eps
        target = ad.value_of(backbone.forward(params.entries, x_q, tq, rq, Condition(0)))
        upred = ad.value_of(pred.forward(pp.entries, cache, x_q, tq, rq, Condition(0)))
        mse_pred.append(np.mean((upred - target) ** 2))
        mse_naive.append(np.mean((cache - target) ** 2))
    assert np.mean(mse_pred) < np.mean(mse_naive)


# ---------------------------------------------------------------------------
# gan step
# ---------------------------------------------------------------------------

def hinge_d_loss_values(d_real: float, d_fake: float) -> float:
    """Scalar reference of the discriminator objective."""
    return max(0.0, 1.0 - d_real) + max(0.0, 1.0 + d_fake)


def test_hinge_values():
    assert hinge_d_loss_values(1.5, -1.2) == 0.0
    assert hinge_d_loss_values(0.0, 0.0) == 2.0
    real = ad.value_of(hinge_mean(np.array([1.5]), 1.0))
    fake = ad.value_of(hinge_mean(np.array([-1.2]), -1.0))
    assert float(real) + float(fake) == 0.0
    assert float(ad.value_of(hinge_mean(np.array([0.0]), 1.0))) == 1.0


def test_gan_step_updates_both_and_stays_finite(rng):
    backbone, params = small_backbone(rng)
    pred, pp = small_predictor(backbone, rng)
    from flowcache.nets import Discriminator
    taps = default_taps(backbone.config.depth)
    disc = Discriminator(DiscriminatorConfig(scales=tuple(taps)),
                         feature_dim=backbone.config.hidden_dim,
                         rng=np.random.default_rng(1))
    opt_p = OptimizerState.init(pp, lr=1e-3)
    opt_d = OptimizerState.init(disc.params, lr=1e-3)
    dist = ToyDistribution("gaussian1d")
    cfg = PredictorTrainConfig(batch_size=16)
    pair = build_training_pair(backbone, params, dist, RestrictConfig(0.2),
                               cfg, np.random.default_rng(5))
    p_before = pp.copy()
    d_before = disc.params.copy()
    x_before = params.copy()
    rep = gan_step(pred, pp, disc, backbone, params, pair, cfg, opt_p, opt_d,
                   taps)
    assert isinstance(rep, StepReport)
    assert np.isfinite([rep.loss, rep.grad_norm, rep.lr, rep.loss_d,
                        rep.d_real_score, rep.d_fake_score]).all()
    assert any(not np.array_equal(p_before[k], pp[k]) for k in pp.entries)
    assert any(not np.array_equal(d_before[k], disc.params[k])
               for k in disc.params.entries)
    # frozen extractor untouched by construction of the step
    assert all(np.array_equal(x_before[k], params[k]) for k in params.entries)


def test_lambda_zero_matches_pure_mse_run(rng):
    backbone, params = small_backbone(rng)
    dist = ToyDistribution("gaussian1d")
    restrict = RestrictConfig(0.2)
    cfg0 = PredictorTrainConfig(mse_iters=20, gan_iters=30, lambda_adv=0.0,
                                batch_size=8, lr_predictor=1e-3)
    cfg_mse = PredictorTrainConfig(mse_iters=50, gan_iters=0, lambda_adv=0.0,
                                   batch_size=8, lr_predictor=1e-3)
    pred_a, _ = small_predictor(backbone, rng)
    pa, disc, reports, gan = train_predictor(backbone, params, pred_a, dist,
                                             restrict=restrict, cfg=cfg0,
                                             seed=4)
    pred_b, _ = small_predictor(backbone, rng)
    pb, _, _, _ = train_predictor(backbone, params, pred_b, dist,
                                  restrict=restrict, cfg=cfg_mse, seed=4)
    for k in pa.entries:
        assert np.array_equal(pa[k], pb[k]), k
    # one record per iteration of both phases; only the GAN phase's carry
    # the discriminator's loss and scores
    assert len(reports) == 50
    mse = reports[:20]
    assert gan == reports[20:]
    # one discriminator step per GAN iteration
    assert len(gan) == 30 and all(r.loss_d is not None for r in gan)
    assert all(r.loss_d is r.d_real_score is r.d_fake_score is None
               for r in mse)
    assert all(np.isfinite([r.loss_d, r.d_real_score, r.d_fake_score]).all()
               for r in gan)


def test_frozen_backbone_verified(rng):
    backbone, params = small_backbone(rng)
    pred, _ = small_predictor(backbone, rng)
    dist = ToyDistribution("gaussian1d")
    snapshot = params.copy()
    cfg = PredictorTrainConfig(mse_iters=5, gan_iters=5, batch_size=8)
    train_predictor(backbone, params, pred, dist, restrict=RestrictConfig(0.2),
                    cfg=cfg, seed=0)
    for k in params.entries:
        assert np.array_equal(params[k], snapshot[k])


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def test_last_tap_is_final_hidden(rng):
    backbone, params = small_backbone(rng, input_dim=2)
    x = rng.standard_normal((3, 2))
    pair = TimePair(0.6, 0.5)
    feats = extract_features(backbone, params, x, pair, Condition(0),
                             taps=[backbone.config.depth])
    all_feats = extract_features(backbone, params, x, pair, Condition(0),
                                 taps=list(range(1, backbone.config.depth + 1)))
    assert np.array_equal(feats[0], all_feats[-1])


def test_features_deterministic(rng):
    backbone, params = small_backbone(rng, input_dim=2)
    x = rng.standard_normal((3, 2))
    pair = TimePair(0.6, 0.5)
    f1 = extract_features(backbone, params, x, pair, Condition(0), [1, 2])
    f2 = extract_features(backbone, params, x, pair, Condition(0), [1, 2])
    for a, b in zip(f1, f2):
        assert np.array_equal(a, b)


def test_feature_gradient_to_x_matches_fd(rng):
    backbone, params = small_backbone(rng, input_dim=2)
    x = rng.standard_normal((2, 2))
    pair = TimePair(0.6, 0.5)
    w = rng.standard_normal((2, backbone.config.hidden_dim))

    def scalar(xv):
        feats = extract_features(backbone, params, xv, pair, Condition(0), [2])
        return float(np.sum(ad.value_of(feats[0]) * w))

    xleaf = ad.leaf(x)
    feats = extract_features(backbone, params, xleaf, pair, Condition(0), [2])
    loss = ad.sum_(ad.mul(feats[0], w))
    g = ad.param_grads(loss, {"x": xleaf})["x"]
    assert rel_err(g, fd_grad(scalar, x.copy())) < 1e-4


def test_bad_tap_rejected(rng):
    backbone, params = small_backbone(rng, input_dim=2)
    with pytest.raises(ContractViolation):
        extract_features(backbone, params, np.zeros((1, 2)), TimePair(0.5, 0.4),
                         Condition(0), taps=[99])
