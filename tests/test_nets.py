"""Network contracts: embeddings, forward shapes/derivatives, parameter
budgets, and discriminator spectral behavior."""

import math

import numpy as np
import pytest

from flowcache import autodiff as ad
from flowcache.errors import ContractViolation, NumericFailure
from flowcache.nets import (Condition, Discriminator, DiscriminatorConfig,
                            Predictor, PredictorConfig, VelocityModel,
                            VelocityModelConfig, cfg_embed, default_taps,
                            time_embed)

from conftest import fd_directional, fd_grad, rel_err


def small_model(accepts_r=True, accepts_cfg=False, input_dim=2, vocab=2):
    return VelocityModel(VelocityModelConfig(
        input_dim=input_dim, hidden_dim=24, depth=3, time_embed_dim=8,
        condition_vocab=vocab, accepts_r=accepts_r, accepts_cfg=accepts_cfg))


def randomized(model, rng, scale=0.3):
    params = model.init_params(rng)
    for k in params.entries:
        params.entries[k] = scale * rng.standard_normal(params.entries[k].shape)
    return params


# ---------------------------------------------------------------------------
# time_embed
# ---------------------------------------------------------------------------

def test_time_embed_zero():
    e = time_embed(0.0, 8)
    assert np.array_equal(e[:4], np.zeros(4))
    assert np.array_equal(e[4:], np.ones(4))


def test_time_embed_deterministic():
    assert np.array_equal(time_embed(0.37, 16), time_embed(0.37, 16))


def test_time_embed_hand_table():
    # w_k = 10000^(-2k/8) = [1, 0.1, 0.01, 0.001] for dim=8, s=0.5
    s = 0.5
    freqs = [1.0, 0.1, 0.01, 0.001]
    expected = np.array([math.sin(w * s) for w in freqs]
                        + [math.cos(w * s) for w in freqs])
    assert rel_err(time_embed(s, 8), expected) < 1e-15


def test_time_embed_odd_dim_rejected():
    with pytest.raises(ContractViolation):
        time_embed(0.5, 7)


# ---------------------------------------------------------------------------
# velocity model
# ---------------------------------------------------------------------------

def test_zero_init_output_is_zero(rng):
    m = small_model()
    p = m.init_params(rng)
    x = rng.standard_normal((6, 2))
    y = m.forward(p.entries, x, 0.9, 0.2, Condition(1))
    assert np.array_equal(y, np.zeros((6, 2)))


def test_forward_deterministic(rng):
    m = small_model()
    p = randomized(m, rng)
    x = rng.standard_normal((4, 2))
    y1 = m.forward(p.entries, x, 0.8, 0.1, Condition(0))
    y2 = m.forward(p.entries, x, 0.8, 0.1, Condition(0))
    assert np.array_equal(y1, y2)


def test_jvp_matches_fd_along_sampling_direction(rng):
    m = small_model()
    p = randomized(m, rng)
    x = rng.standard_normal((5, 2))
    v = rng.standard_normal((5, 2))
    cond = Condition(1)

    def f(xa, ra, ta):
        return m.forward(p.entries, xa, ta, ra, cond)

    (_,), (tan,) = ad.jvp(lambda a, b, c: (f(a, b, c),), (x, 0.3, 0.7), (v, 0.0, 1.0))
    ref = fd_directional(lambda xa, ra, ta: ad.value_of(f(xa, ra, ta)),
                         [x, 0.3, 0.7], [v, 0.0, 1.0])
    assert rel_err(tan, ref) < 1e-4


@pytest.mark.parametrize("probe", range(4))
def test_c1_in_unit_box(probe, rng):
    # jvp against finite differences at random interior points
    m = small_model()
    p = randomized(m, rng)
    r0, t0 = sorted(np.random.default_rng(probe).uniform(0.05, 0.95, 2))
    x = np.random.default_rng(100 + probe).uniform(-1, 1, (3, 2))
    d = np.random.default_rng(200 + probe).standard_normal((3, 2))

    def f(xa, ra, ta):
        return m.forward(p.entries, xa, ta, ra, Condition(0))

    (_,), (tan,) = ad.jvp(lambda a, b, c: (f(a, b, c),),
                          (x, r0, t0), (d, 1.0, 1.0))
    ref = fd_directional(lambda xa, ra, ta: ad.value_of(f(xa, ra, ta)),
                         [x, r0, t0], [d, 1.0, 1.0])
    assert rel_err(tan, ref) < 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_graph_input_names_its_primitive(rng):
    m = small_model(accepts_r=False)
    params = randomized(m, rng)
    x = ad.div(1.0, ad.leaf(np.array([[0.5, 0.0]])))
    with pytest.raises(NumericFailure, match="primitive 'div'"):
        m.forward(params.entries, x, 0.5)
    with pytest.raises(NumericFailure, match="non-finite x"):
        m.forward(params.entries, np.array([[0.5, np.nan]]), 0.5)


def test_r_rejected_without_accepts_r(rng):
    m = small_model(accepts_r=False)
    p = m.init_params(rng)
    with pytest.raises(ContractViolation):
        m.forward(p.entries, np.zeros((1, 2)), 0.8, 0.3, Condition(0))


def test_r_greater_than_t_rejected(rng):
    m = small_model()
    p = m.init_params(rng)
    with pytest.raises(ContractViolation):
        m.forward(p.entries, np.zeros((1, 2)), 0.3, 0.8, Condition(0))


# ---------------------------------------------------------------------------
# per-group conditioning
# ---------------------------------------------------------------------------

GROUP_T = np.array([0.9, 0.55, 0.3, 0.75])
GROUP_R = np.array([0.7, 0.55, 0.05, 0.6])
GROUP_CONDS = [Condition(0, 1.5), Condition(None, 7.0), Condition(1, 3.0),
               Condition(0, 1.0)]


def group_model(rng):
    m = small_model(accepts_cfg=True)
    return m, randomized(m, rng)


def normwise_rel(a, b):
    """||a - b|| / ||b||. A group call multiplies (G, .) matrices where a
    single-condition call multiplies vectors, so sums may round differently
    in the last bits; single elements near zero would magnify that."""
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_group_forward_matches_per_group_calls(rng):
    m, p = group_model(rng)
    x = rng.standard_normal((12, 2))
    v = rng.standard_normal((12, 2))
    y, feats = m.forward(p.entries, x, GROUP_T, GROUP_R, GROUP_CONDS, taps=[1, 3])
    (_,), (tan,) = ad.jvp(
        lambda xa, ra, ta: (m.forward(p.entries, xa, ta, ra, GROUP_CONDS),),
        (x, GROUP_R, GROUP_T), (v, np.zeros(4), np.ones(4)))
    for g, cond in enumerate(GROUP_CONDS):
        rows = slice(3 * g, 3 * g + 3)
        t, r = GROUP_T[g], GROUP_R[g]
        y_g, feats_g = m.forward(p.entries, x[rows], t, r, cond, taps=[1, 3])
        assert normwise_rel(y[rows], y_g) < 1e-13
        for f, f_g in zip(feats, feats_g):
            assert normwise_rel(f[rows], f_g) < 1e-13
        (_,), (tan_g,) = ad.jvp(
            lambda xa, ra, ta: (m.forward(p.entries, xa, ta, ra, cond),),
            (x[rows], r, t), (v[rows], 0.0, 1.0))
        assert normwise_rel(tan[rows], tan_g) < 1e-13


def test_shared_condition_broadcasts_over_groups(rng):
    m, p = group_model(rng)
    x = rng.standard_normal((8, 2))
    shared = m.forward(p.entries, x, 0.8, 0.6, [Condition(1, 2.0)] * 4)
    single = m.forward(p.entries, x, 0.8, 0.6, Condition(1, 2.0))
    assert normwise_rel(shared, single) < 1e-13


@pytest.mark.parametrize("case", ["class_id", "cfg_scale", "r_above_t",
                                  "uneven_rows", "group_count"])
def test_bad_group_rejected(case, rng):
    m, p = group_model(rng)
    x, t, r, conds = np.zeros((8, 2)), GROUP_T, GROUP_R.copy(), list(GROUP_CONDS)
    if case == "class_id":
        conds[2] = Condition(5, 3.0)
    elif case == "cfg_scale":
        conds[1] = Condition(0, 9.5)
    elif case == "r_above_t":
        r[3] = 0.8
    elif case == "uneven_rows":
        x = np.zeros((10, 2))
    else:
        conds = conds[:3]
    with pytest.raises(ContractViolation):
        m.forward(p.entries, x, t, r, conds)


# ---------------------------------------------------------------------------
# cfg embedding
# ---------------------------------------------------------------------------

def test_cfg_embed_distinct_and_deterministic(rng):
    m = small_model(accepts_cfg=True)
    p = randomized(m, rng)
    e1 = cfg_embed(1.5, p.entries, m.config)
    e2 = cfg_embed(1.5, p.entries, m.config)
    e3 = cfg_embed(4.0, p.entries, m.config)
    assert np.array_equal(e1, e2)
    assert not np.array_equal(e1, e3)
    assert e1.shape == (m.config.hidden_dim,)


def test_cfg_embed_out_of_range_rejected(rng):
    m = small_model(accepts_cfg=True)
    p = m.init_params(rng)
    with pytest.raises(ContractViolation):
        cfg_embed(9.5, p.entries, m.config)
    with pytest.raises(ContractViolation):
        m.forward(p.entries, np.zeros((1, 2)), 0.5, 0.2, Condition(0, 0.5))


def test_cfg_scale_requirements(rng):
    cfg_model = small_model(accepts_cfg=True)
    plain_model = small_model(accepts_cfg=False)
    pc = cfg_model.init_params(rng)
    pp = plain_model.init_params(rng)
    with pytest.raises(ContractViolation):
        cfg_model.forward(pc.entries, np.zeros((1, 2)), 0.5, 0.2, Condition(0))
    with pytest.raises(ContractViolation):
        plain_model.forward(pp.entries, np.zeros((1, 2)), 0.5, 0.2, Condition(0, 2.0))


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------

def backbone_and_predictor():
    backbone = VelocityModel(VelocityModelConfig(
        input_dim=2, hidden_dim=96, depth=4, time_embed_dim=16,
        condition_vocab=2, accepts_r=True, accepts_cfg=True))
    predictor = Predictor(PredictorConfig(hidden_dim=24, depth=2,
                                          time_embed_dim=8), backbone)
    return backbone, predictor


def test_predictor_budget_holds():
    backbone, predictor = backbone_and_predictor()
    assert predictor.param_count() <= 0.04 * backbone.param_count()


def test_predictor_over_budget_rejected():
    backbone = VelocityModel(VelocityModelConfig(
        input_dim=2, hidden_dim=32, depth=2, time_embed_dim=8,
        condition_vocab=1, accepts_r=True))
    with pytest.raises(ContractViolation):
        Predictor(PredictorConfig(hidden_dim=32, depth=3, time_embed_dim=8), backbone)


def test_predictor_zero_init_output(rng):
    _, predictor = backbone_and_predictor()
    p = predictor.init_params(rng)
    out = predictor.forward(p.entries, rng.standard_normal((4, 2)),
                            rng.standard_normal((4, 2)), 0.5, 0.3,
                            Condition(0, 2.0))
    assert np.array_equal(out, np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# discriminator
# ---------------------------------------------------------------------------

def make_disc(rng, feature_dim=24, hidden=16, scales=(1, 2, 3)):
    return Discriminator(DiscriminatorConfig(scales=scales, hidden_dim=hidden),
                         feature_dim=feature_dim, rng=rng)


def test_zero_features_zero_head_score_zero(rng):
    d = make_disc(rng)
    feats = [np.zeros((5, 24))] * 3
    assert np.array_equal(d.forward(d.params.entries, feats), np.zeros(5))


def test_wrong_scale_count_rejected(rng):
    d = make_disc(rng)
    with pytest.raises(ContractViolation):
        d.forward(d.params.entries, [np.zeros((5, 24))] * 2)


def test_spectral_norms_in_band_after_warmup(rng):
    d = make_disc(rng)
    # make all weights nonzero (as after some training), then converge u
    for k in d.params.entries:
        d.params.entries[k] = 0.7 * rng.standard_normal(d.params.entries[k].shape)
    feats = [rng.standard_normal((8, 24)) for _ in range(3)]
    for _ in range(60):
        d.forward(d.params.entries, feats, update_u=True)
    for name, w in d.normalized_weights().items():
        sigma = np.linalg.svd(w, compute_uv=False)[0]
        assert 0.9 <= sigma <= 1.1, name


def test_lipschitz_probe(rng):
    # doubling one feature moves the score by at most the product of
    # effective layer norms times the activation's Lipschitz constant
    d = make_disc(rng, scales=(1,))
    for k in d.params.entries:
        d.params.entries[k] = 0.5 * rng.standard_normal(d.params.entries[k].shape)
    feats = [rng.standard_normal((1, 24))]
    for _ in range(60):
        d.forward(d.params.entries, feats, update_u=True)
    s1 = d.forward(d.params.entries, feats, update_u=False)
    s2 = d.forward(d.params.entries, [2.0 * feats[0]], update_u=False)
    wn = d.normalized_weights()
    sig = np.prod([np.linalg.svd(w, compute_uv=False)[0] for w in wn.values()])
    # gelu's max slope, found numerically
    xs = np.linspace(-6, 6, 20001)
    cdf = 0.5 * (1 + np.vectorize(math.erf)(xs / math.sqrt(2)))
    pdf = np.exp(-xs ** 2 / 2) / math.sqrt(2 * math.pi)
    l_gelu = np.max(cdf + xs * pdf)
    bound = np.linalg.norm(feats[0]) * sig * l_gelu ** 2
    assert abs(float(s2[0] - s1[0])) <= bound + 1e-9


def test_spectral_norm_gradient_matches_fd(rng):
    # the graph divides by sigma = u^T W v with u, v held constant; once the
    # power iteration has converged that is the derivative of the raw
    # normalization, so central differences of the raw score must agree
    d = make_disc(rng, feature_dim=4, hidden=3, scales=(1,))
    for k in d.params.entries:
        d.params.entries[k] = 0.5 * rng.standard_normal(d.params.entries[k].shape)
    name = "s1.fc1.w"
    left, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    d.params.entries[name] = left @ np.diag([3.0, 1.0, 0.5]) @ right.T
    feats = [rng.standard_normal((5, 4))]
    for _ in range(60):
        d.forward(d.params.entries, feats, update_u=True)
    u_before = dict(d.u_state)

    leaves = d.params.lift()
    score = ad.sum_(d.forward(leaves, feats, update_u=False))
    grad = ad.param_grads(score, leaves)[name]

    def scalar(w):
        trial = dict(d.params.entries)
        trial[name] = w
        return float(np.sum(d.forward(trial, feats, update_u=False)))

    assert rel_err(grad, fd_grad(scalar, d.params[name].copy()), floor=1e-6) < 1e-6
    assert all(d.u_state[k] is u for k, u in u_before.items())


def test_discriminator_raw_and_graph_scores_bit_equal(rng):
    # raw and graph spectral normalization build sigma with the same ops
    for _ in range(20):
        d = make_disc(rng)
        for k in d.params.entries:
            d.params.entries[k] = 0.5 * rng.standard_normal(d.params.entries[k].shape)
        feats = [rng.standard_normal((6, 24)) for _ in range(3)]
        raw = d.forward(d.params.entries, feats, update_u=False)
        graph = d.forward(d.params.lift(), [ad.leaf(f) for f in feats],
                          update_u=False)
        assert np.array_equal(graph.value, raw)


def test_scale_config_validation():
    with pytest.raises(ContractViolation):
        DiscriminatorConfig(scales=())
    with pytest.raises(ContractViolation):
        DiscriminatorConfig(scales=(2, 1))


def test_default_taps():
    assert default_taps(3) == [1, 2, 3]
    assert default_taps(4) == [2, 3, 4]
    assert default_taps(1) == [1]
