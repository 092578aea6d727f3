"""Fast invariant battery behind the `verify` CLI subcommand.

Each check re-derives its expected value from an independent oracle (finite
differences, closed forms, exhaustive sampling) and prints one line; the
command exits nonzero if any check fails. Runtime is a few seconds.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .cache import CacheState, ScheduleSpec, taylor_forecast
from .checkpoint import Checkpoint, Stage, load_checkpoint, save_checkpoint
from .distill import RestrictConfig, sample_t_r
from .flow import (analytic_gaussian_velocity, analytic_mean_velocity,
                   mean_velocity_step, squared_error_loss, uniform_pairs)
from .metrics import ReferenceTerms, w2_distance
from .nets import Condition, VelocityModel, VelocityModelConfig


def _fd_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def _rel(a, b, floor=1e-9):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b) /
                        np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


def check_autodiff(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    model = VelocityModel(VelocityModelConfig(
        input_dim=2, hidden_dim=12, depth=2, time_embed_dim=8, accepts_r=True))
    params = model.init_params(rng)
    for k in params.entries:
        params.entries[k] = 0.3 * rng.standard_normal(params.entries[k].shape)
    x = rng.standard_normal((4, 2))
    target = rng.standard_normal((4, 2))

    def loss_fn(p):
        y = model.forward(p, x, 0.6, 0.2, Condition(0))
        return squared_error_loss(y, target)

    leaves = params.lift()
    gs = ad.param_grads(loss_fn(leaves), leaves)
    name = "block0.fc1.w"

    def scalar(w):
        trial = dict(params.entries)
        trial[name] = w
        return float(ad.value_of(loss_fn(trial)))

    err = _rel(gs[name], _fd_grad(scalar, params[name].copy()), floor=1e-6)
    return err < 1e-4, f"reverse-mode vs finite differences: rel err {err:.2e}"


def check_jvp_grad_agreement(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 1)
    model = VelocityModel(VelocityModelConfig(
        input_dim=2, hidden_dim=12, depth=2, time_embed_dim=8, accepts_r=True))
    params = model.init_params(rng)
    for k in params.entries:
        params.entries[k] = 0.3 * rng.standard_normal(params.entries[k].shape)
    x = rng.standard_normal((3, 2))
    d = rng.standard_normal((3, 2))

    def f(xn):
        y = model.forward(params.entries, xn, 0.7, 0.3, Condition(0))
        return ad.mean(ad.sum_(ad.square(y), axis=1))

    _, tan = ad.jvp(f, [x], [d])
    xleaf = ad.leaf(x)
    g = ad.param_grads(f(xleaf), {"x": xleaf})["x"]
    err = _rel(float(np.sum(g * d)), float(tan))
    return err < 1e-6, f"<grad, d> vs jvp tangent: rel err {err:.2e}"


def check_restricted_sampling(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    cfg = RestrictConfig(0.2)
    worst = 0.0
    for _ in range(100_000):
        pair = sample_t_r(cfg, rng)
        if pair.interval > 0.2:
            return False, f"interval {pair.interval} escaped the 0.2 cap"
        worst = max(worst, pair.interval)
    return worst >= 0.19, f"100k draws: max interval {worst:.4f} (cap 0.2)"


def check_taylor_exactness(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    pairs = uniform_pairs(20)

    def ring(steps, poly):  # a full ring of polynomial values at grid steps
        state = CacheState(len(steps) - 1)
        for j in steps:
            state.history.append((pairs[j], np.polyval(poly, [pairs[j].t])))
        return state

    worst = 0.0
    for m in (0, 1, 2):
        coeffs = rng.standard_normal(m + 1)
        state = ring(range(0, 2 * m + 1, 2), coeffs)
        for j in (2 * m + 1, 2 * m + 2):
            got = taylor_forecast(state, pairs[j], m)[0]
            worst = max(worst, abs(got - np.polyval(coeffs, pairs[j].t)))
    # gaps 1 then 2 (newest last): order 2 falls to the newest gap's order 1
    coeffs = rng.standard_normal(3)
    falls = (taylor_forecast(ring((0, 1, 3), coeffs), pairs[4], 2).tobytes()
             == taylor_forecast(ring((1, 3), coeffs), pairs[4], 1).tobytes())
    state0 = ring((0, 2), (1.5, 2.2))
    reuse = taylor_forecast(state0, pairs[3], 0) is state0.value
    return worst < 1e-9 and falls and reuse, (
        f"polynomial forecast error {worst:.1e}; mixed gaps fall to order 1: "
        f"{falls}; m=0 returns the cached value: {reuse}")


def check_schedule_counts(_seed: int) -> tuple[bool, str]:
    got = {n: ScheduleSpec(max_interval=n).mode_counts()
           for n in (4, 3, 2)}
    want = {4: (8, 12), 3: (11, 9), 2: (13, 7)}
    return got == want, f"fixture splits {got}"


def check_mean_velocity_oracles(_seed: int) -> tuple[bool, str]:
    sd = 1.2
    x = np.array([[0.8], [-1.1]])
    walk = x.copy()
    for pair in uniform_pairs(5):
        u = ad.value_of(analytic_mean_velocity(walk, pair.t, pair.r, sd))
        walk = mean_velocity_step(walk, pair, u)
    err = float(np.max(np.abs(walk - sd * x)))
    v_mid = float(ad.value_of(analytic_gaussian_velocity(
        np.array([[1.0]]), 0.5, 1.0))[0, 0])
    return err < 1e-9 and v_mid == 0.0, (
        f"5-step exact walk endpoint err {err:.1e}; sigma=1 midpoint field {v_mid}")


def check_checkpoint_roundtrip(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    params = ad.ParameterSet({"w": rng.standard_normal((3, 3))})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.fck"
        save_checkpoint(path, Checkpoint(stage=Stage.BASE_FM, params=params))
        loaded = load_checkpoint(path)
        ok = np.array_equal(loaded.params["w"], params["w"])
    return ok, "save/load round-trip bit-exact"


def _plain_w2(a, b) -> float:
    """W2 from scipy's assignment on the unshifted cost matrix: no auction
    prices, no potentials.

    It imports the public scipy.optimize and scipy.spatial names on purpose,
    not the compiled routines `kernels` loads, so that it stays a reference
    independent of how w2_distance reaches them."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    _, cols = linear_sum_assignment(cdist(a, b, metric="sqeuclidean"))
    diff = a - b[cols]
    return float(np.sqrt(np.sum(diff * diff, axis=1).mean()))


def check_w2(seed: int) -> tuple[bool, str]:
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    zero = w2_distance(a, b)
    one = w2_distance(np.array([[0.0]]), np.array([[1.0]]))
    # the auction-started cold solve, and warm solves that start from that
    # cold auction's prices (for a paired perturbation and far-off noise),
    # must each give the plain solve's value
    rng = np.random.default_rng(seed)
    reference = rng.standard_normal((256, 2))
    first = rng.standard_normal((256, 2))
    warm = ReferenceTerms()
    pairs = (first + 1e-3 * rng.standard_normal(first.shape),
             3.0 + rng.standard_normal(first.shape))
    cold_equal = (
        w2_distance(first, reference, warm) == _plain_w2(first, reference)
        and all(w2_distance(x, reference) == _plain_w2(x, reference)
                for x in pairs))
    warm_equal = warm.potentials is not None and all(
        w2_distance(x, reference, warm) == _plain_w2(x, reference)
        for x in pairs)
    return zero == 0.0 and one == 1.0 and cold_equal and warm_equal, (
        f"permuted sets {zero}, unit masses {one}, auction start equals the "
        f"plain solve: {cold_equal}, warm start from the cold auction's "
        f"prices equals it: {warm_equal}")


CHECKS = [
    ("autodiff-reverse", check_autodiff),
    ("autodiff-jvp-agreement", check_jvp_grad_agreement),
    ("restricted-sampling", check_restricted_sampling),
    ("taylor-exactness", check_taylor_exactness),
    ("schedule-counts", check_schedule_counts),
    ("mean-velocity-oracles", check_mean_velocity_oracles),
    ("checkpoint-roundtrip", check_checkpoint_roundtrip),
    ("w2-distance", check_w2),
]


def run_all(seed: int = 0) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        mark = "ok" if ok else "FAIL"
        print(f"[{mark:>4}] {name}: {detail}")
        all_ok &= ok
    return all_ok
