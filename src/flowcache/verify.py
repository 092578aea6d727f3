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
from .cache import CacheState, fixture_schedule, naive_reuse, taylor_forecast
from .checkpoint import Checkpoint, Stage, load_checkpoint, save_checkpoint
from .distill import RestrictConfig, sample_t_r
from .flow import (TimePair, analytic_gaussian_velocity,
                   analytic_mean_velocity, mean_velocity_step, uniform_pairs)
from .metrics import w2_distance
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
        return ad.mean(ad.sum_(ad.square(ad.sub(y, target)), axis=1))

    _, gs = ad.grad(loss_fn, params)
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
    worst = 0.0
    for m in (0, 1, 2):
        coeffs = rng.standard_normal(m + 1)
        grid = [1.0 - j / 20 for j in range(21)]
        state = CacheState.taylor(m)
        for j in range(0, 2 * (m + 1), 2):
            value = np.array([sum(c * grid[j] ** i for i, c in enumerate(coeffs))])
            state.history.append((TimePair(grid[j], grid[j + 1]), value))
        state.value = state.history[-1][1]
        newest_j = 2 * m
        for k in (1, 2):
            want = sum(c * grid[newest_j + k] ** i for i, c in enumerate(coeffs))
            got = float(taylor_forecast(state, k, 2, m)[0])
            worst = max(worst, abs(got - want))
    ok = worst < 1e-9
    state0 = CacheState.taylor(1)
    state0.history.append((TimePair(0.9, 0.8), np.array([3.7])))
    state0.value = state0.history[-1][1]
    bitwise = taylor_forecast(state0, 1, 2, 0).tobytes() == \
        naive_reuse(state0).tobytes()
    return ok and bitwise, (f"polynomial forecast error {worst:.1e}; "
                            f"m=0 bitwise==reuse: {bitwise}")


def check_schedule_counts(_seed: int) -> tuple[bool, str]:
    got = {n: fixture_schedule(n).mode_counts() for n in (4, 3, 2)}
    want = {4: (8, 12), 3: (11, 9), 2: (13, 7)}
    return got == want, f"fixture splits {got}"


def check_mean_velocity_oracles(_seed: int) -> tuple[bool, str]:
    sd = 1.2
    x = np.array([[0.8], [-1.1]])
    walk = x.copy()
    for pair in uniform_pairs(5):
        u = ad.value_of(analytic_mean_velocity(walk, pair, sd))
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


def check_w2(_seed: int) -> tuple[bool, str]:
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    zero = w2_distance(a, b)
    one = w2_distance(np.array([[0.0]]), np.array([[1.0]]))
    return zero == 0.0 and one == 1.0, f"permuted sets {zero}, unit masses {one}"


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
