"""Shared test helpers: finite-difference oracles, tiny random nets and a
tiny trained pipeline."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from flowcache import autodiff as ad
from flowcache import optim
from flowcache.cli import main


def rel_err(a, b, floor=1e-12):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def descended_grads(monkeypatch) -> list:
    """A list that collects the gradients of every `optim.adam_step` call,
    as the step receives them."""
    seen = []
    step = optim.adam_step

    def spy(params, grads, state):
        seen.append({name: g.copy() for name, g in grads.items()})
        return step(params, grads, state)

    monkeypatch.setattr(optim, "adam_step", spy)
    return seen


def load_perfbench(name, monkeypatch):
    """perfbench's `<name>.py` as the module `name`, loaded without writing
    bytecode next to it; both settings are undone after the test."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def fd_directional(f, xs, ds, h=1e-5):
    """Central-difference directional derivative of f along ds (any output shape)."""
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    ds = [np.asarray(d, dtype=np.float64) for d in ds]
    plus = f(*[x + h * d for x, d in zip(xs, ds)])
    minus = f(*[x - h * d for x, d in zip(xs, ds)])
    return (np.asarray(plus) - np.asarray(minus)) / (2.0 * h)


# The fused primitives spelled as the matmul, add and mul chains they
# replace: the bitwise reference for their values, tangents and gradients.
COMPOSITES = {
    "affine": lambda x, w, b: ad.add(ad.matmul(x, w), b),
    "modulate": lambda h, scale, shift: ad.add(ad.mul(h, ad.add(scale, 1.0)), shift),
    "gated_add": lambda h, gate, z: ad.add(h, ad.mul(gate, z)),
}


def tiny_mlp_params(rng, d_in=3, d_hidden=5, d_out=2):
    scale = 0.7
    return ad.ParameterSet({
        "w1": scale * rng.standard_normal((d_in, d_hidden)),
        "b1": scale * rng.standard_normal(d_hidden),
        "w2": scale * rng.standard_normal((d_hidden, d_out)),
        "b2": scale * rng.standard_normal(d_out),
    })


def tiny_mlp_forward(p, x, act=ad.gelu):
    h = act(ad.affine(x, p["w1"], p["b1"]))
    return ad.affine(h, p["w2"], p["b2"])


def tiny_mlp_loss(p, x, target):
    y = tiny_mlp_forward(p, x)
    return ad.mean(ad.sum_(ad.square(ad.sub(y, target)), axis=1))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


TINY_CONFIG = {
    "distribution": {"kind": "checkerboard"},
    "model": {"hidden_dim": 16, "depth": 2, "time_embed_dim": 4,
              "cfg_features": 4},
    "base_train": {"iters": 2, "batch_size": 8},
    "cfg_distill": {"iters": 2, "batch_size": 8},
    "meanflow": {"iters": 2, "batch_size": 8, "groups_per_step": 2},
    "predictor": {"hidden_dim": 2, "depth": 1, "time_embed_dim": 4,
                  "mse_iters": 2, "gan_iters": 2, "batch_size": 8,
                  "disc_hidden_dim": 4},
    "metric_samples": 64,
}


def train_pipeline(config, root):
    """Train every stage through the CLI into `root`, each stage reading its
    parent's file."""
    common = ["--config", str(config), "--out", str(root)]
    assert main(["train-base", *common]) == 0
    for command, parent in (("distill-cfg", "base.fck"),
                            ("distill-meanflow", "cfg.fck"),
                            ("train-predictor", "meanflow.fck")):
        assert main([command, *common, "--checkpoint", str(root / parent)]) == 0


@pytest.fixture(scope="session")
def tiny_pipeline(tmp_path_factory):
    """Config path and checkpoint folder of a two-iteration pipeline trained
    through the CLI."""
    root = tmp_path_factory.mktemp("tiny")
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG))
    train_pipeline(config, root)
    return config, root
