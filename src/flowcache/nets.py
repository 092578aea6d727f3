"""Concrete small networks built on the autodiff primitives.

The shared backbone is a residual MLP whose blocks are modulated by a
conditioning vector (shift/scale/gate computed per block from the time,
class, and guidance-scale embeddings). Modulation affines and output heads
start at zero, so a fresh model is the zero velocity field and blocks open
up through their gates during training.

Conditioning is per group. One forward call takes G conditions (t, r and
class/guidance per group) and splits the rows of x into G equal contiguous
blocks. The embeddings and every modulation are built once per group, as
(G, .) arrays, and each group's shift, scale and gate broadcast over its own
rows through a (G, rows/G, H) view of the hidden state. A call with one
condition is the G = 1 case of the same code.

The guidance-scale head carries a linear bypass alongside its small FFN:
the guided-mixture family g*v_c + (1-g)*v_uc is affine in g, and the bypass
makes that family exactly representable, which the distillation tests rely
on.

The predictor is the same backbone family fed with the cached mean velocity
concatenated onto the state; its parameter budget is enforced at build time
against the backbone it will serve. The discriminator scores a list of
backbone feature taps through spectrally-normalized linear layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, ParameterSet, value_of
from .errors import ContractViolation, NumericFailure
from .optim import spectral_normalize


# ---------------------------------------------------------------------------
# Conditioning inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Condition:
    """Conditioning for one forward pass: optional class label and optional
    guidance scale. class_id None selects the learned null embedding."""

    class_id: int | None = None
    cfg_scale: float | None = None


def time_embed(s, dim: int):
    """Sinusoidal features [sin(w_k s) .. , cos(w_k s) ..] of a time.

    Frequencies are geometric, w_k = 10000^(-2k/dim). A scalar time gives a
    vector of length dim; a (G, 1) column of times gives (G, dim).
    """
    if dim % 2 != 0:
        raise ContractViolation("time_embed dim must be even")
    k = np.arange(dim // 2, dtype=np.float64)
    freqs = np.power(10000.0, -2.0 * k / dim)
    ang = ad.mul(s, freqs)
    return ad.concat([ad.sin(ang), ad.cos(ang)], axis=-1)


# ---------------------------------------------------------------------------
# Weight init helpers
# ---------------------------------------------------------------------------

def _orthogonal(rng, shape, gain=1.0) -> Array:
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


# ---------------------------------------------------------------------------
# Velocity model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityModelConfig:
    input_dim: int
    hidden_dim: int = 64
    depth: int = 3
    time_embed_dim: int = 16
    condition_vocab: int = 1
    accepts_r: bool = False
    accepts_cfg: bool = False
    cfg_min: float = 1.0
    cfg_max: float = 8.0
    cfg_features: int = 16
    output_dim: int | None = None  # defaults to input_dim

    def __post_init__(self):
        if self.output_dim is None:
            object.__setattr__(self, "output_dim", self.input_dim)
        if self.depth < 1:
            raise ContractViolation("depth must be >= 1")
        if self.condition_vocab < 0:
            raise ContractViolation("condition_vocab must be >= 0")
        if self.time_embed_dim % 2 != 0:
            raise ContractViolation("time_embed_dim must be even")
        if self.accepts_cfg and not (self.cfg_min <= self.cfg_max):
            raise ContractViolation("cfg_min must not exceed cfg_max")


def cfg_embed(g, params, cfg: VelocityModelConfig):
    """Guidance-scale embedding: small FFN plus a linear bypass, width H.

    A scalar g gives (H,); a (G, 1) column of scales gives (G, H).
    """
    for gval in np.reshape(value_of(g), -1).tolist():
        if not (cfg.cfg_min <= gval <= cfg.cfg_max):
            raise ContractViolation(
                f"cfg_scale {gval} outside [{cfg.cfg_min}, {cfg.cfg_max}]")
    if cfg.cfg_max > cfg.cfg_min:
        gn = ad.mul(ad.add(ad.mul(g, 2.0), -(cfg.cfg_min + cfg.cfg_max)),
                    1.0 / (cfg.cfg_max - cfg.cfg_min))
    else:
        gn = ad.sub(g, cfg.cfg_min)
    h = ad.gelu(ad.add(ad.mul(gn, params["cfg.w1"]), params["cfg.b1"]))
    h = ad.affine(h, params["cfg.w2"], params["cfg.b2"])
    return ad.add(h, ad.mul(gn, params["cfg.skip"]))


def _unit_times(name: str, value) -> list[float]:
    """The times of a scalar or vector operand, each checked to lie in [0, 1]."""
    values = np.asarray(value_of(value), dtype=np.float64)
    if values.ndim > 1:
        raise ContractViolation(f"{name} must be a scalar or a vector")
    times = values.reshape(-1).tolist()
    for v in times:
        if not (0.0 <= v <= 1.0):
            raise ContractViolation(f"{name}={v} outside [0, 1]")
    return times


class VelocityModel:
    """Velocity network u(x, r, t, c); with accepts_r=False it is the plain
    instantaneous field v(x, t, c)."""

    def __init__(self, config: VelocityModelConfig):
        self.config = config

    # -- parameters ---------------------------------------------------------

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        c = self.config
        H, E, d = c.hidden_dim, c.time_embed_dim, c.input_dim
        shapes: dict[str, tuple[int, ...]] = {
            "input.w": (d, H), "input.b": (H,),
            "time_t.w": (E, H), "time_t.b": (H,),
            "class_emb": (c.condition_vocab + 1, H),
        }
        if c.accepts_r:
            shapes["time_r.w"] = (E, H)
            shapes["time_r.b"] = (H,)
        if c.accepts_cfg:
            F = c.cfg_features
            shapes.update({
                "cfg.w1": (F,), "cfg.b1": (F,),
                "cfg.w2": (F, H), "cfg.b2": (H,),
                "cfg.skip": (H,),
            })
        for i in range(c.depth):
            shapes[f"block{i}.mod.w"] = (H, 3 * H)
            shapes[f"block{i}.mod.b"] = (3 * H,)
            shapes[f"block{i}.fc1.w"] = (H, H)
            shapes[f"block{i}.fc1.b"] = (H,)
            shapes[f"block{i}.fc2.w"] = (H, H)
            shapes[f"block{i}.fc2.b"] = (H,)
        shapes["out_mod.w"] = (H, 2 * H)
        shapes["out_mod.b"] = (2 * H,)
        shapes["out.w"] = (H, c.output_dim)
        shapes["out.b"] = (c.output_dim,)
        return shapes

    def param_count(self) -> int:
        return int(sum(math.prod(s) for s in self.param_shapes().values()))

    def init_params(self, rng) -> ParameterSet:
        c = self.config
        entries: dict[str, Array] = {}
        for name, shape in self.param_shapes().items():
            if name in ("out.w", "out.b") or ".mod." in name or name.startswith("out_mod"):
                entries[name] = np.zeros(shape)
            elif name == "class_emb":
                entries[name] = 0.02 * rng.standard_normal(shape)
            elif name == "cfg.w1":
                entries[name] = 0.5 * rng.standard_normal(shape)
            elif name == "cfg.skip":
                entries[name] = 0.02 * rng.standard_normal(shape)
            elif name == "cfg.w2":
                entries[name] = np.zeros(shape)
            elif name.endswith(".b") or name.endswith(".b1") or name.endswith(".b2"):
                entries[name] = np.zeros(shape)
            elif len(shape) == 2:
                entries[name] = _orthogonal(rng, shape, gain=1.0)
            else:
                entries[name] = np.zeros(shape)
        return ParameterSet(entries)

    # -- forward ------------------------------------------------------------

    def _groups(self, t, r, cond):
        """Check the times and return (G, r, conditions): t and r are scalars
        or length-G vectors, cond one Condition or a sequence of G."""
        conds = list(cond) if isinstance(cond, (list, tuple)) else [cond]
        ts = _unit_times("t", t)
        rs = ts
        if r is None:
            if self.config.accepts_r:
                r = t  # instantaneous mode: zero-length interval
        else:
            if not self.config.accepts_r:
                raise ContractViolation(
                    "model was built with accepts_r=False; it cannot condition on r")
            rs = _unit_times("r", r)
        sizes = {len(ts), len(rs), len(conds)}
        G = max(sizes)
        if sizes - {1, G}:
            raise ContractViolation(
                f"t, r and cond must each give one value or one per group; "
                f"got sizes {sorted(sizes)}")
        for rv, tv in zip(rs * (G // len(rs)), ts * (G // len(ts))):
            if rv > tv:
                raise ContractViolation(f"r={rv} exceeds t={tv}")
        return G, r, conds

    def _condition_rows(self, params, t, r, conds):
        """The conditioning embedding, one (1, H) or (G, H) row per group."""
        c = self.config
        e = ad.affine(time_embed(ad.reshape(t, (-1, 1)), c.time_embed_dim),
                      params["time_t.w"], params["time_t.b"])
        if c.accepts_r:
            e = ad.add(e, ad.affine(time_embed(ad.reshape(r, (-1, 1)), c.time_embed_dim),
                                    params["time_r.w"], params["time_r.b"]))
        class_rows = []
        for cond in conds:
            row = c.condition_vocab if cond.class_id is None else cond.class_id
            if not (0 <= row <= c.condition_vocab):
                raise ContractViolation(
                    f"class_id {cond.class_id} outside vocab of size {c.condition_vocab}")
            class_rows.append(ad.narrow(params["class_emb"], 0, row, 1))
        e = ad.add(e, class_rows[0] if len(class_rows) == 1
                   else ad.concat(class_rows, axis=0))
        scales = [cond.cfg_scale for cond in conds]
        if c.accepts_cfg:
            if any(g is None for g in scales):
                raise ContractViolation(
                    "guidance-distilled model requires cfg_scale in the condition")
            e = ad.add(e, cfg_embed(np.reshape(scales, (-1, 1)), params, c))
        elif any(g is not None for g in scales):
            raise ContractViolation("model has no guidance-scale head; cfg_scale must be None")
        return e

    def forward(self, params, x, t, r=None, cond: Condition = Condition(),
                taps=None):
        """Velocity prediction, same shape as x; with `taps` also returns the
        hidden activations after the listed blocks (1-based indices).

        t and r are scalars or length-G vectors and cond is one Condition or
        G of them. The rows of x split into G equal contiguous blocks, and
        block g is conditioned on the g-th time pair and condition; a scalar
        or a single condition is shared by every block.
        """
        c = self.config
        xv = value_of(x)
        if np.ndim(xv) != 2 or np.shape(xv)[1] != c.input_dim:
            raise ContractViolation(
                f"x must have shape (batch, {c.input_dim}), got {np.shape(xv)}")
        if not np.all(np.isfinite(xv)):
            ad.check_finite(x)  # a graph x names the primitive that made it
            raise NumericFailure("non-finite x passed to velocity model")
        G, r, conds = self._groups(t, r, cond)
        n = np.shape(xv)[0]
        if n % G != 0:
            raise ContractViolation(f"{n} rows do not split into {G} equal groups")
        e = self._condition_rows(params, t, r, conds)

        H = c.hidden_dim
        rows = (n, H)
        # G groups view the hidden state as (G, n/G, H) and each modulation
        # as (G, 1, .), so a group's shift, scale and gate broadcast over its
        # own rows. One group keeps the plain layout (e of shape (H,), hidden
        # state (n, H)): its views are no-ops and its vector-matrix products
        # need no (H, 1) @ (1, 3H) outer products in the backward pass.
        if G == 1:
            e = ad.reshape(e, (H,))
            grouped, mod_view = rows, ()
        else:
            grouped, mod_view = (G, n // G, H), (G, 1)

        def modulation(prefix, parts):
            m = ad.reshape(ad.affine(e, params[f"{prefix}.w"], params[f"{prefix}.b"]),
                           mod_view + (parts * H,))
            return [ad.narrow(m, len(mod_view), k * H, H) for k in range(parts)]

        h = ad.reshape(ad.affine(x, params["input.w"], params["input.b"]), grouped)
        feats = []
        for i in range(c.depth):
            shift, scale, gate = modulation(f"block{i}.mod", 3)
            z = ad.reshape(ad.add(ad.mul(h, ad.add(scale, 1.0)), shift), rows)
            z = ad.gelu(ad.affine(z, params[f"block{i}.fc1.w"], params[f"block{i}.fc1.b"]))
            z = ad.affine(z, params[f"block{i}.fc2.w"], params[f"block{i}.fc2.b"])
            h = ad.add(h, ad.mul(gate, ad.reshape(z, grouped)))
            feats.append(h)

        shift_o, scale_o = modulation("out_mod", 2)
        y = ad.affine(ad.reshape(ad.add(ad.mul(h, ad.add(scale_o, 1.0)), shift_o), rows),
                      params["out.w"], params["out.b"])
        if taps is None:
            return y
        for tap in taps:
            if not (1 <= tap <= c.depth):
                raise ContractViolation(f"feature tap {tap} outside depth {c.depth}")
        return y, [ad.reshape(feats[tap - 1], rows) for tap in taps]


def default_taps(depth: int) -> list[int]:
    """Thirds-of-depth feature taps (deduplicated, increasing)."""
    raw = [math.ceil(depth / 3), math.ceil(2 * depth / 3), depth]
    taps = []
    for tvalue in raw:
        if tvalue >= 1 and tvalue not in taps:
            taps.append(tvalue)
    return taps


# ---------------------------------------------------------------------------
# Predictor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictorConfig:
    hidden_dim: int = 24
    depth: int = 2
    time_embed_dim: int = 8
    parameter_budget_ratio: float = 0.04

    def __post_init__(self):
        if not (0.0 < self.parameter_budget_ratio <= 0.04):
            raise ContractViolation("parameter_budget_ratio must lie in (0, 0.04]")


class Predictor:
    """Small network predicting the next mean velocity from the cached one
    plus the current state, times, and condition. Built against a specific
    backbone so the parameter budget is checked at construction."""

    def __init__(self, config: PredictorConfig, backbone: VelocityModel):
        bc = backbone.config
        inner = VelocityModelConfig(
            input_dim=2 * bc.input_dim,  # state and cached velocity
            hidden_dim=config.hidden_dim,
            depth=config.depth,
            time_embed_dim=config.time_embed_dim,
            condition_vocab=bc.condition_vocab,
            accepts_r=True,
            accepts_cfg=bc.accepts_cfg,
            cfg_min=bc.cfg_min,
            cfg_max=bc.cfg_max,
            cfg_features=min(bc.cfg_features, config.time_embed_dim),
            output_dim=bc.input_dim,
        )
        self.config = config
        self.backbone_config = bc
        self._core = VelocityModel(inner)
        budget = config.parameter_budget_ratio * backbone.param_count()
        if self.param_count() > budget:
            raise ContractViolation(
                f"predictor has {self.param_count()} parameters, over the "
                f"{config.parameter_budget_ratio:.0%} budget of "
                f"{budget:.0f} for this backbone")

    def param_shapes(self):
        return self._core.param_shapes()

    def param_count(self) -> int:
        return self._core.param_count()

    def init_params(self, rng) -> ParameterSet:
        return self._core.init_params(rng)

    def forward(self, params, cache_value, x, t, r, cond: Condition = Condition()):
        xv = value_of(x)
        cv = value_of(cache_value)
        if np.shape(cv) != np.shape(xv):
            raise ContractViolation(
                f"cached velocity shape {np.shape(cv)} does not match state "
                f"shape {np.shape(xv)}")
        joint = ad.concat([x, cache_value], axis=1)
        return self._core.forward(params, joint, t, r, cond)


# ---------------------------------------------------------------------------
# Multi-scale discriminator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscriminatorConfig:
    scales: tuple[int, ...]
    hidden_dim: int = 32
    spectral_norm: bool = True

    def __post_init__(self):
        if len(self.scales) == 0:
            raise ContractViolation("scales must be non-empty")
        if list(self.scales) != sorted(set(self.scales)):
            raise ContractViolation("scales must be strictly increasing")


class Discriminator:
    """Per-scale linear stacks over extractor features, scores summed.

    Spectral normalization keeps one persistent power-iteration vector per
    weight; it is refined on every scoring pass unless update_u=False.
    """

    def __init__(self, config: DiscriminatorConfig, feature_dim: int, rng):
        self.config = config
        self.feature_dim = feature_dim
        entries: dict[str, Array] = {}
        self.u_state: dict[str, Array] = {}
        Hd = config.hidden_dim
        for tap in config.scales:
            entries[f"s{tap}.fc1.w"] = _orthogonal(rng, (feature_dim, Hd))
            entries[f"s{tap}.fc1.b"] = np.zeros(Hd)
            entries[f"s{tap}.fc2.w"] = _orthogonal(rng, (Hd, Hd))
            entries[f"s{tap}.fc2.b"] = np.zeros(Hd)
            entries[f"s{tap}.head.w"] = np.zeros((Hd, 1))
            entries[f"s{tap}.head.b"] = np.zeros(1)
        self.params = ParameterSet(entries)
        for name, w in entries.items():
            if name.endswith(".w"):
                self.u_state[name] = rng.standard_normal(w.shape[0])

    def _weight(self, params, name: str, update_u: bool):
        w = params[name]
        if not self.config.spectral_norm:
            return w
        w_sn, u, _ = spectral_normalize(w, self.u_state[name])
        if update_u:
            self.u_state[name] = u
        return w_sn

    def forward(self, params, features, update_u: bool = True):
        """Per-sample scores (batch,) for a list of tapped feature tensors."""
        if len(features) != len(self.config.scales):
            raise ContractViolation(
                f"expected {len(self.config.scales)} feature scales, "
                f"got {len(features)}")
        total = None
        for tap, feat in zip(self.config.scales, features):
            h = ad.gelu(ad.add(
                ad.matmul(feat, self._weight(params, f"s{tap}.fc1.w", update_u)),
                params[f"s{tap}.fc1.b"]))
            h = ad.gelu(ad.add(
                ad.matmul(h, self._weight(params, f"s{tap}.fc2.w", update_u)),
                params[f"s{tap}.fc2.b"]))
            s = ad.add(
                ad.matmul(h, self._weight(params, f"s{tap}.head.w", update_u)),
                params[f"s{tap}.head.b"])
            total = s if total is None else ad.add(total, s)
        n = np.shape(value_of(total))[0]
        return ad.reshape(total, (n,))

    def normalized_weights(self) -> dict[str, Array]:
        """Current effective (normalized) weights, without refining u."""
        out = {}
        for name, w in self.params.entries.items():
            if name.endswith(".w"):
                out[name] = value_of(self._weight(self.params, name, update_u=False))
        return out
