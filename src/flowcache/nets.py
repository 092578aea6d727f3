"""Concrete small networks built on the autodiff primitives.

The shared backbone is a residual MLP whose blocks are modulated by a
conditioning vector (shift/scale/gate computed per block from the time,
class, and guidance-scale embeddings). Modulation affines and output heads
start at zero, so a fresh model is the zero velocity field and blocks open
up through their gates during training. Every ``Network`` declares its
tensors once, in its ``param_specs`` table: each row gives a name, a shape
and an initializer (zeros, orthogonal, or a scaled normal draw), in draw order.

Each affine layer, each modulation h * (1 + scale) + shift and each gated
residual h + gate * z is one autodiff primitive (``affine``, ``modulate``,
``gated_add``), so a graph forward keeps one array per layer output and
none for the intermediate products no reverse pass reads. The predictor
core is the same backbone, and the discriminator's layers are ``affine``
too.

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

def _orthogonal(rng, shape) -> Array:
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols]


# init kinds of a param_specs row; any other init is the standard deviation
# of a normal draw
ZEROS = "zeros"
ORTHOGONAL = "orthogonal"


class Network:
    """A network whose tensors are its `param_specs()` rows (name, shape, init),
    in the order init_params draws them; init is ZEROS, ORTHOGONAL or a std."""

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: shape for name, shape, _ in self.param_specs()}

    def param_count(self) -> int:
        return sum(math.prod(shape) for _, shape, _ in self.param_specs())

    def init_params(self, rng) -> ParameterSet:
        entries: dict[str, Array] = {}
        for name, shape, init in self.param_specs():
            if init == ZEROS:
                entries[name] = np.zeros(shape)
            elif init == ORTHOGONAL:
                entries[name] = _orthogonal(rng, shape)
            else:
                entries[name] = init * rng.standard_normal(shape)
        return ParameterSet(entries)


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
        if self.hidden_dim < 1:
            raise ContractViolation("hidden_dim must be >= 1")
        if self.depth < 1:
            raise ContractViolation("depth must be >= 1")
        if self.condition_vocab < 0:
            raise ContractViolation("condition_vocab must be >= 0")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2 != 0:
            raise ContractViolation("time_embed_dim must be even and >= 2")
        if self.cfg_features < 1:
            raise ContractViolation("cfg_features must be >= 1")
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


class VelocityModel(Network):
    """Velocity network u(x, r, t, c); with accepts_r=False it is the plain
    instantaneous field v(x, t, c)."""

    def __init__(self, config: VelocityModelConfig):
        self.config = config

    # -- parameters ---------------------------------------------------------

    def param_specs(self):
        c = self.config
        H, E, d = c.hidden_dim, c.time_embed_dim, c.input_dim
        specs = [("input.w", (d, H), ORTHOGONAL), ("input.b", (H,), ZEROS),
                 ("time_t.w", (E, H), ORTHOGONAL), ("time_t.b", (H,), ZEROS),
                 ("class_emb", (c.condition_vocab + 1, H), 0.02)]
        if c.accepts_r:
            specs += [("time_r.w", (E, H), ORTHOGONAL), ("time_r.b", (H,), ZEROS)]
        if c.accepts_cfg:
            F = c.cfg_features
            specs += [("cfg.w1", (F,), 0.5), ("cfg.b1", (F,), ZEROS),
                      ("cfg.w2", (F, H), ZEROS), ("cfg.b2", (H,), ZEROS),
                      ("cfg.skip", (H,), 0.02)]
        for i in range(c.depth):
            b = f"block{i}"
            specs += [(f"{b}.mod.w", (H, 3 * H), ZEROS), (f"{b}.mod.b", (3 * H,), ZEROS),
                      (f"{b}.fc1.w", (H, H), ORTHOGONAL), (f"{b}.fc1.b", (H,), ZEROS),
                      (f"{b}.fc2.w", (H, H), ORTHOGONAL), (f"{b}.fc2.b", (H,), ZEROS)]
        return specs + [("out_mod.w", (H, 2 * H), ZEROS), ("out_mod.b", (2 * H,), ZEROS),
                        ("out.w", (H, c.output_dim), ZEROS), ("out.b", (c.output_dim,), ZEROS)]

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
            z = ad.reshape(ad.modulate(h, scale, shift), rows)
            z = ad.gelu(ad.affine(z, params[f"block{i}.fc1.w"], params[f"block{i}.fc1.b"]))
            z = ad.affine(z, params[f"block{i}.fc2.w"], params[f"block{i}.fc2.b"])
            h = ad.gated_add(h, gate, ad.reshape(z, grouped))
            feats.append(h)

        shift_o, scale_o = modulation("out_mod", 2)
        y = ad.affine(ad.reshape(ad.modulate(h, scale_o, shift_o), rows),
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


class Predictor(Network):
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
        self._core = VelocityModel(inner)
        budget = config.parameter_budget_ratio * backbone.param_count()
        if self.param_count() > budget:
            raise ContractViolation(
                f"predictor has {self.param_count()} parameters, over the "
                f"{config.parameter_budget_ratio:.0%} budget of "
                f"{budget:.0f} for this backbone")

    def param_specs(self):
        return self._core.param_specs()

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


class Discriminator(Network):
    """Per-scale linear stacks over extractor features, scores summed.

    Spectral normalization keeps one persistent power-iteration vector per
    weight, drawn after the tensors and refined on every scoring pass unless
    update_u=False.
    """

    def __init__(self, config: DiscriminatorConfig, feature_dim: int, rng):
        self.config = config
        self.feature_dim = feature_dim
        self.params = self.init_params(rng)
        self.u_state = {name: rng.standard_normal(w.shape[0])
                        for name, w in self.params.entries.items() if name.endswith(".w")}

    def param_specs(self):
        F, Hd = self.feature_dim, self.config.hidden_dim
        return [row for tap in self.config.scales for row in (
            (f"s{tap}.fc1.w", (F, Hd), ORTHOGONAL), (f"s{tap}.fc1.b", (Hd,), ZEROS),
            (f"s{tap}.fc2.w", (Hd, Hd), ORTHOGONAL), (f"s{tap}.fc2.b", (Hd,), ZEROS),
            (f"s{tap}.head.w", (Hd, 1), ZEROS), (f"s{tap}.head.b", (1,), ZEROS))]

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
            h = ad.gelu(ad.affine(
                feat, self._weight(params, f"s{tap}.fc1.w", update_u),
                params[f"s{tap}.fc1.b"]))
            h = ad.gelu(ad.affine(
                h, self._weight(params, f"s{tap}.fc2.w", update_u),
                params[f"s{tap}.fc2.b"]))
            s = ad.affine(
                h, self._weight(params, f"s{tap}.head.w", update_u),
                params[f"s{tap}.head.b"])
            total = s if total is None else ad.add(total, s)
        n = np.shape(value_of(total))[0]
        return ad.reshape(total, (n,))
