"""Minimal float64 tensor autodiff: reverse-mode gradients and forward-mode
directional derivatives (JVPs) over numpy arrays.

The primitive set is closed. Every primitive carries three rules — a value
rule, a reverse (VJP) rule, and a forward (tangent) rule — and each one is
covered by a finite-difference test. Adding a primitive means adding all
three pieces plus the test.

    add sub neg mul div matmul sin cos tanh gelu square sqrt
    sum mean maximum_const concat narrow reshape stopgrad

``affine`` is provided as a composite of matmul+add. ``maximum_const`` is
the hinge primitive; its subgradient at the kink (input exactly equal to the
constant) is defined to be 0. ``stopgrad`` is identity in the forward pass
with zero gradient and zero tangent.

Every op accepts either graph ``Node`` operands or plain numpy
arrays/floats. With no Node among the operands the op stays out of graph
mode and evaluates the identical numpy expression, so raw-mode and
graph-mode values are bit-equal. Graph mode checks outputs for NaN/Inf and
raises ``NumericFailure`` naming the offending primitive.

Everything is float64: the 1e-4 finite-difference tolerances used to verify
the rules are not reliable in 32-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erf

from .errors import ContractViolation, NumericFailure

Array = np.ndarray

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def as_f64(x) -> Array:
    """Coerce to a float64 numpy array (no copy when already one)."""
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# Graph node
# ---------------------------------------------------------------------------

class Node:
    """One value in a computation graph.

    value    -- float64 numpy array (or numpy scalar)
    tangent  -- forward-mode directional derivative, or None (treated as 0)
    parents  -- upstream Nodes
    vjp      -- callable grad_out -> per-parent gradients (None entries ok)
    """

    __slots__ = ("value", "tangent", "parents", "vjp", "op")

    # Keep numpy from absorbing Nodes into object arrays; binary ops with an
    # ndarray on the left then dispatch to our reflected operators.
    __array_ufunc__ = None

    def __init__(self, value, op="leaf", parents=(), vjp=None, tangent=None):
        if not np.all(np.isfinite(value)):
            raise NumericFailure(f"non-finite value produced by primitive '{op}'")
        if tangent is not None and not np.all(np.isfinite(tangent)):
            raise NumericFailure(f"non-finite tangent produced by primitive '{op}'")
        self.value = value
        self.tangent = tangent
        self.parents = parents
        self.vjp = vjp
        self.op = op

    @property
    def shape(self):
        return np.shape(self.value)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={np.shape(self.value)})"

    # arithmetic sugar; all routed through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def leaf(value, tangent=None) -> Node:
    """Wrap a raw array as a graph leaf, optionally seeding a tangent."""
    return Node(as_f64(value), tangent=None if tangent is None else as_f64(tangent))


def _any_node(*xs) -> bool:
    return any(isinstance(x, Node) for x in xs)


def _lift(x) -> Node:
    return x if isinstance(x, Node) else Node(as_f64(x))


def value_of(x):
    """Underlying numpy value of a Node or raw operand."""
    return x.value if isinstance(x, Node) else x


# ---------------------------------------------------------------------------
# Broadcasting helpers
# ---------------------------------------------------------------------------

def _unbroadcast(g: Array, shape) -> Array:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    g = np.asarray(g)
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _tan_linear2(a: Node, b: Node, fa, fb):
    """Tangent of a bilinear-ish op: fa(a.tangent) + fb(b.tangent)."""
    ta = None if a.tangent is None else fa(a.tangent)
    tb = None if b.tangent is None else fb(b.tangent)
    if ta is None:
        return tb
    if tb is None:
        return ta
    return ta + tb


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a, b):
    if not _any_node(a, b):
        return a + b
    a, b = _lift(a), _lift(b)
    sa, sb = np.shape(a.value), np.shape(b.value)

    def vjp(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    tan = _tan_linear2(a, b, lambda t: t, lambda t: t)
    return Node(a.value + b.value, "add", (a, b), vjp, tan)


def sub(a, b):
    if not _any_node(a, b):
        return a - b
    a, b = _lift(a), _lift(b)
    sa, sb = np.shape(a.value), np.shape(b.value)

    def vjp(g):
        return (_unbroadcast(g, sa), _unbroadcast(-g, sb))

    tan = _tan_linear2(a, b, lambda t: t, lambda t: -t)
    return Node(a.value - b.value, "sub", (a, b), vjp, tan)


def neg(a):
    if not _any_node(a):
        return -a
    a = _lift(a)

    def vjp(g):
        return (-g,)

    tan = None if a.tangent is None else -a.tangent
    return Node(-a.value, "neg", (a,), vjp, tan)


def mul(a, b):
    if not _any_node(a, b):
        return a * b
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    sa, sb = np.shape(av), np.shape(bv)

    def vjp(g):
        return (_unbroadcast(g * bv, sa), _unbroadcast(g * av, sb))

    tan = _tan_linear2(a, b, lambda t: t * bv, lambda t: av * t)
    return Node(av * bv, "mul", (a, b), vjp, tan)


def div(a, b):
    if not _any_node(a, b):
        return a / b
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    sa, sb = np.shape(av), np.shape(bv)

    def vjp(g):
        return (_unbroadcast(g / bv, sa), _unbroadcast(-g * av / (bv * bv), sb))

    tan = _tan_linear2(a, b, lambda t: t / bv, lambda t: -av * t / (bv * bv))
    return Node(av / bv, "div", (a, b), vjp, tan)


def matmul(a, b):
    """Matrix product; supports (n,k)@(k,m) and (k,)@(k,m)."""
    if not _any_node(a, b):
        return a @ b
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    if av.ndim == 2:
        def vjp(g):
            return (g @ bv.T, av.T @ g)
    elif av.ndim == 1:
        def vjp(g):
            return (bv @ g, np.outer(av, g))
    else:
        raise ContractViolation("matmul supports 1-D or 2-D left operands only")

    tan = _tan_linear2(a, b, lambda t: t @ bv, lambda t: av @ t)
    return Node(av @ bv, "matmul", (a, b), vjp, tan)


def sin(a):
    if not _any_node(a):
        return np.sin(a)
    a = _lift(a)
    c = np.cos(a.value)

    def vjp(g):
        return (g * c,)

    tan = None if a.tangent is None else c * a.tangent
    return Node(np.sin(a.value), "sin", (a,), vjp, tan)


def cos(a):
    if not _any_node(a):
        return np.cos(a)
    a = _lift(a)
    s = np.sin(a.value)

    def vjp(g):
        return (-g * s,)

    tan = None if a.tangent is None else -s * a.tangent
    return Node(np.cos(a.value), "cos", (a,), vjp, tan)


def tanh(a):
    if not _any_node(a):
        return np.tanh(a)
    a = _lift(a)
    y = np.tanh(a.value)
    d = 1.0 - y * y

    def vjp(g):
        return (g * d,)

    tan = None if a.tangent is None else d * a.tangent
    return Node(y, "tanh", (a,), vjp, tan)


def _gelu_raw(x):
    return x * (0.5 * (1.0 + erf(x * _INV_SQRT2)))


def gelu(a):
    """Exact (erf-based) gelu: x * Phi(x)."""
    if not _any_node(a):
        return _gelu_raw(a)
    a = _lift(a)
    x = a.value
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    d = cdf + x * pdf

    def vjp(g):
        return (g * d,)

    tan = None if a.tangent is None else d * a.tangent
    return Node(x * cdf, "gelu", (a,), vjp, tan)


def square(a):
    if not _any_node(a):
        return a * a
    a = _lift(a)
    x = a.value

    def vjp(g):
        return (2.0 * x * g,)

    tan = None if a.tangent is None else 2.0 * x * a.tangent
    return Node(x * x, "square", (a,), vjp, tan)


def sqrt(a):
    if not _any_node(a):
        return np.sqrt(a)
    a = _lift(a)
    y = np.sqrt(a.value)

    def vjp(g):
        return (g / (2.0 * y),)

    tan = None if a.tangent is None else a.tangent / (2.0 * y)
    return Node(y, "sqrt", (a,), vjp, tan)


def sum_(a, axis=None):
    if not _any_node(a):
        return np.sum(a, axis=axis)
    a = _lift(a)
    shape = np.shape(a.value)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    tan = None if a.tangent is None else np.sum(a.tangent, axis=axis)
    return Node(np.sum(a.value, axis=axis), "sum", (a,), vjp, tan)


def mean(a, axis=None):
    if not _any_node(a):
        return np.mean(a, axis=axis)
    a = _lift(a)
    shape = np.shape(a.value)
    n = int(np.prod(shape)) if axis is None else shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy(),)

    tan = None if a.tangent is None else np.mean(a.tangent, axis=axis)
    return Node(np.mean(a.value, axis=axis), "mean", (a,), vjp, tan)


def maximum_const(a, c: float):
    """Elementwise max(a, c) with a scalar constant.

    Subgradient at a == c is 0 (the hinge tie-break used by the GAN losses).
    """
    if not _any_node(a):
        return np.maximum(a, c)
    a = _lift(a)
    mask = a.value > c

    def vjp(g):
        return (g * mask,)

    tan = None if a.tangent is None else a.tangent * mask
    return Node(np.maximum(a.value, c), "maximum_const", (a,), vjp, tan)


def concat(parts, axis=0):
    if not _any_node(*parts):
        return np.concatenate(parts, axis=axis)
    nodes = [_lift(p) for p in parts]
    sizes = [np.shape(n.value)[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(nodes))
        )

    if any(n.tangent is not None for n in nodes):
        tan = np.concatenate(
            [n.tangent if n.tangent is not None else np.zeros_like(as_f64(n.value))
             for n in nodes],
            axis=axis,
        )
    else:
        tan = None
    val = np.concatenate([n.value for n in nodes], axis=axis)
    return Node(val, "concat", tuple(nodes), vjp, tan)


def narrow(a, axis: int, start: int, length: int):
    """Contiguous slice of `length` extents along `axis` (the slice primitive)."""
    idx = tuple(
        slice(start, start + length) if d == axis else slice(None)
        for d in range(np.ndim(value_of(a)))
    )
    if not _any_node(a):
        return a[idx]
    a = _lift(a)
    shape = np.shape(a.value)

    def vjp(g):
        out = np.zeros(shape, dtype=np.float64)
        out[idx] = g
        return (out,)

    tan = None if a.tangent is None else a.tangent[idx]
    return Node(a.value[idx], "narrow", (a,), vjp, tan)


def reshape(a, shape):
    if not _any_node(a):
        return np.reshape(a, shape)
    a = _lift(a)
    old = np.shape(a.value)

    def vjp(g):
        return (np.reshape(g, old),)

    tan = None if a.tangent is None else np.reshape(a.tangent, shape)
    return Node(np.reshape(a.value, shape), "reshape", (a,), vjp, tan)


def stopgrad(a):
    """Identity forward; zero gradient; zero tangent."""
    if not _any_node(a):
        return a
    return Node(a.value, "stopgrad")


def affine(x, w, b):
    """x @ w + b (composite of the matmul and add primitives)."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------

def _topo(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children; root last


def backward(root: Node) -> dict[int, Array]:
    """Reverse-mode pass from a scalar root; returns id(node) -> gradient."""
    if np.shape(root.value) != ():
        raise ContractViolation("backward requires a scalar root")
    grads: dict[int, Array] = {id(root): np.float64(1.0)}
    for node in reversed(_topo(root)):
        g = grads.get(id(node))
        if g is None or node.vjp is None or not node.parents:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def grad_of(grads: dict[int, Array], node: Node) -> Array:
    g = grads.get(id(node))
    if g is None:
        return np.zeros_like(as_f64(node.value))
    return as_f64(g)


def param_grads(loss: Node, leaves: dict[str, Node]) -> dict[str, Array]:
    """Reverse pass from a scalar loss; returns name -> gradient for every
    named leaf (zeros for leaves the loss does not depend on)."""
    grads = backward(loss)
    return {name: grad_of(grads, node) for name, node in leaves.items()}


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass
class ParameterSet:
    """Named flat collection of weight tensors; version bumps on updates."""

    entries: dict[str, Array] = field(default_factory=dict)
    version: int = 0

    def __post_init__(self):
        self.entries = {k: as_f64(v) for k, v in self.entries.items()}
        for name, v in self.entries.items():
            if not np.all(np.isfinite(v)):
                raise NumericFailure(f"parameter '{name}' contains non-finite values")

    def copy(self) -> "ParameterSet":
        return ParameterSet({k: v.copy() for k, v in self.entries.items()}, self.version)

    def n_params(self) -> int:
        return int(sum(v.size for v in self.entries.values()))

    def __getitem__(self, name: str) -> Array:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def lift(self) -> dict[str, Node]:
        """Wrap every entry as a graph leaf (for a training step)."""
        return {k: Node(v) for k, v in self.entries.items()}


# ---------------------------------------------------------------------------
# Public differentiation entry points
# ---------------------------------------------------------------------------

def grad(loss_fn: Callable, params: ParameterSet, *inputs):
    """Evaluate ``loss_fn(param_nodes, *inputs)`` and differentiate.

    Returns (loss value as float, dict name -> gradient array). The loss must
    be scalar; raw inputs are passed through untouched (no gradients for
    them -- use jvp or explicit leaves for input sensitivities).
    """
    leaves = params.lift()
    out = loss_fn(leaves, *inputs)
    if not isinstance(out, Node):
        raise ContractViolation("loss_fn must return a graph Node")
    if np.shape(out.value) != ():
        raise ContractViolation("loss_fn must return a scalar")
    return float(out.value), param_grads(out, leaves)


def jvp(fn: Callable, primals, tangents):
    """Forward-mode directional derivative of ``fn`` at primals along tangents.

    primals/tangents are matching sequences (shape-checked). Returns
    (outputs, output_tangents) with the same single/tuple structure as fn's
    return value; tangents of outputs untouched by the inputs are zero.
    """
    primals = tuple(primals)
    tangents = tuple(tangents)
    if len(primals) != len(tangents):
        raise ContractViolation("jvp: primals and tangents must have equal length")
    nodes = []
    for i, (p, t) in enumerate(zip(primals, tangents)):
        p, t = as_f64(p), as_f64(t)
        if p.shape != t.shape:
            raise ContractViolation(
                f"jvp: tangent {i} shape {t.shape} does not match primal shape {p.shape}"
            )
        nodes.append(Node(p, tangent=t))
    out = fn(*nodes)

    def split(o):
        if not isinstance(o, Node):
            o = _lift(o)
        t = o.tangent if o.tangent is not None else np.zeros_like(as_f64(o.value))
        return o.value, t

    if isinstance(out, (tuple, list)):
        vals, tans = zip(*(split(o) for o in out))
        return tuple(vals), tuple(tans)
    return split(out)
