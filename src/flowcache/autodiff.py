"""Minimal float64 tensor autodiff: reverse-mode gradients and forward-mode
directional derivatives (JVPs) over numpy arrays.

The primitive set is closed. Every primitive states one rule of one shape:
its value, and per operand a tangent map (operand tangent -> output tangent)
and that map's transpose (output cotangent -> operand gradient). The
output's tangent is the sum of the mapped operand tangents, broadcast to the
output's shape; its VJP is the list of transposes. Each primitive is covered
by a finite-difference test of both maps and a test that the two are
adjoint. Adding a primitive means adding its rule plus the tests.

The elementwise primitives state one local partial per operand (the
derivative of the output with respect to that operand, applied to an array);
the partial is the tangent map, and the partial summed down to the
operand's shape after broadcasting is the transpose:

    add sub mul div sin cos gelu square sqrt maximum_const

The structural primitives state both maps directly:

    matmul sum mean concat narrow reshape

``affine`` is provided as a composite of matmul+add. ``maximum_const`` is
the hinge primitive; its subgradient at the kink (input exactly equal to the
constant) is defined to be 0.

Every op accepts either graph ``Node`` operands or plain numpy
arrays/floats. With no Node among the operands the op stays out of graph
mode and evaluates the identical numpy expression, so raw-mode and
graph-mode values are bit-equal.

A Node needs gradients when it is a gradient leaf (``leaf`` or
``ParameterSet.lift``) or has an operand that needs them; plain operands and
the tangent seeds of ``jvp`` are constants. An op on Nodes that neither need
gradients nor carry tangents returns the plain raw value and builds no Node;
one whose operands carry tangents but need no gradients builds a Node with a
tangent and no VJP; otherwise the VJP computes transposes only for the
operands that need gradients, so none is computed into a constant.

Intermediate values are not checked for NaN/Inf as they are built. The
sinks check: ``backward`` the loss, ``jvp`` its outputs and their tangents
(``optim.adam_step`` checks the gradients). On a non-finite value
``check_finite`` walks the retained graph in topological order and raises
``NumericFailure`` naming the origin primitive: the first Node whose value
or tangent is non-finite while its operands are finite.

Everything is float64: the 1e-4 finite-difference tolerances used to verify
the rules are not reliable in 32-bit.
"""
from __future__ import annotations

import operator
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

    value      -- float64 numpy array (or numpy scalar)
    tangent    -- forward-mode directional derivative, or None (treated as 0)
    parents    -- the operands, Nodes or plain values
    vjp        -- callable grad_out -> per-operand gradients (None for the
                  operands that need none), or None
    needs_grad -- True for gradient leaves and the Nodes computed from one
    """

    __slots__ = ("value", "tangent", "parents", "vjp", "op", "needs_grad")

    # Keep numpy from absorbing Nodes into object arrays: an ndarray-Node
    # operator mix raises TypeError; combine them through the primitives.
    __array_ufunc__ = None

    def __init__(self, value, op="leaf", parents=(), vjp=None, tangent=None,
                 needs_grad=False):
        self.value = value
        self.tangent = tangent
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return np.shape(self.value)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={np.shape(self.value)})"


def leaf(value, tangent=None, needs_grad=True) -> Node:
    """Wrap a raw array as a graph leaf, optionally seeding a tangent; with
    needs_grad=False it is a constant that only carries the tangent."""
    return Node(as_f64(value), tangent=None if tangent is None else as_f64(tangent),
                needs_grad=needs_grad)


def value_of(x):
    """Underlying numpy value of a Node or raw operand."""
    return x.value if isinstance(x, Node) else x


# ---------------------------------------------------------------------------
# Shared rule plumbing
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


def _primitive(op: str, raw: Callable, rule: Callable, *operands):
    """Value, VJP and tangent of a primitive: the one place that builds a
    graph Node.

    ``raw(*operands)`` is the value rule on plain operands. ``rule(*values)``
    returns the output and, per operand, a pair (tangent map, transpose):
    the map takes the operand's tangent to its share of the output tangent,
    and the transpose takes the output cotangent to the operand's gradient.
    The output tangent is the sum of the maps over the operands that carry a
    tangent, broadcast to the output's shape (None when none does). The VJP
    calls the transposes of the operands that need gradients only; with no
    such operand there is no VJP, and with no tangent either no Node: the
    op returns ``raw`` of the operand values.
    """
    node = grad = carried = False
    for x in operands:
        if isinstance(x, Node):
            node = True
            grad = grad or x.needs_grad
            carried = carried or x.tangent is not None
    if not node:
        return raw(*operands)
    if not (grad or carried):
        return raw(*map(value_of, operands))
    value, maps = rule(*[x.value if isinstance(x, Node) else as_f64(x)
                         for x in operands])

    tan = None
    if carried:
        for x, (tangent_map, _) in zip(operands, maps):
            if isinstance(x, Node) and x.tangent is not None:
                t = tangent_map(x.tangent)
                tan = t if tan is None else tan + t
        if np.shape(tan) != np.shape(value):
            tan = np.broadcast_to(tan, np.shape(value)).copy()
    if not grad:
        return Node(value, op, operands, None, tan)
    transposes = [transpose if isinstance(x, Node) and x.needs_grad else None
                  for x, (_, transpose) in zip(operands, maps)]

    def vjp(g):
        return [None if transpose is None else transpose(g)
                for transpose in transposes]
    return Node(value, op, operands, vjp, tan, True)


def _elementwise(op: str, raw: Callable, rule: Callable, *operands):
    """A primitive whose ``rule(*values)`` returns the output and one local
    partial per operand: a callable that multiplies an array by
    d(output)/d(operand). The partial is the tangent map; its transpose is
    the partial of the cotangent, summed down to the operand's shape.
    """
    def maps(*values):
        value, partials = rule(*values)
        return value, [(d, lambda g, d=d, shape=x.shape:
                        _unbroadcast(d(g), shape))
                       for d, x in zip(partials, values)]
    return _primitive(op, raw, maps, *operands)


def _same(t):
    return t


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a, b):
    return _elementwise("add", operator.add,
                        lambda x, y: (x + y, (_same, _same)), a, b)


def sub(a, b):
    return _elementwise("sub", operator.sub,
                        lambda x, y: (x - y, (_same, operator.neg)), a, b)


def mul(a, b):
    def rule(x, y):
        return x * y, (lambda t: t * y, lambda t: t * x)
    return _elementwise("mul", operator.mul, rule, a, b)


def div(a, b):
    def rule(x, y):
        return x / y, (lambda t: t / y, lambda t: -t * x / (y * y))
    return _elementwise("div", operator.truediv, rule, a, b)


def matmul(a, b):
    """Matrix product; supports (n,k)@(k,m) and (k,)@(k,m)."""
    def rule(av, bv):
        if av.ndim == 2:
            ga, gb = (lambda g: g @ bv.T), (lambda g: av.T @ g)
        elif av.ndim == 1:
            ga, gb = (lambda g: bv @ g), (lambda g: np.outer(av, g))
        else:
            raise ContractViolation("matmul supports 1-D or 2-D left operands only")
        return av @ bv, ((lambda t: t @ bv, ga), (lambda t: av @ t, gb))
    return _primitive("matmul", operator.matmul, rule, a, b)


def sin(a):
    def rule(x):
        c = np.cos(x)
        return np.sin(x), (lambda t: t * c,)
    return _elementwise("sin", np.sin, rule, a)


def cos(a):
    def rule(x):
        s = np.sin(x)
        return np.cos(x), (lambda t: -t * s,)
    return _elementwise("cos", np.cos, rule, a)


def _gelu_raw(x):
    return x * (0.5 * (1.0 + erf(x * _INV_SQRT2)))


def gelu(a):
    """Exact (erf-based) gelu: x * Phi(x)."""
    def rule(x):
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        d = cdf + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x))
        return x * cdf, (lambda t: t * d,)
    return _elementwise("gelu", _gelu_raw, rule, a)


def square(a):
    return _elementwise("square", lambda x: x * x,
                        lambda x: (x * x, (lambda t: 2.0 * x * t,)), a)


def sqrt(a):
    def rule(x):
        y = np.sqrt(x)
        return y, (lambda t: t / (2.0 * y),)
    return _elementwise("sqrt", np.sqrt, rule, a)


def _spread(g, shape, axis):
    """Broadcast a reduction's cotangent back over the reduced axis."""
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def sum_(a, axis=None):
    def rule(x):
        shape = np.shape(x)
        return np.sum(x, axis=axis), ((lambda t: np.sum(t, axis=axis),
                                       lambda g: _spread(g, shape, axis)),)
    return _primitive("sum", lambda x: np.sum(x, axis=axis), rule, a)


def mean(a, axis=None):
    def rule(x):
        shape = np.shape(x)
        n = int(np.prod(shape)) if axis is None else shape[axis]
        return np.mean(x, axis=axis), ((lambda t: np.mean(t, axis=axis),
                                        lambda g: _spread(g / n, shape, axis)),)
    return _primitive("mean", lambda x: np.mean(x, axis=axis), rule, a)


def maximum_const(a, c: float):
    """Elementwise max(a, c) with a scalar constant.

    Subgradient at a == c is 0 (the hinge tie-break used by the GAN losses).
    """
    def rule(x):
        mask = x > c
        return np.maximum(x, c), (lambda t: t * mask,)
    return _elementwise("maximum_const", lambda x: np.maximum(x, c), rule, a)


def _slice_along(ndim: int, axis: int, start: int, length: int) -> tuple:
    """Index of `length` extents from `start` along `axis`, whole elsewhere."""
    axis %= ndim
    return tuple(slice(start, start + length) if d == axis else slice(None)
                 for d in range(ndim))


def _embed(t, shape, idx):
    """Zeros of `shape` with `t` written at `idx`: the transpose of a slice."""
    out = np.zeros(shape, dtype=np.float64)
    out[idx] = t
    return out


def concat(parts, axis=0):
    def rule(*values):
        value = np.concatenate(values, axis=axis)
        maps, start = [], 0
        for v in values:
            size = np.shape(v)[axis]
            idx = _slice_along(value.ndim, axis, start, size)
            maps.append((lambda t, idx=idx: _embed(t, value.shape, idx),
                         lambda g, span=range(start, start + size):
                         np.take(g, span, axis=axis)))
            start += size
        return value, maps
    return _primitive("concat", lambda *ps: np.concatenate(ps, axis=axis),
                      rule, *parts)


def narrow(a, axis: int, start: int, length: int):
    """Contiguous slice of `length` extents along `axis` (the slice primitive)."""
    idx = _slice_along(np.ndim(value_of(a)), axis, start, length)

    def rule(x):
        shape = np.shape(x)
        return x[idx], ((lambda t: t[idx], lambda g: _embed(g, shape, idx)),)
    return _primitive("narrow", lambda x: x[idx], rule, a)


def reshape(a, shape):
    """Reshape; an operand already of that shape is returned as it is."""
    if np.shape(value_of(a)) == tuple(shape):
        return a

    def rule(x):
        old = np.shape(x)
        return np.reshape(x, shape), ((lambda t: np.reshape(t, shape),
                                       lambda g: np.reshape(g, old)),)
    return _primitive("reshape", lambda x: np.reshape(x, shape), rule, a)


def affine(x, w, b):
    """x @ w + b (composite of the matmul and add primitives)."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------

def _topo(root: Node, grad_only: bool = False) -> list[Node]:
    """The Nodes `root` depends on, parents before children, root last;
    with grad_only, through the Nodes that need gradients only."""
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
            if (isinstance(p, Node) and (p.needs_grad or not grad_only)
                    and id(p) not in seen):
                stack.append((p, False))
    return order


def _finite(x) -> bool:
    return x is None or bool(np.all(np.isfinite(x)))


def check_finite(x) -> None:
    """Raise NumericFailure if a Node's value or tangent is non-finite,
    naming the origin: the first Node in topological order whose value or
    tangent is non-finite while its operands are finite. A non-finite plain
    operand is named as a leaf. Plain (raw-mode) values are not checked."""
    if not isinstance(x, Node) or (_finite(x.value) and _finite(x.tangent)):
        return
    for node in _topo(x):
        if not all(_finite(p) for p in node.parents if not isinstance(p, Node)):
            raise NumericFailure("non-finite value produced by primitive 'leaf'")
        for kind, v in (("value", node.value), ("tangent", node.tangent)):
            if not _finite(v):
                raise NumericFailure(
                    f"non-finite {kind} produced by primitive '{node.op}'")


def backward(root: Node) -> dict[int, Array]:
    """Reverse-mode pass from a finite scalar root; returns id(node) ->
    gradient for the Nodes that need gradients."""
    if np.shape(root.value) != ():
        raise ContractViolation("backward requires a scalar root")
    check_finite(root)
    grads: dict[int, Array] = {id(root): np.float64(1.0)}
    for node in reversed(_topo(root, grad_only=True)):
        g = grads.get(id(node))
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return grads


def param_grads(loss: Node, leaves: dict[str, Node]) -> dict[str, Array]:
    """Reverse pass from a scalar loss Node; returns name -> gradient for
    every named leaf (zeros for leaves the loss does not depend on)."""
    if not isinstance(loss, Node):
        raise ContractViolation("the loss must be a graph Node")
    grads = backward(loss)
    return {name: as_f64(grads[id(node)]) if id(node) in grads
            else np.zeros_like(as_f64(node.value))
            for name, node in leaves.items()}


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

    def __getitem__(self, name: str) -> Array:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def lift(self) -> dict[str, Node]:
        """Wrap every entry as a gradient leaf (for a training step)."""
        return {k: Node(v, needs_grad=True) for k, v in self.entries.items()}


# ---------------------------------------------------------------------------
# Public differentiation entry points
# ---------------------------------------------------------------------------

def jvp(fn: Callable, primals, tangents):
    """Forward-mode directional derivative of ``fn`` at primals along tangents.

    primals/tangents are matching sequences (shape-checked). Returns
    (outputs, output_tangents) with the same single/tuple structure as fn's
    return value; tangents of outputs untouched by the inputs are zero. A
    non-finite output value or tangent raises NumericFailure naming its
    origin primitive.
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
            o = as_f64(o)
            return o, np.zeros_like(o)
        check_finite(o)
        t = o.tangent if o.tangent is not None else np.zeros_like(as_f64(o.value))
        return o.value, t

    if isinstance(out, (tuple, list)):
        vals, tans = zip(*(split(o) for o in out))
        return tuple(vals), tuple(tans)
    return split(out)
