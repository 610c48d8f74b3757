"""Reverse-mode differentiation core for small dense feedforward networks.

Each primitive is declared once, in ``PRIMITIVES``: its number of array
operands, its forward on raw float64 arrays, and its vector-Jacobian
product.  Both evaluation backends are built from that table:

* ``NumpyOps`` exposes each forward as is, executing immediately on arrays.
* ``Tape`` records each primitive as a node of a Wengert list while
  computing the same value, so a scalar result can later be differentiated
  with respect to any designated leaf arrays in a single reverse sweep that
  calls the table's VJPs.

The operator set is deliberately small: ``dense(a, w, b)`` for a whole
affine layer ``a @ w.T + b`` (one recorded node per layer), three C1
activations, and the elementwise/reduction primitives needed to assemble a
stability-projected dynamics model and its regression loss.  Input
gradients are vector-Jacobian products at an output cotangent, built as
explicit layerwise chain-rule expressions (the cotangent times
activation-derivative diagonals and weight matrices), so losses that
contain them can themselves be differentiated with ordinary first-order
reverse mode.

All values are float64; batches are row-major (batch, dim).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

ACTIVATIONS = ("smoothed_relu", "tanh", "identity")


class GradientError(FloatingPointError):
    """Raised when a reverse sweep produces a non-finite adjoint."""


# ---------------------------------------------------------------------------
# Smoothed ReLU and friends
# ---------------------------------------------------------------------------

def _srelu_raw(z, d):
    # C1 ramp: 0 for z<=0, z^2/(2d) for 0<z<d, z-d/2 above
    c = np.minimum(np.maximum(z, 0.0), d)
    return c * c * (0.5 / d) + np.maximum(z - d, 0.0)


def _srelu_grad_raw(z, d):
    return np.minimum(np.maximum(z, 0.0), d) * (1.0 / d)


def _srelu_curv_raw(z, d):
    # seams take the lower branch: 0 at z=0, 1/d at z=d
    return ((z > 0.0) & (z <= d)).astype(np.float64) / d


# ---------------------------------------------------------------------------
# Network container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Network:
    """Dense feedforward network with explicit parameter storage.

    weights[i] has shape (out_i, in_i), biases[i] shape (out_i,), and
    activations[i] names the nonlinearity applied after layer i.  Layer
    dims must chain.  ``srelu_width`` is the smoothing width used by any
    ``smoothed_relu`` activation in this network.  The three sequences are
    kept as tuples of float64 arrays and tags, and the network is frozen:
    :func:`dataclasses.replace` makes a network with other arrays.
    """

    weights: tuple
    biases: tuple
    activations: tuple
    srelu_width: float = 0.005

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("weights, biases, activations must have equal length")
        if not self.weights:
            raise ValueError("network needs at least one layer")
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        biases = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        for i, (w, b, act) in enumerate(zip(weights, biases, self.activations)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != weights[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i}: input dim {w.shape[1]} does not chain with "
                    f"previous output {weights[i - 1].shape[0]}"
                )
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation tag {act!r}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        if not self.srelu_width > 0:
            raise ValueError("srelu_width must be positive")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "activations", tuple(self.activations))

    @property
    def in_dim(self):
        return self.weights[0].shape[1]

    @property
    def out_dim(self):
        return self.weights[-1].shape[0]

    @property
    def dims(self):
        return [self.in_dim] + [w.shape[0] for w in self.weights]


def init_network(dims, activation="tanh", seed=0, out_activation="identity",
                 srelu_width=0.005):
    """Deterministically initialize a network of the given layer sizes.

    Weights are uniform in [-s, s] with s = sqrt(1/fan_in); biases start at
    zero.  ``activation`` applies to every hidden layer, ``out_activation``
    to the last one.  A width that is a bool or not an integer is refused.
    """
    dims = list(dims)
    if len(dims) < 2 or not all(isinstance(x, numbers.Integral) and not isinstance(x, bool)
                                and x > 0 for x in dims):
        raise ValueError(f"dims must have >=2 positive integer entries, got {dims}")
    for act in (activation, out_activation):
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation tag {act!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    acts = [activation] * (len(dims) - 2) + [out_activation]
    return Network(weights, biases, acts, srelu_width=srelu_width)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

def _unbroadcast(grad, shape):
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _tanh_vjp(adj, out, a):
    d = out * out
    np.subtract(1.0, d, out=d)
    d *= adj
    return (d,)


def _dense(a, w, b):
    z = a @ w.T
    z += b
    return z


class Primitive(NamedTuple):
    """One differentiable operation.

    ``forward(*operands, *constants)`` computes the value on raw arrays from
    ``arity`` array operands and any trailing constants.  ``vjp(adj, out,
    *operands, *constants)`` returns one adjoint contribution per operand,
    or ``None`` for an operand that receives no gradient.
    """

    arity: int
    forward: Callable
    vjp: Callable


PRIMITIVES = {
    "add": Primitive(
        2, lambda a, b: a + b,
        lambda adj, out, a, b: (_unbroadcast(adj, a.shape), _unbroadcast(adj, b.shape))),
    "sub": Primitive(
        2, lambda a, b: a - b,
        lambda adj, out, a, b: (_unbroadcast(adj, a.shape), _unbroadcast(-adj, b.shape))),
    "mul": Primitive(
        2, lambda a, b: a * b,
        lambda adj, out, a, b: (_unbroadcast(adj * b, a.shape),
                                _unbroadcast(adj * a, b.shape))),
    "div": Primitive(
        2, lambda a, b: a / b,
        lambda adj, out, a, b: (_unbroadcast(adj / b, a.shape),
                                _unbroadcast(-adj * a / (b * b), b.shape))),
    "matmul": Primitive(
        2, lambda a, b: a @ b,
        lambda adj, out, a, b: (adj @ b.T, a.T @ adj)),
    # a whole affine layer a @ w.T + b is one node
    "dense": Primitive(
        3, _dense,
        lambda adj, out, a, w, b: (adj @ w, adj.T @ a, adj.sum(axis=0))),
    "concat_cols": Primitive(
        2, lambda a, b: np.concatenate((a, b), axis=-1),
        lambda adj, out, a, b: (adj[:, :a.shape[1]], adj[:, a.shape[1]:])),
    "tanh": Primitive(1, np.tanh, _tanh_vjp),
    "srelu": Primitive(
        1, _srelu_raw,
        lambda adj, out, a, d: (adj * _srelu_grad_raw(a, d),)),
    "srelu_grad": Primitive(
        1, _srelu_grad_raw,
        lambda adj, out, a, d: (adj * _srelu_curv_raw(a, d),)),
    "exp": Primitive(1, np.exp, lambda adj, out, a: (adj * out,)),
    "scale": Primitive(1, lambda a, s: a * s, lambda adj, out, a, s: (adj * s,)),
    "add_scalar": Primitive(1, lambda a, c: a + c, lambda adj, out, a, c: (adj,)),
    # ties take the constant branch: no gradient at a == c (so relu, c = 0,
    # is dead at 0)
    "maximum_scalar": Primitive(
        1, np.maximum, lambda adj, out, a, c: (adj * (a > c),)),
    "row_sum": Primitive(
        1, lambda a: a.sum(axis=-1, keepdims=True),
        lambda adj, out, a: (np.broadcast_to(adj, a.shape),)),
    "sum_all": Primitive(
        1, lambda a: a.sum(),
        lambda adj, out, a: (np.broadcast_to(adj, a.shape),)),
    "mean_all": Primitive(
        1, lambda a: a.mean(),
        lambda adj, out, a: (np.broadcast_to(adj / a.size, a.shape),)),
    "reshape": Primitive(
        1, lambda a, shape: a.reshape(shape),
        lambda adj, out, a, shape: (adj.reshape(a.shape),)),
    "bmat_vec": Primitive(
        2, lambda A, u: np.einsum("bnm,bm->bn", A, u),
        lambda adj, out, A, u: (np.einsum("bn,bm->bnm", adj, u),
                                np.einsum("bn,bnm->bm", adj, A))),
    "vec_bmat": Primitive(
        2, lambda g, A: np.einsum("bn,bnm->bm", g, A),
        lambda adj, out, g, A: (np.einsum("bm,bnm->bn", adj, A),
                                np.einsum("bn,bm->bnm", g, adj))),
    # piecewise-constant: carries no gradient by construction
    "sign_detached": Primitive(1, np.sign, lambda adj, out, a: (None,)),
}


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


class NumpyOps:
    """Immediate-execution backend: each primitive's forward on ndarrays."""

    leaf = constant = staticmethod(_as_array)

    @staticmethod
    def value(a):
        return a


class Node:
    """One recorded primitive: its value, its parent nodes, and the raw
    operands and constants its VJP reads."""

    __slots__ = ("idx", "op", "value", "parents", "args", "vjp")

    def __init__(self, idx, op, value, parents, args, vjp):
        self.idx = idx
        self.op = op
        self.value = value
        self.parents = parents
        self.args = args
        self.vjp = vjp


class Tape:
    """Wengert-list recorder with eager values and a single reverse sweep.

    Nodes are created through the same method set as ``NumpyOps`` so model
    code can be written once against either backend.  A tape is single-use
    and single-threaded: record, then call :meth:`gradient`.
    """

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, x):
        """Register a differentiation leaf (parameter, input or constant)."""
        node = Node(len(self._nodes), "leaf", _as_array(x), (), (), None)
        self._nodes.append(node)
        return node

    constant = leaf

    @staticmethod
    def value(node):
        return node.value

    # -- reverse sweep -------------------------------------------------

    def gradient(self, output, leaves):
        """Adjoints of ``output`` (a scalar node) w.r.t. each node in ``leaves``.

        Leaves the output does not depend on get exact zero gradients.  A
        non-finite adjoint raises :class:`GradientError` naming its node.

        The sweep checks finiteness only where adjoints end: at leaves and
        constants, and at ``sign_detached`` nodes, whose VJP drops the
        adjoint.  NaN and inf propagate through every other VJP, so a
        non-finite adjoint anywhere reaches one of these ends.  On a hit the
        finished adjoints are scanned in reverse tape order, then the
        requested leaves, and the first non-finite one is raised.  A node's
        adjoint is complete before the sweep reaches it, so this names the
        same node, with the same message, as a sweep that checked every
        adjoint as it went.  If the scan finds nothing (only an unrequested
        leaf's or a constant's summed adjoint overflowed), the gradients are
        returned unchecked.
        """
        if np.asarray(output.value).size != 1:
            raise GradientError("gradient target must be scalar")
        nodes = self._nodes[:output.idx + 1]
        adjoints = [None] * len(self._nodes)
        adjoints[output.idx] = np.ones_like(output.value)
        ends = []
        for node in reversed(nodes):
            adj = adjoints[node.idx]
            if adj is None:
                continue
            if node.vjp is None:
                ends.append(adj)
                continue
            for parent, contrib in zip(node.parents,
                                       node.vjp(adj, node.value, *node.args)):
                if contrib is None:
                    ends.append(adj)
                elif adjoints[parent.idx] is None:
                    adjoints[parent.idx] = contrib
                else:
                    adjoints[parent.idx] = adjoints[parent.idx] + contrib
        if not all(np.isfinite(adj).all() for adj in ends):
            checks = [n for n in reversed(nodes) if n.vjp is not None] + list(leaves)
            for node in checks:
                g = adjoints[node.idx]
                if g is not None and not np.all(np.isfinite(g)):
                    raise GradientError(
                        f"non-finite adjoint at node {node.idx} ({node.op})")
        out = []
        for leaf in leaves:
            g = adjoints[leaf.idx]
            out.append(np.zeros_like(leaf.value) if g is None else np.asarray(g))
        return out


def _bind(name, prim):
    """The ``Tape`` method that records primitive ``name``."""
    arity, forward, vjp = prim

    def record(self, *args):
        parents = args[:arity]
        raw = (*[p.value for p in parents], *args[arity:])
        node = Node(len(self._nodes), name, forward(*raw), parents, raw, vjp)
        self._nodes.append(node)
        return node

    record.__name__ = name
    record.__qualname__ = f"Tape.{name}"
    return record


for _name, _prim in PRIMITIVES.items():
    setattr(NumpyOps, _name, staticmethod(_prim.forward))
    setattr(Tape, _name, _bind(_name, _prim))


def param_gradient(tape, output, leaves):
    """The adjoints of ``output`` w.r.t. ``leaves``, raveled and concatenated
    in leaf order into one vector."""
    return np.concatenate([g.ravel() for g in tape.gradient(output, leaves)])


# ---------------------------------------------------------------------------
# Backend-generic network application
# ---------------------------------------------------------------------------

def net_apply(ops, handles, activations, srelu_width, x):
    """Apply a network given parameter handles; returns (output, layer cache).

    ``handles`` is a list of (W, b) pairs in the backend's handle type; the
    cache holds (pre-activation, activation) per layer for later use by
    :func:`net_input_gradient`.
    """
    a = x
    cache = []
    for (w, b), act in zip(handles, activations):
        z = ops.dense(a, w, b)
        if act == "tanh":
            a = ops.tanh(z)
        elif act == "smoothed_relu":
            a = ops.srelu(z, srelu_width)
        else:
            a = z
        cache.append((z, a))
    return a, cache


def net_input_gradient(ops, handles, activations, srelu_width, cache, cot):
    """Vector-Jacobian product cot^T d(net)/dx of a network at the (B, out)
    output cotangent ``cot``, as a (B, in) backend expression.

    Uses the cached forward pass; the result is itself differentiable when
    ``ops`` is a recording tape.
    """
    G = cot
    for (w, _b), act, (z, a) in zip(reversed(handles), reversed(activations),
                                    reversed(cache)):
        if act == "tanh":
            G = ops.mul(G, ops.add_scalar(ops.scale(ops.mul(a, a), -1.0), 1.0))
        elif act == "smoothed_relu":
            G = ops.mul(G, ops.srelu_grad(z, srelu_width))
        G = ops.matmul(G, w)
    return G
