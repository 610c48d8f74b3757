"""Jointly parameterized dynamics model, bounded controller, and Lyapunov
function, with a projection layer that enforces closed-loop exponential
decrease of the Lyapunov function by construction.

The pieces:

* nominal dynamics  fhat(x,u) = g_f(x,u) - g_f(0, u*(0)), pinning the
  origin as a closed-loop equilibrium;
* controller        u*(x) = diag(u_lim) tanh(g_u(x)), strictly inside the
  control box;
* Lyapunov value    V(x) = srelu(g_V(x) - g_V(0)) + eps_pd*||x||^2, positive
  definite with a quadratic floor, where g_V carries smoothed-ReLU hidden
  activations and a tanh output scaled by ``v_cap``;
* projection        f*(x,u) = fhat(x,u)
                      - gradV(x) * relu(gradV(x)^T fhat(x,u*(x)) + alpha*V(x))
                        / max(||gradV(x)||^2, eps_proj).

The correction depends on u only through u*(x), so it is one shared shift
across all controls at a fixed state; in particular it preserves affinity
in u for the control-affine variant.  At x = 0 the correction vanishes
identically (V(0)=0 and gradV(0)=0), so no special-casing of the origin is
needed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .diffcore import Network, NumpyOps, init_network, net_apply, net_input_gradient

# Rows per numpy model call wherever a batch of any size is evaluated: every
# audit loop (the Lipschitz loop evaluates a block's pairs as one call of
# twice as many rows) and the loss of a holdout or of a zero-epoch run.  In
# fresh processes running a 100k-sample audit, 384-512 rows were fastest in
# both model modes, with about 12k minor page faults.  From 640 rows on, the
# blocks' temporaries were page-faulted in again block after block (0.2-1.8M
# faults, up to twice the wall time), and 20,000-row blocks also more than
# tripled the peak RSS; 256 rows paid more per-call overhead.  So the memory
# a model call uses is set by this constant, not by the batch.
BLOCK_ROWS = 512


def row_blocks(total):
    """Slices of at most BLOCK_ROWS rows that cover range(total) in order."""
    for start in range(0, total, BLOCK_ROWS):
        yield slice(start, min(start + BLOCK_ROWS, total))


def _box(name, value):
    """``value`` as a finite float64 box: a number or a non-empty flat list
    of numbers."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    items = items if isinstance(items, (list, tuple)) else [items]
    # numbers only: numpy would read "1.3" and true as bounds
    if not items or any(isinstance(v, bool) or not isinstance(v, numbers.Real)
                        for v in items):
        raise ValueError(f"{name} must be a number or a flat list of numbers, "
                         f"got {value!r}")
    box = np.array(items, dtype=np.float64)
    # an infinite or NaN bound would pass every ordering check
    if not np.all(np.isfinite(box)):
        raise ValueError(f"{name} must be finite, got {box.tolist()}")
    return box


@dataclass(frozen=True)
class Hyper:
    """Scalar hyperparameters plus the sampling boxes.

    ``beta`` defaults to 5/max(u_lim) when not given; ``v_cap`` is the tanh
    output scale of the Lyapunov network.
    """

    u_lim: np.ndarray
    x_lb: np.ndarray
    x_ub: np.ndarray
    alpha: float = 1.0
    beta: float = None
    lam: float = 0.0
    eps_pd: float = 0.5
    eps_proj: float = 1e-3
    d: float = 5e-3
    v_cap: float = 10.0

    def __post_init__(self):
        for name in ("u_lim", "x_lb", "x_ub"):
            object.__setattr__(self, name, _box(name, getattr(self, name)))
        if self.beta is None:
            top = float(np.max(self.u_lim))
            # an all-zero control box leaves the kernel argument identically
            # zero, so any positive sharpness works; keep the numerator
            object.__setattr__(self, "beta", 5.0 / top if top > 0 else 5.0)
        # numbers only, as for the boxes: true would pass every range check;
        # each range check asks for the valid range, so NaN fails it
        for name in ("alpha", "beta", "lam", "eps_pd", "eps_proj", "d", "v_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if name != "lam" and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if np.any(self.u_lim < 0):
            raise ValueError("u_lim must be componentwise nonnegative")
        if self.x_lb.shape != self.x_ub.shape or np.any(self.x_lb >= self.x_ub):
            raise ValueError("state box must satisfy x_lb < x_ub componentwise")

    @property
    def n(self):
        return self.x_lb.shape[0]

    @property
    def m(self):
        return self.u_lim.shape[0]

    def to_dict(self):
        return {
            "alpha": self.alpha, "beta": self.beta, "lambda": self.lam,
            "eps_pd": self.eps_pd, "eps_proj": self.eps_proj, "d": self.d,
            "u_lim": self.u_lim.tolist(), "x_lb": self.x_lb.tolist(),
            "x_ub": self.x_ub.tolist(), "v_cap": self.v_cap,
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; absent keys take the defaults above."""
        data = dict(data)
        if "lambda" in data:
            data["lam"] = data.pop("lambda")
        return cls(**data)

    @classmethod
    def for_system(cls, system, **overrides):
        """The system's boxes and these defaults under ``overrides``, which
        may spell ``lam`` as "lambda" (``**{"lambda": ...}``)."""
        base = dict(u_lim=system.u_lim, x_lb=system.x_lb, x_ub=system.x_ub)
        for name in base:
            if name in overrides:
                box = _box(name, overrides[name])
                if box.shape != base[name].shape:
                    raise ValueError(f"hyper.{name} has {box.size} entries where "
                                     f"{system.name} has {base[name].size}")
        base.update(overrides)
        return cls.from_dict(base)


class NetRole(NamedTuple):
    """A learned network's role: its (input, output) widths as a function of
    the state and control dimensions n and m, its hidden and output
    activations, and its default hidden width."""

    name: str
    dims: Callable
    hidden: str
    out: str
    width: int


_GV = NetRole("gv", lambda n, m: (n, 1), "smoothed_relu", "tanh", 50)
# Each mode's networks in parameter-vector order, gv last in both modes;
# initialize draws network i from seed stream i.
NETWORKS = {
    "general": (NetRole("gf", lambda n, m: (n + m, n), "tanh", "identity", 100),
                NetRole("gu", lambda n, m: (n, m), "tanh", "tanh", 50), _GV),
    "affine": (NetRole("gf1", lambda n, m: (n, n), "tanh", "identity", 100),
               NetRole("gf2", lambda n, m: (n, n * m), "tanh", "identity", 100), _GV),
}
DEFAULT_DEPTH = 3


def mode_roles(mode):
    """The mode's :data:`NETWORKS` entry; ValueError for an unknown mode."""
    if not isinstance(mode, str) or mode not in NETWORKS:
        raise ValueError(f"unknown mode {mode!r}")
    return NETWORKS[mode]


def parameter_count(hyper, mode, dims):
    """The length of a ``mode`` model's parameter vector at the layer widths
    ``dims`` (network name -> list of widths); ValueError, naming the
    network, unless the widths fit the mode's :data:`NETWORKS`."""
    roles = mode_roles(mode)
    if not isinstance(dims, dict) or set(dims) != {role.name for role in roles}:
        raise ValueError(f"dims must be an object naming "
                         f"{', '.join(role.name for role in roles)}, got {dims!r:.60}")
    for role in roles:
        widths = dims[role.name]
        if not (isinstance(widths, list) and len(widths) >= 2 and all(
                isinstance(w, numbers.Integral) and not isinstance(w, bool) and w > 0
                for w in widths)):
            raise ValueError(f"{role.name} layer widths must be a list of at least two "
                             f"positive integers, got {widths!r}")
        if (widths[0], widths[-1]) != role.dims(hyper.n, hyper.m):
            raise ValueError(f"{role.name} must have (input, output) widths "
                             f"{role.dims(hyper.n, hyper.m)}, got {(widths[0], widths[-1])}")
    return sum(i * o + o for role in roles
               for i, o in zip(dims[role.name][:-1], dims[role.name][1:]))


def projection_shift(ops, grad_v, resid, eps_proj):
    """Closed-form l2 correction enforcing the decrease condition.

    Returns the shared shift subtracted from the nominal dynamics,
    grad_v * relu(resid) / max(||grad_v||^2, eps_proj), for (B, n) ``grad_v``
    and (B, 1) residuals resid = grad_v . fhat(x, u*(x)) + alpha V, as
    handles of either backend.

    Where ||grad_v||^2 >= eps_proj this is the minimal l2 correction: zero if
    the condition already holds, else the shift that makes
    grad_v . f* <= -alpha V hold with equality.  Below that floor the
    denominator is clamped, so the shift is smaller than the residual needs
    and the decrease condition may stay violated on those rows.
    """
    den = ops.maximum_scalar(ops.row_sum(ops.mul(grad_v, grad_v)), eps_proj)
    return ops.mul(grad_v, ops.div(ops.maximum_scalar(resid, 0.0), den))


class StableDynamicsModel:
    """The learned triple (nominal dynamics, controller, Lyapunov function).

    A model is its ``hyper``, its ``mode``, each network's layer widths
    ``dims`` and one parameter vector ``params``.  ``mode`` is "general"
    (networks gf, gu, gv) or "affine" (gf1, gf2, gv with the bang-bang
    controller induced by the Lyapunov gradient).  ``params`` runs network
    by network in :data:`NETWORKS` order, then layer by layer, each
    row-major weight before its bias.  The constructor checks its length
    against :func:`parameter_count` before it builds anything, and copies
    it once.
    Its ``nets`` are a read-only mapping, in :data:`NETWORKS` order, of
    frozen networks whose weights and biases are read-only views of that
    copy, with their role's activations and ``hyper.d`` as their
    smoothed-ReLU width.  :meth:`get_params` returns a copy of the vector,
    and :meth:`set_params` is its only writer: it writes the vector in
    place, which every view shows, and drops the cached origin nodes.  An
    in-place write to a network array, or replacing a network or one of its
    arrays, raises.  ``layers`` is a read-only mapping of each network's
    (W, b) view pairs, in vector order, built from ``nets``: the numpy
    backend's handles, and the arrays a tape registers as leaves.  Neither
    ``nets`` nor ``layers`` can be rebound.

    All evaluation methods take (B, n) state batches, and (B, m) control
    batches where they take controls, and return row-batched arrays.
    Evaluation is read-only and safe to share across threads; parameter
    updates are not.
    """

    def __init__(self, hyper, mode, dims, params):
        size = parameter_count(hyper, mode, dims)
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (size,):
            raise ValueError(f"parameters must be a flat vector of {size} values, "
                             f"got shape {params.shape}")
        self.hyper = hyper
        self.mode = mode
        self.n = hyper.n
        self.m = hyper.m
        self._theta = params.copy()
        frozen = self._theta.view()  # every slice of it is read-only too
        frozen.flags.writeable = False
        own, start = {}, 0
        for role in NETWORKS[mode]:
            widths = dims[role.name]
            weights, biases = [], []
            for fan_in, fan_out in zip(widths[:-1], widths[1:]):
                stop = start + fan_in * fan_out
                weights.append(frozen[start:stop].reshape(fan_out, fan_in))
                biases.append(frozen[stop:stop + fan_out])
                start = stop + fan_out
            own[role.name] = Network(weights, biases,
                                     [role.hidden] * (len(weights) - 1) + [role.out],
                                     srelu_width=hyper.d)
        self._nets = MappingProxyType(own)
        self._layers = MappingProxyType(
            {name: tuple(zip(net.weights, net.biases)) for name, net in own.items()})
        self._np_origin = None

    @property
    def nets(self):
        """The read-only mapping of frozen networks viewing the vector."""
        return self._nets

    @property
    def layers(self):
        """The read-only mapping of each network's (W, b) view pairs."""
        return self._layers

    # -- construction ----------------------------------------------------

    @classmethod
    def initialize(cls, hyper, seed=0, mode="general", widths=None, depth=DEFAULT_DEPTH):
        """Fresh deterministic initialization of the mode's :data:`NETWORKS`,
        at their default widths unless ``widths`` names others."""
        roles = mode_roles(mode)
        widths = widths or {}
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        dims, arrays = {}, []
        for role, child in zip(roles, ss.spawn(len(roles))):
            in_dim, out_dim = role.dims(hyper.n, hyper.m)
            net = init_network([in_dim] + [widths.get(role.name, role.width)] * depth
                               + [out_dim], seed=child)
            dims[role.name] = net.dims
            arrays += [a.ravel() for wb in zip(net.weights, net.biases) for a in wb]
        return cls(hyper, mode, dims, np.concatenate(arrays))

    # -- parameter plumbing ------------------------------------------------

    def get_params(self):
        """A copy of the parameter vector."""
        return self._theta.copy()

    def set_params(self, vec):
        """Write ``vec`` into the parameter vector, which every network
        array views, and drop the cached origin nodes."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self._theta.shape:
            raise ValueError(f"expected flat vector of length {self._theta.size}, "
                             f"got {vec.shape}")
        self._theta[:] = vec
        self._np_origin = None

    # -- the model pipeline -------------------------------------------------

    def build_graph(self, ops, handles, X, U=None):
        """Assemble the projected graph on either backend, in either mode.

        Returns a dict of handles: u_star, v, w, grad_v, fhat_star, resid,
        shift, fstar_star, affine mode's f2 and coeff, and (when U is given)
        fhat_data / fstar_data; the fhat pieces are the unprojected model.
        X and U are backend handles of shape (B, n) and (B, m).

        The modes differ only in :meth:`_controller` and :meth:`_nominal`.
        On a tape the origin nodes gv(0) and the nominal offset are recorded
        inline, ahead of the batch, so gradients flow through them; the
        numpy backend reads them from :meth:`_numpy_origin`, so numpy
        ``handles`` must be :attr:`layers`.
        """
        hp = self.hyper
        u_lim_row = ops.constant(hp.u_lim[None, :])
        if ops is NumpyOps:
            origin = self._numpy_origin()
        else:
            origin = self._origin_nodes(ops, handles, u_lim_row)
        pieces = self._lyapunov(ops, handles, X, origin["gv_0"])
        pieces.update(self._controller(ops, handles, X, pieces["grad_v"], u_lim_row))
        nominal = self._nominal(ops, handles, X, pieces, origin["offset"])
        fhat_star = nominal(pieces["u_star"])
        grad_v = pieces["grad_v"]
        resid = ops.add(ops.row_sum(ops.mul(grad_v, fhat_star)),
                        ops.scale(pieces["v"], hp.alpha))
        shift = projection_shift(ops, grad_v, resid, hp.eps_proj)
        pieces.update(fhat_star=fhat_star, resid=resid, shift=shift,
                      fstar_star=ops.sub(fhat_star, shift))
        if U is not None:
            fhat_data = nominal(U)
            pieces.update(fhat_data=fhat_data, fstar_data=ops.sub(fhat_data, shift))
        return pieces

    def _gv(self, ops, handles, X):
        """v_cap * gv(X), and the gv layer cache that the gradient chain reads."""
        gv = self.nets["gv"]
        out, cache = net_apply(ops, handles["gv"], gv.activations, gv.srelu_width, X)
        return ops.scale(out, self.hyper.v_cap), cache

    def _lyapunov(self, ops, handles, X, gv_0, grad=True):
        """V at X with w = v_cap (gv(X) - gv(0)), plus gradV when ``grad``
        is set.  ``gv_0`` is the origin's v_cap * gv(0).

        gradV is one vector-Jacobian product through gv at the cotangent
        v_cap * srelu'(w), plus the floor's 2 eps_pd x.
        """
        hp = self.hyper
        gv_x, cache = self._gv(ops, handles, X)
        w = ops.sub(gv_x, gv_0)
        v = ops.add(ops.srelu(w, hp.d),
                    ops.scale(ops.row_sum(ops.mul(X, X)), hp.eps_pd))
        pieces = {"w": w, "v": v}
        if grad:
            gv = self.nets["gv"]
            cot = ops.scale(ops.srelu_grad(w, hp.d), hp.v_cap)
            pieces["grad_v"] = ops.add(
                net_input_gradient(ops, handles["gv"], gv.activations, gv.srelu_width,
                                   cache, cot),
                ops.scale(X, 2.0 * hp.eps_pd))
        return pieces

    def _controller(self, ops, handles, X, grad_v, u_lim_row):
        """u*(X) as a dict, with affine mode's gf2 block ``f2`` (B, n, m) and
        sign argument ``coeff``.

        General mode: u* = diag(u_lim) tanh(gu(X)).  Affine mode: the
        bang-bang control u* = -diag(u_lim) sign(gradV^T gf2(X)) induced by
        the Lyapunov gradient; the sign carries no gradient (piecewise
        constant in both x and parameters).  ``grad_v`` is gradV at X; only
        affine mode reads it.
        """
        name = "gu" if self.mode == "general" else "gf2"
        net = self.nets[name]
        out, _ = net_apply(ops, handles[name], net.activations, net.srelu_width, X)
        if self.mode == "general":
            return {"u_star": ops.mul(u_lim_row, out)}
        f2 = ops.reshape(out, (ops.value(X).shape[0], self.n, self.m))
        coeff = ops.vec_bmat(grad_v, f2)
        return {"u_star": ops.mul(ops.scale(ops.sign_detached(coeff), -1.0), u_lim_row),
                "f2": f2, "coeff": coeff}

    def _nominal(self, ops, handles, X, ctrl, offset=None):
        """The map u -> ghat(X, u) - offset: gf(X, u) in general mode,
        gf1(X) + gf2(X) u in affine mode, with ``ctrl`` the controller dict
        at X.  Without ``offset`` it is the raw ghat(X, u)."""
        if self.mode == "general":
            gf = self.nets["gf"]

            def nominal(u):
                out, _ = net_apply(ops, handles["gf"], gf.activations, gf.srelu_width,
                                   ops.concat_cols(X, u))
                return out if offset is None else ops.sub(out, offset)
            return nominal
        gf1 = self.nets["gf1"]
        f1, _ = net_apply(ops, handles["gf1"], gf1.activations, gf1.srelu_width, X)
        if offset is not None:
            f1 = ops.sub(f1, offset)
        return lambda u: ops.add(f1, ops.bmat_vec(ctrl["f2"], u))

    def _origin_nodes(self, ops, handles, u_lim_row):
        """The scaled gv(0), and the nominal offset ghat(0, u*(0)) that pins
        the origin as a closed-loop equilibrium.

        Affine mode's u*(0) reads gradV(0), which is the constant zero: at
        x = 0, w = 0 where srelu' vanishes, and the floor's gradient
        2 eps_pd x is zero.  So the zero state stands in for it, and no
        gradient chain runs at the origin.
        """
        zero = ops.constant(np.zeros((1, self.n)))
        ctrl = self._controller(ops, handles, zero, zero, u_lim_row)
        offset = self._nominal(ops, handles, zero, ctrl)(ctrl["u_star"])
        return {"gv_0": self._gv(ops, handles, zero)[0], "offset": offset}

    def _numpy_origin(self):
        """:meth:`_origin_nodes` on the numpy backend, kept until the next
        :meth:`set_params`."""
        if self._np_origin is None:
            self._np_origin = self._origin_nodes(
                NumpyOps, self.layers, self.hyper.u_lim[None, :])
        return self._np_origin

    # -- numpy evaluation ---------------------------------------------------

    def _as_batch(self, x, dim, what):
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != dim:
            raise ValueError(f"{what} must have dimension {dim} as (B, {dim}), got {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError(f"non-finite {what}")
        return X

    def eval_pieces(self, X, U=None):
        """:meth:`build_graph` on the numpy backend for a (B, n) state batch
        and, optionally, a (B, m) control batch; returns its dict of raw
        arrays.  A non-finite output raises FloatingPointError naming the
        first non-finite piece among v, grad_v, fhat_star and resid."""
        X = self._as_batch(X, self.n, "state")
        if U is not None:
            U = self._as_batch(U, self.m, "control")
            if U.shape[0] != X.shape[0]:
                raise ValueError(f"{U.shape[0]} control rows for {X.shape[0]} states")
        pieces = self.build_graph(NumpyOps, self.layers, X, U)
        out = pieces["fstar_star"] if U is None else pieces["fstar_data"]
        if not np.all(np.isfinite(out)):
            for key in ("v", "grad_v", "fhat_star", "resid"):
                if not np.all(np.isfinite(pieces[key])):
                    raise FloatingPointError(
                        f"non-finite intermediate {key!r} in model evaluation")
            raise FloatingPointError("non-finite model output")
        return pieces

    def eval_parts(self, X, parts):
        """Only the named pieces of the numpy graph on a prevalidated (B, n)
        batch, as a dict holding just those names.

        ``parts`` names pieces from {"u_star", "v", "grad_v"}.  They come from
        the :meth:`_lyapunov` and :meth:`_controller` nodes that
        :meth:`build_graph` uses, with gv(0) from the origin cache, so values
        are bit-identical to :meth:`eval_pieces`.  V alone runs gv without its
        gradient chain; gradV adds the chain; u* runs gu in general mode and
        gv, gradV and gf2 in affine mode.  Neither mode evaluates the nominal
        dynamics or the projection.  A non-finite piece raises
        FloatingPointError naming it.
        """
        parts = set(parts)
        unknown = parts - {"u_star", "v", "grad_v"}
        if unknown:
            raise ValueError(f"eval_parts evaluates only u_star, v and grad_v, "
                             f"not {sorted(unknown)}")
        handles = self.layers
        # the pieces that need gv: all of them in affine mode, where u* reads gradV
        lyapunov = parts if self.mode == "affine" else parts - {"u_star"}
        pieces = {}
        if lyapunov:
            pieces = self._lyapunov(NumpyOps, handles, X, self._numpy_origin()["gv_0"],
                                    grad=lyapunov != {"v"})
        if "u_star" in parts:
            pieces.update(self._controller(NumpyOps, handles, X, pieces.get("grad_v"),
                                           self.hyper.u_lim[None, :]))
        out = {}
        for name in sorted(parts):
            if not np.all(np.isfinite(pieces[name])):
                raise FloatingPointError(f"non-finite {name!r} in model evaluation")
            out[name] = pieces[name]
        return out

    def controller_batch(self, X):
        """u* on a prevalidated (B, n) batch, without dynamics or projection."""
        return self.eval_parts(X, ("u_star",))["u_star"]

    def lyapunov_batch(self, X):
        """V on a prevalidated (B, n) batch without the gradient chain."""
        return self.eval_parts(X, ("v",))["v"][:, 0]

    def lyapunov_grad_batch(self, X):
        """gradV on a prevalidated (B, n) batch, without controller or dynamics."""
        return self.eval_parts(X, ("grad_v",))["grad_v"]
