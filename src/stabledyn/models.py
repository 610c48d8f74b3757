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

import functools
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .diffcore import NumpyOps, ParamLayout, init_network, net_apply, net_input_gradient


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
            value = getattr(self, name)
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
            object.__setattr__(self, name, box)
        if self.beta is None:
            top = float(np.max(self.u_lim))
            # an all-zero control box leaves the kernel argument identically
            # zero, so any positive sharpness works; keep the numerator
            object.__setattr__(self, "beta", 5.0 / top if top > 0 else 5.0)
        # each check asks for the valid range, so NaN fails it
        for name in ("alpha", "beta", "eps_pd", "eps_proj", "d", "v_cap"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
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
# Each mode's networks in layout order, gv last so that layouts stay
# mode-consistent; initialize draws network i from seed stream i.
NETWORKS = {
    "general": (NetRole("gf", lambda n, m: (n + m, n), "tanh", "identity", 100),
                NetRole("gu", lambda n, m: (n, m), "tanh", "tanh", 50), _GV),
    "affine": (NetRole("gf1", lambda n, m: (n, n), "tanh", "identity", 100),
               NetRole("gf2", lambda n, m: (n, n * m), "tanh", "identity", 100), _GV),
}
DEFAULT_DEPTH = 3


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
    return ops.mul(grad_v, ops.div(ops.relu(resid), den))


class StableDynamicsModel:
    """The learned triple (nominal dynamics, controller, Lyapunov function).

    ``mode`` is "general" (networks gf, gu, gv) or "affine" (gf1, gf2, gv
    with the bang-bang controller induced by the Lyapunov gradient).
    :data:`NETWORKS` declares each mode's networks; the constructor raises
    ValueError, naming the network, unless ``nets`` holds them in that
    order with the declared input and output widths and activations, and
    with ``srelu_width == hyper.d`` wherever a layer is smoothed-ReLU.  All
    evaluation methods take (B, n) state batches, and (B, m) control
    batches where they take controls, and return row-batched arrays.

    Evaluation is read-only and safe to share across threads; parameter
    updates must go through :meth:`set_params`, which also invalidates the
    cached numpy handles and origin nodes.
    """

    def __init__(self, nets, hyper, mode="general"):
        if not isinstance(mode, str) or mode not in NETWORKS:
            raise ValueError(f"unknown mode {mode!r}")
        expected = tuple(role.name for role in NETWORKS[mode])
        if tuple(nets) != expected:
            raise ValueError(f"mode {mode!r} requires networks {expected}, got {tuple(nets)}")
        for role in NETWORKS[mode]:
            net, dims = nets[role.name], role.dims(hyper.n, hyper.m)
            if (net.in_dim, net.out_dim) != dims:
                raise ValueError(f"{role.name} must have (input, output) widths {dims}, "
                                 f"got {(net.in_dim, net.out_dim)}")
            acts = [role.hidden] * (len(net.activations) - 1) + [role.out]
            if list(net.activations) != acts:
                raise ValueError(f"{role.name} must have {role.hidden} hidden layers and "
                                 f"a {role.out} output, got {list(net.activations)}")
            if "smoothed_relu" in acts and net.srelu_width != hyper.d:
                raise ValueError(f"{role.name} srelu_width {net.srelu_width} differs "
                                 f"from hyper.d = {hyper.d}")
        self.nets = nets
        self.hyper = hyper
        self.mode = mode
        self.n = hyper.n
        self.m = hyper.m
        self.layout = ParamLayout(nets)
        self._np_cache = None

    # -- construction ----------------------------------------------------

    @classmethod
    def initialize(cls, hyper, seed=0, mode="general", widths=None, depth=DEFAULT_DEPTH):
        """Fresh deterministic initialization of the mode's :data:`NETWORKS`,
        at their default widths unless ``widths`` names others."""
        roles = NETWORKS.get(mode, ())  # the constructor names an unknown mode
        widths = widths or {}
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        nets = {}
        for role, child in zip(roles, ss.spawn(len(roles))):
            in_dim, out_dim = role.dims(hyper.n, hyper.m)
            srelu = {"srelu_width": hyper.d} if role.hidden == "smoothed_relu" else {}
            nets[role.name] = init_network(
                [in_dim] + [widths.get(role.name, role.width)] * depth + [out_dim],
                role.hidden, child, out_activation=role.out, **srelu)
        return cls(nets, hyper, mode)

    # -- parameter plumbing ------------------------------------------------

    def get_params(self):
        return self.layout.flatten(self.nets)

    def set_params(self, vec):
        self.layout.write(self.nets, vec)
        self.invalidate_cache()

    def invalidate_cache(self):
        """Must be called after mutating network arrays in place."""
        self._np_cache = None

    # -- handle plumbing shared by numpy and tape evaluation ----------------

    def param_handles(self, ops):
        """Per-network (W, b) handle lists, in layout order.

        With a recording tape this registers every parameter as a leaf;
        with the numpy backend the arrays pass through unchanged.
        """
        handles = {}
        for name, net in self.nets.items():
            handles[name] = [(ops.leaf(w), ops.leaf(b))
                             for w, b in zip(net.weights, net.biases)]
        return handles

    def leaf_blocks(self, handles):
        """Leaf nodes flattened in the same order as the parameter layout."""
        leaves = []
        for blk in self.layout.blocks:
            w, b = handles[blk.net][blk.layer]
            leaves.append(w if blk.kind == "W" else b)
        return leaves

    # -- the model pipeline -------------------------------------------------

    def build_graph(self, ops, handles, X, U=None, ablate_projection=False):
        """Assemble the evaluation graph on either backend, in either mode.

        Returns a dict of handles: u_star, u_star_0, fhat_star, v, w, gv_x,
        gv_0, grad_v, resid, shift, fstar_star, affine mode's f2 and coeff,
        and (when U is given) fhat_data / fstar_data.  X and U are backend
        handles of shape (B, n) and (B, m).

        The modes differ only in :meth:`_controller` and :meth:`_nominal`.
        On a tape the origin nodes gv(0), u*(0) and the nominal offset are
        recorded inline, so gradients flow through them; the numpy backend
        reads them from :meth:`numpy_cache`, so numpy ``handles`` must be
        this model's own parameters.
        """
        hp = self.hyper
        u_lim_row = ops.constant(hp.u_lim[None, :])
        if ops is NumpyOps:
            origin = self.numpy_cache()[1]
        else:
            origin = self._origin_nodes(ops, handles, u_lim_row)
        pieces = self._lyapunov(ops, handles, X, origin["gv_0"])
        pieces.update(self._controller(ops, handles, X, lambda: pieces["grad_v"], u_lim_row))
        nominal = self._nominal(ops, handles, X, pieces, origin["offset"])
        fhat_star = nominal(pieces["u_star"])
        grad_v = pieces["grad_v"]
        resid = ops.add(ops.row_sum(ops.mul(grad_v, fhat_star)),
                        ops.scale(pieces["v"], hp.alpha))
        shift, fstar_star = None, fhat_star
        if not ablate_projection:
            shift = projection_shift(ops, grad_v, resid, hp.eps_proj)
            fstar_star = ops.sub(fhat_star, shift)
        pieces.update(u_star_0=origin["u_star_0"], fhat_star=fhat_star, resid=resid,
                      shift=shift, fstar_star=fstar_star)
        if U is not None:
            fhat_data = nominal(U)
            pieces["fhat_data"] = fhat_data
            pieces["fstar_data"] = (fhat_data if shift is None
                                    else ops.sub(fhat_data, shift))
        return pieces

    def _gv(self, ops, handles, X):
        """v_cap * gv(X), and the gv layer cache that the gradient chain reads."""
        gv = self.nets["gv"]
        out, cache = net_apply(ops, handles["gv"], gv.activations, gv.srelu_width, X)
        return ops.scale(out, self.hyper.v_cap), cache

    def _grad_v(self, ops, handles, X, w, cache):
        """gradV at X from w = gv(X) - gv(0) and the gv layer cache."""
        hp = self.hyper
        gv = self.nets["gv"]
        grad_gv = ops.scale(
            net_input_gradient(ops, handles["gv"], gv.activations, gv.srelu_width, cache),
            hp.v_cap)
        return ops.add(ops.mul(ops.srelu_grad(w, hp.d), grad_gv),
                       ops.scale(X, 2.0 * hp.eps_pd))

    def _lyapunov(self, ops, handles, X, gv_0, grad=True):
        """V at X with w = gv(X) - gv(0) and the scaled gv values, plus gradV
        when ``grad`` is set.  ``gv_0`` is the origin's gv(0) thunk."""
        hp = self.hyper
        gv_x, cache = self._gv(ops, handles, X)
        gv_0 = gv_0()
        w = ops.sub(gv_x, gv_0)
        v = ops.add(ops.srelu(w, hp.d),
                    ops.scale(ops.row_sum(ops.mul(X, X)), hp.eps_pd))
        pieces = {"w": w, "v": v, "gv_x": gv_x, "gv_0": gv_0}
        if grad:
            pieces["grad_v"] = self._grad_v(ops, handles, X, w, cache)
        return pieces

    def _controller(self, ops, handles, X, grad_v, u_lim_row):
        """u*(X) as a dict, with affine mode's gf2 block ``f2`` (B, n, m) and
        sign argument ``coeff``.

        General mode: u* = diag(u_lim) tanh(gu(X)).  Affine mode: the
        bang-bang control u* = -diag(u_lim) sign(gradV^T gf2(X)) induced by
        the Lyapunov gradient; the sign carries no gradient (piecewise
        constant in both x and parameters).  ``grad_v`` is a thunk returning
        gradV at X; only affine mode calls it.
        """
        name = "gu" if self.mode == "general" else "gf2"
        net = self.nets[name]
        out, _ = net_apply(ops, handles[name], net.activations, net.srelu_width, X)
        if self.mode == "general":
            return {"u_star": ops.mul(u_lim_row, out)}
        f2 = ops.reshape(out, (ops.value(X).shape[0], self.n, self.m))
        coeff = ops.vec_bmat(grad_v(), f2)
        return {"u_star": ops.mul(ops.neg(ops.sign_detached(coeff)), u_lim_row),
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
        """gv(0), u*(0) and the nominal offset ghat(0, u*(0)) that pins the
        origin as a closed-loop equilibrium.

        gv(0) is a thunk that records it at its first call: here in affine
        mode, whose u* reads gradV(0), and after gv(X) in general mode.  The
        reverse sweep sums parameter adjoints in tape order, so this order
        keeps trained parameters bit-identical across refactors of the graph.
        """
        zero = ops.constant(np.zeros((1, self.n)))
        gv_zero = functools.cache(lambda: self._gv(ops, handles, zero))

        def grad_v_0():
            gv_0, cache = gv_zero()
            return self._grad_v(ops, handles, zero, ops.sub(gv_0, gv_0), cache)

        ctrl = self._controller(ops, handles, zero, grad_v_0, u_lim_row)
        offset = self._nominal(ops, handles, zero, ctrl)(ctrl["u_star"])
        return {"gv_0": lambda: gv_zero()[0], "u_star_0": ctrl["u_star"], "offset": offset}

    def numpy_cache(self):
        """This model's raw-array handle dict and its :meth:`_origin_nodes` on
        the numpy backend, kept until :meth:`invalidate_cache`."""
        if self._np_cache is None:
            handles = self.param_handles(NumpyOps)
            self._np_cache = (handles, self._origin_nodes(
                NumpyOps, handles, self.hyper.u_lim[None, :]))
        return self._np_cache

    # -- numpy evaluation ---------------------------------------------------

    def _as_batch(self, x, dim, what):
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != dim:
            raise ValueError(f"{what} must have dimension {dim} as (B, {dim}), got {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError(f"non-finite {what}")
        return X

    def eval_pieces(self, X, U=None, ablate_projection=False):
        """Numpy-backend evaluation of a (B, n) state batch and, optionally, a
        (B, m) control batch; returns the graph dict of raw arrays."""
        X = self._as_batch(X, self.n, "state")
        if U is not None:
            U = self._as_batch(U, self.m, "control")
            if U.shape[0] != X.shape[0]:
                raise ValueError(f"{U.shape[0]} control rows for {X.shape[0]} states")
        pieces = self.build_graph(NumpyOps, self.numpy_cache()[0], X, U,
                                  ablate_projection=ablate_projection)
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
        handles, origin = self.numpy_cache()
        # the pieces that need gv: all of them in affine mode, where u* reads gradV
        lyapunov = parts if self.mode == "affine" else parts - {"u_star"}
        pieces = {}
        if lyapunov:
            pieces = self._lyapunov(NumpyOps, handles, X, origin["gv_0"],
                                    grad=lyapunov != {"v"})
        if "u_star" in parts:
            pieces.update(self._controller(NumpyOps, handles, X, lambda: pieces["grad_v"],
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
