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

from dataclasses import dataclass

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
        object.__setattr__(self, "u_lim", np.atleast_1d(np.asarray(self.u_lim, dtype=np.float64)))
        object.__setattr__(self, "x_lb", np.atleast_1d(np.asarray(self.x_lb, dtype=np.float64)))
        object.__setattr__(self, "x_ub", np.atleast_1d(np.asarray(self.x_ub, dtype=np.float64)))
        if self.beta is None:
            top = float(np.max(self.u_lim))
            # an all-zero control box leaves the kernel argument identically
            # zero, so any positive sharpness works; keep the numerator
            object.__setattr__(self, "beta", 5.0 / top if top > 0 else 5.0)
        if self.alpha <= 0 or self.eps_pd <= 0 or self.eps_proj <= 0 or self.d <= 0:
            raise ValueError("alpha, eps_pd, eps_proj, d must all be positive")
        if self.beta <= 0 or self.v_cap <= 0:
            raise ValueError("beta and v_cap must be positive")
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
        data = dict(data)
        data["lam"] = data.pop("lambda", data.pop("lam", 0.0))
        return cls(**data)

    @classmethod
    def for_system(cls, system, **overrides):
        base = dict(u_lim=system.u_lim, x_lb=system.x_lb, x_ub=system.x_ub)
        base.update(overrides)
        return cls(**base)


GENERAL_NETS = ("gf", "gu", "gv")
AFFINE_NETS = ("gf1", "gf2", "gv")
DEFAULT_WIDTHS = {"gf": 100, "gu": 50, "gv": 50, "gf1": 100, "gf2": 100}
DEFAULT_DEPTH = 3


def projection_shift(grad_v, fhat_at_ustar, v, alpha, eps_proj):
    """Closed-form l2 correction enforcing the decrease condition.

    Returns the shared shift subtracted from the nominal dynamics:
    grad_v * relu(grad_v . fhat_at_ustar + alpha v) / max(||grad_v||^2, eps_proj).
    Row-batched over all arguments.

    Where ||grad_v||^2 >= eps_proj this is the minimal l2 correction: zero if
    the condition already holds, else the shift that makes
    grad_v . f* <= -alpha v hold with equality.  Below that floor the
    denominator is clamped, so the shift is smaller than the residual needs
    and the decrease condition may stay violated on those rows.
    """
    resid = np.sum(grad_v * fhat_at_ustar, axis=1, keepdims=True) + alpha * v
    den = np.maximum(np.sum(grad_v * grad_v, axis=1, keepdims=True), eps_proj)
    return grad_v * (np.maximum(resid, 0.0) / den)


class StableDynamicsModel:
    """The learned triple (nominal dynamics, controller, Lyapunov function).

    ``mode`` is "general" (networks gf, gu, gv) or "affine" (gf1, gf2, gv
    with the bang-bang controller induced by the Lyapunov gradient).  All
    evaluation methods accept a single state vector or a (B, n) batch and
    mirror the input's batchedness in their output.

    Evaluation is read-only and safe to share across threads; parameter
    updates must go through :meth:`set_params`, which also invalidates the
    internal cache of origin-dependent offsets.
    """

    def __init__(self, nets, hyper, mode="general"):
        expected = GENERAL_NETS if mode == "general" else AFFINE_NETS
        if mode not in ("general", "affine"):
            raise ValueError(f"unknown mode {mode!r}")
        if tuple(nets) != expected:
            raise ValueError(f"mode {mode!r} requires networks {expected}, got {tuple(nets)}")
        self.nets = nets
        self.hyper = hyper
        self.mode = mode
        self.n = hyper.n
        self.m = hyper.m
        self.layout = ParamLayout(nets)
        self._version = 0
        self._offsets = None
        self._np_handles = None
        self._check_shapes()

    def _check_shapes(self):
        n, m = self.n, self.m
        gv = self.nets["gv"]
        if gv.in_dim != n or gv.out_dim != 1:
            raise ValueError("gv must map state to a scalar")
        if self.mode == "general":
            if self.nets["gf"].in_dim != n + m or self.nets["gf"].out_dim != n:
                raise ValueError("gf must map (state, control) to state derivative")
            if self.nets["gu"].in_dim != n or self.nets["gu"].out_dim != m:
                raise ValueError("gu must map state to control")
        else:
            if self.nets["gf1"].in_dim != n or self.nets["gf1"].out_dim != n:
                raise ValueError("gf1 must map state to state derivative")
            if self.nets["gf2"].in_dim != n or self.nets["gf2"].out_dim != n * m:
                raise ValueError("gf2 must map state to an n*m coefficient block")

    # -- construction ----------------------------------------------------

    @classmethod
    def initialize(cls, hyper, seed=0, mode="general", widths=None, depth=DEFAULT_DEPTH):
        """Fresh deterministic initialization with the standard layer sizes."""
        n, m = hyper.n, hyper.m
        widths = dict(DEFAULT_WIDTHS, **(widths or {}))
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = ss.spawn(3)
        nets = {}
        if mode == "general":
            nets["gf"] = init_network([n + m] + [widths["gf"]] * depth + [n],
                                      "tanh", children[0])
            nets["gu"] = init_network([n] + [widths["gu"]] * depth + [m],
                                      "tanh", children[1], out_activation="tanh")
        else:
            nets["gf1"] = init_network([n] + [widths["gf1"]] * depth + [n],
                                       "tanh", children[0])
            nets["gf2"] = init_network([n] + [widths["gf2"]] * depth + [n * m],
                                       "tanh", children[1])
        nets["gv"] = init_network([n] + [widths["gv"]] * depth + [1],
                                  "smoothed_relu", children[2],
                                  out_activation="tanh", srelu_width=hyper.d)
        # gv is keyed last in both modes so layouts stay mode-consistent
        ordered = {name: nets[name] for name in (GENERAL_NETS if mode == "general" else AFFINE_NETS)}
        return cls(ordered, hyper, mode)

    # -- parameter plumbing ------------------------------------------------

    def get_params(self):
        return self.layout.flatten(self.nets)

    def set_params(self, vec):
        self.layout.write(self.nets, vec)
        self.invalidate_cache()

    def invalidate_cache(self):
        """Must be called after mutating network arrays in place."""
        self._version += 1
        self._offsets = None
        self._np_handles = None

    @property
    def n_params(self):
        return self.layout.size

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

    def build_graph(self, ops, handles, X, U=None, ablate_projection=False,
                    origin=None):
        """Assemble the full evaluation graph on either backend.

        Returns a dict of handles: u_star, fhat_star, v, grad_v, resid,
        shift, fstar_star, and (when U is given) fhat_data / fstar_data.
        X and U are backend handles of shape (B, n) and (B, m).  ``origin``
        optionally supplies precomputed origin offsets (numpy backend only);
        the tape path must leave it None so gradients flow through them.
        """
        if self.mode == "general":
            return self._graph_general(ops, handles, X, U, ablate_projection, origin)
        return self._graph_affine(ops, handles, X, U, ablate_projection, origin)

    def _lyapunov_nodes(self, ops, handles, X, zero, gv_0=None):
        """V, gradV, and the raw scaled network values at X (and gv at 0)."""
        pieces, cache = self._lyapunov_value_nodes(ops, handles, X, zero, gv_0)
        pieces["grad_v"] = self._lyapunov_grad_node(ops, handles, X, pieces["w"], cache)
        return pieces

    def _lyapunov_value_nodes(self, ops, handles, X, zero, gv_0=None):
        """The value half: V, w = gv(X) - gv(0) and the scaled gv values, plus
        the gv layer cache that the gradient half reads.  ``zero`` is only
        read when ``gv_0`` is None."""
        hp = self.hyper
        gv = self.nets["gv"]
        out_x, cache = net_apply(ops, handles["gv"], gv.activations, gv.srelu_width, X)
        gv_x = ops.scale(out_x, hp.v_cap)
        if gv_0 is None:
            out_0, _ = net_apply(ops, handles["gv"], gv.activations, gv.srelu_width, zero)
            gv_0 = ops.scale(out_0, hp.v_cap)
        w = ops.sub(gv_x, gv_0)
        v = ops.add(ops.srelu(w, hp.d),
                    ops.scale(ops.row_sum(ops.mul(X, X)), hp.eps_pd))
        return {"w": w, "v": v, "gv_x": gv_x, "gv_0": gv_0}, cache

    def _lyapunov_grad_node(self, ops, handles, X, w, cache):
        """The gradient half: gradV at X from w and the gv layer cache."""
        hp = self.hyper
        gv = self.nets["gv"]
        grad_gv = ops.scale(
            net_input_gradient(ops, handles["gv"], gv.activations, gv.srelu_width, cache),
            hp.v_cap)
        return ops.add(ops.mul(ops.srelu_grad(w, hp.d), grad_gv),
                       ops.scale(X, 2.0 * hp.eps_pd))

    def _general_controller(self, ops, handles, X, u_lim_row):
        gu = self.nets["gu"]
        gu_x, _ = net_apply(ops, handles["gu"], gu.activations, gu.srelu_width, X)
        return ops.mul(u_lim_row, gu_x)

    def _f2_nodes(self, ops, handles, X):
        """The control coefficient block gf2(X) as a (B, n, m) handle."""
        gf2 = self.nets["gf2"]
        out, _ = net_apply(ops, handles["gf2"], gf2.activations, gf2.srelu_width, X)
        return ops.reshape(out, (ops.value(X).shape[0], self.n, self.m))

    @staticmethod
    def _bang_bang(ops, grad_v, f2, u_lim_row):
        """Bang-bang controller induced by the Lyapunov gradient; returns
        (coeff, u*).  The sign carries no gradient (piecewise constant in
        both x and parameters)."""
        coeff = ops.vec_bmat(grad_v, f2)
        return coeff, ops.mul(ops.neg(ops.sign_detached(coeff)), u_lim_row)

    def _projection_nodes(self, ops, pieces, fhat_star, ablate):
        hp = self.hyper
        grad_v, v = pieces["grad_v"], pieces["v"]
        resid = ops.add(ops.row_sum(ops.mul(grad_v, fhat_star)),
                        ops.scale(v, hp.alpha))
        if ablate:
            shift = None
            fstar_star = fhat_star
        else:
            den = ops.maximum_scalar(ops.row_sum(ops.mul(grad_v, grad_v)), hp.eps_proj)
            shift = ops.mul(grad_v, ops.div(ops.relu(resid), den))
            fstar_star = ops.sub(fhat_star, shift)
        pieces.update(resid=resid, shift=shift, fstar_star=fstar_star)
        return pieces

    def _graph_general(self, ops, handles, X, U, ablate, origin=None):
        gf = self.nets["gf"]
        zero = ops.constant(np.zeros((1, self.n)))
        u_lim_row = ops.constant(self.hyper.u_lim[None, :])

        u_star = self._general_controller(ops, handles, X, u_lim_row)
        if origin is None:
            u_star_0 = self._general_controller(ops, handles, zero, u_lim_row)
            gf_0, _ = net_apply(ops, handles["gf"], gf.activations, gf.srelu_width,
                                ops.concat_cols(zero, u_star_0))
            gv_0 = None
        else:
            u_star_0 = ops.constant(origin["u_star_0"])
            gf_0 = ops.constant(origin["gf_0"])
            gv_0 = ops.constant(origin["gv_0"])

        gf_star, _ = net_apply(ops, handles["gf"], gf.activations, gf.srelu_width,
                               ops.concat_cols(X, u_star))
        fhat_star = ops.sub(gf_star, gf_0)

        pieces = self._lyapunov_nodes(ops, handles, X, zero, gv_0=gv_0)
        pieces.update(u_star=u_star, u_star_0=u_star_0, gf_0=gf_0, fhat_star=fhat_star)
        self._projection_nodes(ops, pieces, fhat_star, ablate)

        if U is not None:
            gf_u, _ = net_apply(ops, handles["gf"], gf.activations, gf.srelu_width,
                                ops.concat_cols(X, U))
            fhat_data = ops.sub(gf_u, gf_0)
            pieces["fhat_data"] = fhat_data
            pieces["fstar_data"] = (fhat_data if ablate
                                    else ops.sub(fhat_data, pieces["shift"]))
        return pieces

    def _graph_affine(self, ops, handles, X, U, ablate, origin=None):
        gf1 = self.nets["gf1"]
        zero = ops.constant(np.zeros((1, self.n)))
        u_lim_row = ops.constant(self.hyper.u_lim[None, :])

        f2_x = self._f2_nodes(ops, handles, X)
        gf1_x, _ = net_apply(ops, handles["gf1"], gf1.activations, gf1.srelu_width, X)

        if origin is None:
            pieces_0 = self._lyapunov_nodes(ops, handles, zero, zero)
            f2_0 = self._f2_nodes(ops, handles, zero)
            _, u_star_0 = self._bang_bang(ops, pieces_0["grad_v"], f2_0, u_lim_row)
            gf1_0, _ = net_apply(ops, handles["gf1"], gf1.activations, gf1.srelu_width, zero)
            f1_off = ops.add(gf1_0, ops.bmat_vec(f2_0, u_star_0))
            gv_0 = pieces_0["gv_0"]
        else:
            u_star_0 = ops.constant(origin["u_star_0"])
            f1_off = ops.constant(origin["f1_off"])
            gv_0 = ops.constant(origin["gv_0"])

        pieces = self._lyapunov_nodes(ops, handles, X, zero, gv_0=gv_0)
        coeff, u_star = self._bang_bang(ops, pieces["grad_v"], f2_x, u_lim_row)

        f1 = ops.sub(gf1_x, f1_off)
        fhat_star = ops.add(f1, ops.bmat_vec(f2_x, u_star))
        pieces.update(u_star=u_star, u_star_0=u_star_0, f1=f1, f2=f2_x,
                      coeff=coeff, fhat_star=fhat_star, f1_off=f1_off)
        self._projection_nodes(ops, pieces, fhat_star, ablate)

        if U is not None:
            fhat_data = ops.add(f1, ops.bmat_vec(f2_x, U))
            pieces["fhat_data"] = fhat_data
            pieces["fstar_data"] = (fhat_data if ablate
                                    else ops.sub(fhat_data, pieces["shift"]))
        return pieces

    def _origin_offsets(self):
        """Origin-dependent constants, recomputed whenever parameters change."""
        if self._offsets is not None and self._offsets[0] == self._version:
            return self._offsets[1]
        handles = self._numpy_handles()
        zeros = np.zeros((1, self.n))
        pieces = self.build_graph(NumpyOps, handles, zeros, None)
        off = {"u_star_0": pieces["u_star_0"], "gv_0": pieces["gv_0"]}
        if self.mode == "general":
            off["gf_0"] = pieces["gf_0"]
        else:
            off["f1_off"] = pieces["f1_off"]
        self._offsets = (self._version, off)
        return off

    def _numpy_handles(self):
        """Raw-array handle dict, cached per parameter version."""
        if self._np_handles is None or self._np_handles[0] != self._version:
            self._np_handles = (self._version, self.param_handles(NumpyOps))
        return self._np_handles[1]

    # -- numpy evaluation ---------------------------------------------------

    def _as_batch(self, x, dim, what):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        X = x[None, :] if single else x
        if X.ndim != 2 or X.shape[1] != dim:
            raise ValueError(f"{what} must have dimension {dim}, got shape {x.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError(f"non-finite {what}")
        return X, single

    def eval_pieces(self, x, u=None, ablate_projection=False):
        """Numpy-backend evaluation; returns the graph dict of raw arrays."""
        X, single = self._as_batch(x, self.n, "state")
        U = None
        if u is not None:
            Ub, _ = self._as_batch(np.atleast_1d(np.asarray(u, dtype=np.float64)),
                                   self.m, "control")
            if Ub.shape[0] == 1 and X.shape[0] > 1:
                Ub = np.broadcast_to(Ub, (X.shape[0], self.m))
            U = Ub
        pieces = self.build_graph(NumpyOps, self._numpy_handles(), X, U,
                                  ablate_projection=ablate_projection,
                                  origin=self._origin_offsets())
        out = pieces["fstar_star"] if U is None else pieces["fstar_data"]
        if not np.all(np.isfinite(out)):
            for key in ("v", "grad_v", "fhat_star", "resid"):
                if not np.all(np.isfinite(pieces[key])):
                    raise FloatingPointError(
                        f"non-finite intermediate {key!r} in model evaluation")
            raise FloatingPointError("non-finite model output")
        pieces["single"] = single
        return pieces

    def controller(self, x):
        """Feedback control u*(x), strictly inside the control box."""
        pieces = self.eval_pieces(x)
        u = pieces["u_star"]
        return u[0] if pieces["single"] else u

    def eval_parts(self, X, parts):
        """Only the named pieces of the numpy graph on a prevalidated (B, n)
        batch, as a dict holding just those names.

        ``parts`` names pieces from {"u_star", "v", "grad_v"}; each is built by
        the node builders of :meth:`build_graph`, so values are bit-identical
        to :meth:`eval_pieces`.  V alone runs the value half of gv; gradV adds
        the gradient half; u* runs gu in general mode and gv, gradV and gf2 in
        affine mode.  A non-finite piece raises FloatingPointError naming it.
        """
        parts = set(parts)
        unknown = parts - {"u_star", "v", "grad_v"}
        if unknown:
            raise ValueError(f"eval_parts evaluates only u_star, v and grad_v, "
                             f"not {sorted(unknown)}")
        ops, handles = NumpyOps, self._numpy_handles()
        u_lim_row = self.hyper.u_lim[None, :]
        pieces = {}
        lyapunov = set(parts)  # the pieces that need gv
        if "u_star" in parts and self.mode == "general":
            pieces["u_star"] = self._general_controller(ops, handles, X, u_lim_row)
            lyapunov.discard("u_star")
        if lyapunov:
            gv_0 = self._origin_offsets()["gv_0"]
            value, cache = self._lyapunov_value_nodes(ops, handles, X, None, gv_0)
            pieces["v"] = value["v"]
            if lyapunov != {"v"}:
                pieces["grad_v"] = self._lyapunov_grad_node(ops, handles, X,
                                                            value["w"], cache)
            if "u_star" in lyapunov:
                f2 = self._f2_nodes(ops, handles, X)
                _, pieces["u_star"] = self._bang_bang(ops, pieces["grad_v"], f2, u_lim_row)
        out = {}
        for name in sorted(parts):
            if not np.all(np.isfinite(pieces[name])):
                raise FloatingPointError(f"non-finite {name!r} in model evaluation")
            out[name] = pieces[name]
        return out

    def controller_batch(self, X):
        """u* on a prevalidated (B, n) batch: gu in general mode; gv, gradV,
        gf2 and the sign in affine mode.  Neither mode evaluates the nominal
        dynamics or the projection."""
        return self.eval_parts(X, ("u_star",))["u_star"]

    def lyapunov_batch(self, X):
        """V on a prevalidated (B, n) batch without the gradient chain."""
        return self.eval_parts(X, ("v",))["v"][:, 0]

    def lyapunov_grad_batch(self, X):
        """gradV on a prevalidated (B, n) batch, without controller or dynamics."""
        return self.eval_parts(X, ("grad_v",))["grad_v"]

    def nominal(self, x, u):
        """Nominal dynamics fhat(x, u) with the equilibrium shift applied."""
        pieces = self.eval_pieces(x, u)
        out = pieces["fhat_data"]
        return out[0] if pieces["single"] else out

    def lyapunov(self, x):
        """V(x) >= eps_pd*||x||^2, zero exactly at the origin."""
        pieces = self.eval_pieces(x)
        v = pieces["v"][:, 0]
        return float(v[0]) if pieces["single"] else v

    def lyapunov_grad(self, x):
        pieces = self.eval_pieces(x)
        g = pieces["grad_v"]
        return g[0] if pieces["single"] else g

    def project(self, x, u, ablate_projection=False):
        """Projected dynamics f*(x, u); reduces to fhat when the decrease
        condition already holds at (x, u*(x))."""
        pieces = self.eval_pieces(x, u, ablate_projection=ablate_projection)
        out = pieces["fstar_data"]
        return out[0] if pieces["single"] else out

    def closed_loop(self, x, ablate_projection=False):
        """f*(x, u*(x)) — the learned closed-loop vector field."""
        pieces = self.eval_pieces(x, ablate_projection=ablate_projection)
        out = pieces["fstar_star"]
        return out[0] if pieces["single"] else out
