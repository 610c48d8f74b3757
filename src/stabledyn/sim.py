"""Fixed-step RK4 integration, closed-loop rollouts, and planar grid exports.

Rollouts integrate the true plant, the learned projected model, or both
from the same starts, always under the learned controller, recording the
control, Lyapunov value, and state norm at every step.  Both plants' rows
step together, tagged by plant, and share one model evaluation per record
step and RK4 stage.  An escape guard truncates trajectories whose norm
exceeds ten domain diameters, and plant domain errors (the bicycle
singularity) truncate with a flag instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import DomainError, SystemSpec

ESCAPE_FACTOR = 10.0


def _write_csv(path, names, body, comment=None):
    """Write an optional comment line, the ``names`` header and the rows of
    the 2-D ``body`` with 17 significant digits, enough to read every float
    back exactly."""
    header = ",".join(names)
    if comment:
        header = comment.rstrip("\n") + "\n" + header
    np.savetxt(path, body, fmt="%.17g", delimiter=",", header=header, comments="")


@dataclass
class Trajectory:
    """A closed-loop rollout on a uniform time grid."""

    times: np.ndarray      # (T+1,)
    states: np.ndarray     # (T+1, n)
    controls: np.ndarray   # (T+1, m)
    v_trace: np.ndarray    # (T+1,)
    norm_trace: np.ndarray  # (T+1,)
    reason: str = ""      # why the rollout stopped early; "" if it ran to T

    def __len__(self):
        return len(self.times)

    def to_csv(self, path, comment=None):
        """Write the trajectory with one comment line, ``comment`` followed by
        the stop reason ("reason=full" for a row that reached T), and one
        header line."""
        stop = f"reason={self.reason or 'full'}"
        comment = f"{comment.rstrip()}; {stop}" if comment else f"# {stop}"
        n = self.states.shape[1]
        m = self.controls.shape[1]
        names = (["t"] + [f"x{i + 1}" for i in range(n)]
                 + [f"u{i + 1}" for i in range(m)] + ["V", "normx"])
        body = np.hstack((self.times[:, None], self.states, self.controls,
                          self.v_trace[:, None], self.norm_trace[:, None]))
        _write_csv(path, names, body, comment)


def rk4_step(field_fn, x, h, k1=None):
    """One classical Runge-Kutta step of the autonomous field ``field_fn``.

    ``k1`` is the first stage when the caller has already evaluated it.
    Each stage and each stage's input state is checked, so a non-finite
    value never reaches ``field_fn``: the step raises FloatingPointError.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    k1 = _finite(field_fn(_finite(x, "stage input")) if k1 is None else k1)
    k2 = _finite(field_fn(_finite(x + 0.5 * h * k1, "stage input")))
    k3 = _finite(field_fn(_finite(x + 0.5 * h * k2, "stage input")))
    k4 = _finite(field_fn(_finite(x + h * k3, "stage input")))
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _finite(k, what="stage"):
    if not np.isfinite(k).all():  # half the cost of np.all(...) at a few rows
        raise FloatingPointError(f"non-finite RK4 {what}")
    return k


def _domain_diameter(hyper):
    return float(np.linalg.norm(hyper.x_ub - hyper.x_lb))


def rollout_many(plant, model, x0s, T=10.0, h=1e-3, *, with_learned=False):
    """Closed-loop rollouts from each row of the (B, n) batch ``x0s`` over
    horizon ``T``; returns one Trajectory per row.  ``plant`` is the ``model``
    itself, for the learned closed loop f*(x, u*(x)), or a :class:`SystemSpec`,
    whose true dynamics run under the learned controller.  With a SystemSpec
    plant, ``with_learned`` adds the learned closed loop from the same starts:
    the result is then the B true-plant trajectories followed by the B
    learned ones.

    Rows are integrated together for speed, each tagged by its plant.  Each
    record step and RK4 stage makes one model call on the stacked rows.
    While a learned row is recorded or stepped, that call is the full graph:
    true rows take its u*, learned rows its f*.  Otherwise the true rows need
    only the partial evaluations: u* and V at a record step, u* at a stage.

    A row that escapes, hits a plant domain error or reaches a non-finite
    stage is frozen and its trajectory truncated at the last valid state,
    with its own cause in ``reason``.  Any other exception from the plant
    propagates.  A non-finite start, or a horizon that rounds to no step or
    to more than a float can count, raises ValueError before any step is
    taken.
    """
    if T <= 0 or h <= 0:
        raise ValueError("need T > 0 and h > 0")
    if not np.isfinite(T / h):
        raise ValueError(f"horizon T = {T} over step h = {h} is not a finite step count")
    steps = int(round(T / h))
    if steps < 1:
        raise ValueError(f"horizon T = {T} rounds to no step of h = {h}")
    x0s = np.asarray(x0s, dtype=np.float64)
    if x0s.ndim != 2 or x0s.shape[1] != model.n:
        raise ValueError(f"start states must be a (B, {model.n}) batch, got shape {x0s.shape}")
    if not np.all(np.isfinite(x0s)):
        raise ValueError("non-finite start state")
    limit = ESCAPE_FACTOR * _domain_diameter(model.hyper)

    true_plant = isinstance(plant, SystemSpec)
    if not true_plant and plant is not model:
        raise ValueError("plant must be the model itself or a SystemSpec")
    if with_learned and not true_plant:
        raise ValueError("with_learned adds the learned closed loop to a SystemSpec plant")
    learned = np.full(len(x0s), not true_plant)  # each row's tag
    if with_learned:
        learned = np.arange(2 * len(x0s)) >= len(x0s)
        x0s = np.vstack((x0s, x0s))
    B, n = x0s.shape

    states = np.empty((steps + 1, B, n))
    controls = np.empty((steps + 1, B, model.m))
    v_trace = np.empty((steps + 1, B))
    active = np.ones(B, dtype=bool)
    end_step = np.full(B, steps, dtype=int)
    reasons = [""] * B

    def closed_loop(X, true_rows, u, fstar):
        """The field on the rows ``X`` from their u* and the f* of every row,
        with the plant's dynamics on ``true_rows``.  ``fstar`` is None when
        every row is a true-plant row."""
        if fstar is None:
            return plant.dynamics(X, u)
        if len(true_rows):
            fstar[true_rows] = plant.dynamics(X[true_rows], u[true_rows])
        return fstar

    def field(X, true_rows):
        if len(true_rows) == len(X):
            return plant.dynamics(X, model.controller_batch(X))
        pieces = model.eval_pieces(X)
        return closed_loop(X, true_rows, pieces["u_star"], pieces["fstar_star"])

    # Recorded states are finite: the starts are checked above and every
    # stepped row is either finite or reset.  The recorded (u*, V) come from
    # one checked pass, so a model fault raises rather than truncating rows.
    X = x0s
    k = 0
    while True:
        if np.any(learned & (end_step >= k)):  # a learned row is recorded
            pieces = model.eval_pieces(X)
            fstar = pieces["fstar_star"]
        else:
            pieces = model.eval_parts(X, ("u_star", "v"))
            fstar = None
        u_rec = pieces["u_star"]
        states[k] = X
        controls[k] = u_rec
        v_trace[k] = pieces["v"][:, 0]
        if k == steps or not np.any(active):
            break
        idx = np.flatnonzero(active)
        Xa = X[idx]
        true_rows = np.flatnonzero(~learned[idx])  # within idx
        causes = {}  # row within idx -> truncation reason
        try:
            k1 = closed_loop(Xa, true_rows, u_rec[idx], None if fstar is None else fstar[idx])
            Xn = rk4_step(lambda Y: field(Y, true_rows), Xa, h, k1=k1)
        except (DomainError, FloatingPointError):
            # isolate offending rows by stepping one at a time
            Xn = Xa.copy()
            for j in range(len(idx)):
                alone = np.flatnonzero(~learned[idx[j:j + 1]])
                try:
                    Xn[j] = rk4_step(lambda Y: field(Y, alone), Xa[j:j + 1], h)[0]
                except DomainError as exc:
                    causes[j] = f"plant domain error: {exc}"
                except FloatingPointError:
                    causes[j] = "non-finite state"
        for j in np.flatnonzero(~np.all(np.isfinite(Xn), axis=1)):
            causes.setdefault(j, "non-finite state")
        for j, cause in causes.items():
            row = idx[j]
            active[row] = False
            end_step[row] = k
            reasons[row] = cause
            Xn[j] = Xa[j]
        newX = X.copy()
        newX[idx] = Xn
        k += 1
        escaped_now = active & (np.linalg.norm(newX, axis=1) > limit)
        for row in np.flatnonzero(escaped_now):
            active[row] = False
            end_step[row] = k  # the exceeding state is recorded, then we stop
            reasons[row] = "escape guard"
        X = newX

    times = np.arange(steps + 1) * h
    out = []
    for b in range(B):
        e = end_step[b]
        out.append(Trajectory(
            times=times[:e + 1].copy(),
            states=states[:e + 1, b].copy(),
            controls=controls[:e + 1, b].copy(),
            v_trace=v_trace[:e + 1, b].copy(),
            norm_trace=np.linalg.norm(states[:e + 1, b], axis=1),
            reason=reasons[b],
        ))
    return out


# ---------------------------------------------------------------------------
# Grid exports
# ---------------------------------------------------------------------------

@dataclass
class FieldGrid:
    """Values of a planar field or scalar on a regular node grid.

    ``values[i, j]`` belongs to the node (xs[i], ys[j]); vector fields carry
    a trailing component axis.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    kind: str

    def to_csv(self, path, comment=None):
        cols = ["x1", "x2"]
        if self.values.ndim == 3:
            cols += [f"f{i + 1}" for i in range(self.values.shape[2])]
        else:
            cols += ["value"]
        XX, YY = np.meshgrid(self.xs, self.ys, indexing="ij")
        body = np.column_stack((XX.ravel(), YY.ravel(),
                                self.values.reshape(XX.size, -1)))
        _write_csv(path, cols, body, comment)


def export_field(model, resolution):
    """The model's four planar grids on the state box (planar only), all read
    from one evaluation of the model on the grid.

    Returns ``{kind: FieldGrid}`` for the kinds "fhat", "fstar", "gv" and
    "v", in that order: the nominal and projected closed-loop fields
    fhat(x, u*(x)) and f*(x, u*(x)), the Lyapunov network's raw term
    v_cap (gv(x) - gv(0)), and the Lyapunov value V(x).
    """
    if model.n != 2:
        raise ValueError(f"grid export needs a planar state space, n={model.n}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    hp = model.hyper
    xs = np.linspace(hp.x_lb[0], hp.x_ub[0], resolution)
    ys = np.linspace(hp.x_lb[1], hp.x_ub[1], resolution)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    pieces = model.eval_pieces(np.column_stack((XX.ravel(), YY.ravel())))
    values = {"fhat": pieces["fhat_star"], "fstar": pieces["fstar_star"],
              "gv": pieces["w"][:, 0], "v": pieces["v"][:, 0]}
    return {kind: FieldGrid(xs, ys, vals.reshape((resolution, resolution) + vals.shape[1:]),
                            kind)
            for kind, vals in values.items()}
