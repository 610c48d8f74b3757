"""Dataset generation, the kernel-weighted regression loss, the mini-batch
Adam loop with global-norm gradient clipping, and checkpoint / dataset I/O.

The loss over a batch is

    mean_i  k(u_i, u*(x_i)) * ||xdot_i - f*(x_i, u_i)||^2  +  lam * ||theta||^2

with kernel k(u, u') = 1 + exp(-beta ||u - u'||^2).  Gradients flow through
the projected model, the controller (including through the kernel argument
and the projection's u*(x) term), and the Lyapunov function.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import NumpyOps, Tape, param_gradient
from .models import Hyper, StableDynamicsModel
from .sim import _write_csv

CHECKPOINT_VERSION = 2
# format 1 lacks the optional ``system`` and ``optimizer`` entries
READABLE_VERSIONS = (1, 2)
LOSS_CHUNK = 20000  # rows per loss_value evaluation


class TrainingDivergedError(RuntimeError):
    """Loss blew past the divergence guard during training."""


class CheckpointError(ValueError):
    pass


class CheckpointFormatError(CheckpointError):
    """File is not a well-formed checkpoint document."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class CheckpointShapeError(CheckpointError):
    """Stored parameter arrays disagree with the declared dims."""


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Tuples (x, u, xdot) as row-aligned arrays, plus provenance metadata."""

    X: np.ndarray
    U: np.ndarray
    Xdot: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.U = np.asarray(self.U, dtype=np.float64)
        self.Xdot = np.asarray(self.Xdot, dtype=np.float64)
        if not (self.X.ndim == self.U.ndim == self.Xdot.ndim == 2):
            raise ValueError("dataset arrays must be 2-D")
        if not (len(self.X) == len(self.U) == len(self.Xdot)):
            raise ValueError("dataset arrays must have equal length")
        if self.X.shape[1] != self.Xdot.shape[1]:
            raise ValueError("state and state-derivative dims differ")
        for name, arr in (("X", self.X), ("U", self.U), ("Xdot", self.Xdot)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in dataset {name}")

    def __len__(self):
        return len(self.X)

    def subset(self, idx):
        return Dataset(self.X[idx], self.U[idx], self.Xdot[idx], dict(self.meta))


def sample_dataset(system, hyper, n, seed):
    """Uniform i.i.d. samples over the state and control boxes.

    State derivatives are evaluated exactly through the true system; the
    draw is deterministic per seed.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    X = rng.uniform(hyper.x_lb, hyper.x_ub, size=(n, hyper.n))
    U = rng.uniform(-hyper.u_lim, hyper.u_lim, size=(n, hyper.m))
    Xdot = system.dynamics(X, U)
    meta = {
        "system": system.name, "seed": int(seed), "n": int(n),
        "x_lb": hyper.x_lb.tolist(), "x_ub": hyper.x_ub.tolist(),
        "u_lim": hyper.u_lim.tolist(),
    }
    return Dataset(X, U, Xdot, meta)


def export_dataset_csv(dataset, path, meta_path=None, comment=None):
    """Write `x1..xn,u1..um,xdot1..xdotn` rows with 17 significant digits."""
    n, m = dataset.X.shape[1], dataset.U.shape[1]
    names = ([f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(m)]
             + [f"xdot{i + 1}" for i in range(n)])
    _write_csv(path, names, np.hstack((dataset.X, dataset.U, dataset.Xdot)), comment)
    if meta_path is not None:
        with open(meta_path, "w") as fh:
            json.dump(dataset.meta, fh, indent=2)
            fh.write("\n")


def import_dataset_csv(path):
    """The rows :func:`export_dataset_csv` wrote, with empty provenance."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    n = sum(1 for c in names if c.startswith("x") and not c.startswith("xdot"))
    m = sum(1 for c in names if c.startswith("u"))
    body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return Dataset(body[:, :n], body[:, n:n + m], body[:, n + m:])


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def _loss_node(ops, model, handles, X, U, Xdot):
    hp = model.hyper
    pieces = model.build_graph(ops, handles, X, U)
    diff = ops.sub(Xdot, pieces["fstar_data"])
    sq = ops.row_sum(ops.mul(diff, diff))
    udiff = ops.sub(U, pieces["u_star"])
    kern = ops.add_scalar(
        ops.exp(ops.scale(ops.row_sum(ops.mul(udiff, udiff)), -hp.beta)), 1.0)
    loss = ops.mean_all(ops.mul(kern, sq))
    if hp.lam != 0.0:
        reg = None
        for pair in handles.values():
            for w, b in pair:
                for h in (w, b):
                    term = ops.sum_all(ops.mul(h, h))
                    reg = term if reg is None else ops.add(reg, term)
        loss = ops.add(loss, ops.scale(reg, hp.lam))
    return loss


@dataclass
class LossGraph:
    """A recorded loss evaluation: scalar value plus its parameter gradient."""

    tape: Tape
    output: object
    leaves: list
    layout: object
    value: float

    def param_gradient(self):
        return param_gradient(self.tape, self.output, self.leaves, self.layout)


def loss(model, batch):
    """Record the full loss graph for a dataset slice."""
    if len(batch) == 0:
        raise ValueError("loss of an empty batch")
    tape = Tape()
    handles = model.param_handles(tape)
    X = tape.constant(batch.X)
    U = tape.constant(batch.U)
    Xdot = tape.constant(batch.Xdot)
    out = _loss_node(tape, model, handles, X, U, Xdot)
    value = float(out.value)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite training loss")
    return LossGraph(tape, out, model.leaf_blocks(handles), model.layout, value)


def loss_value(model, batch):
    """Loss of a dataset slice without recording a tape."""
    if len(batch) == 0:
        raise ValueError("loss of an empty batch")
    handles = model.numpy_cache()[0]
    total = 0.0
    for start in range(0, len(batch), LOSS_CHUNK):
        sl = slice(start, min(start + LOSS_CHUNK, len(batch)))
        part = _loss_node(NumpyOps, model, handles,
                          batch.X[sl], batch.U[sl], batch.Xdot[sl])
        total += float(part) * (sl.stop - sl.start)
    value = total / len(batch)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite loss value")
    return value


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 12
    clip_norm: float = 1.0
    seed: int = 0
    holdout: float = 0.1

    def __post_init__(self):
        # each message starts with the field's name; NaN fails every range
        if not self.lr >= 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if not 0.0 <= self.holdout < 1.0:
            raise ValueError(f"holdout must be in [0, 1), got {self.holdout}")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's moment estimates and step count, and the epochs trained so far:
    what a resumed :func:`train` needs to continue an earlier run exactly."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    epochs: int = 0

    def __post_init__(self):
        self._scratch = np.empty_like(self.m)

    @classmethod
    def zeros(cls, size):
        return cls(np.zeros(size), np.zeros(size))


def adam_step(theta, grad, state, lr):
    """One bias-corrected Adam step (Kingma & Ba, ICLR 2015) on ``theta``,
    in place, as are the updates of ``state``'s moments:

        theta -= lr * m_hat / (sqrt(v_hat) + eps)
    """
    state.step += 1
    m, v, buf = state.m, state.v, state._scratch
    np.multiply(grad, 1.0 - ADAM_BETA1, out=buf)
    m *= ADAM_BETA1
    m += buf
    np.multiply(grad, grad, out=buf)
    buf *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += buf
    np.sqrt(v, out=buf)
    buf /= math.sqrt(1.0 - ADAM_BETA2 ** state.step)
    buf += ADAM_EPS
    np.divide(m, buf, out=buf)
    buf *= lr / (1.0 - ADAM_BETA1 ** state.step)
    theta -= buf


@dataclass
class TrainResult:
    """Per-epoch losses and gradient telemetry, and the optimizer state."""

    model: StableDynamicsModel
    train_losses: list
    holdout_losses: list
    initial_loss: float
    grad_norm_max: list  # largest pre-clip gradient norm of each epoch
    clip_frac: list      # fraction of each epoch's steps that were clipped
    optimizer: AdamState


DIVERGENCE_FACTOR = 1e6


def train(model, dataset, config, state=None):
    """Mini-batch Adam on the globally norm-clipped gradient; mutates
    ``model`` in place.

    The default ``lr`` of 1e-3 was measured against 3e-4 and 3e-3 on vdp,
    in both model modes: 3e-4 converges more slowly, and 3e-3, while lower
    after 8 epochs on 40k samples, sent the holdout loss of the default
    100k-sample run back up to 0.16 and 0.12 on two of 3 seeds and ended
    it higher (median 0.015 against 0.008 after 12 epochs).  Global-norm
    clipping is kept as the guard it was under SGD: it
    bounds what one batch feeds into Adam's moments, and first-epoch
    gradient norms reach 17-60.  At ``clip_norm`` 1.0 it clips most
    general-mode steps; the result's per-epoch ``grad_norm_max`` and
    ``clip_frac`` show how often.

    ``state`` continues an earlier run: Adam resumes from its moments and
    step count, and the batch orders of the ``state.epochs`` epochs already
    trained are drawn and skipped, so a run resumed on the same data and
    config repeats the uninterrupted one bit for bit.  Per-epoch train
    losses are means of the batch losses seen during the epoch; holdout
    losses are evaluated at epoch end on a fixed split.  Deterministic per
    config seed at a fixed BLAS thread count; the thread count changes the
    rounding of the matrix products, and so the trajectory.
    """
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(dataset))
    n_hold = int(round(config.holdout * len(dataset)))
    hold = dataset.subset(perm[:n_hold]) if n_hold else None
    work = dataset.subset(perm[n_hold:])
    if len(work) == 0:
        raise ValueError("holdout fraction leaves no training samples")
    if state is None:
        state = AdamState.zeros(model.layout.size)
    elif state.m.shape != (model.layout.size,):
        raise ValueError(f"optimizer state has {state.m.size} entries, "
                         f"the model {model.layout.size} parameters")
    for _done in range(state.epochs):
        rng.permutation(len(work))

    theta = model.get_params()
    train_losses, holdout_losses, grad_norm_max, clip_frac = [], [], [], []
    initial = None
    for _epoch in range(config.epochs):
        order = rng.permutation(len(work))
        batch_losses, norms = [], []
        for start in range(0, len(work), config.batch_size):
            batch = work.subset(order[start:start + config.batch_size])
            graph = loss(model, batch)
            if initial is None:
                initial = graph.value
            if graph.value > DIVERGENCE_FACTOR * max(initial, 1e-300):
                raise TrainingDivergedError(
                    f"batch loss {graph.value:.3e} exceeds {DIVERGENCE_FACTOR:.0e} x "
                    f"initial loss {initial:.3e}")
            grad = graph.param_gradient()
            norm = float(np.linalg.norm(grad))
            if norm > config.clip_norm:
                grad *= config.clip_norm / norm
            adam_step(theta, grad, state, config.lr)
            model.set_params(theta)
            batch_losses.append(graph.value)
            norms.append(norm)
        state.epochs += 1
        train_losses.append(float(np.mean(batch_losses)))
        grad_norm_max.append(max(norms))
        clip_frac.append(sum(nm > config.clip_norm for nm in norms) / len(norms))
        holdout_losses.append(loss_value(model, hold) if hold is not None else float("nan"))
    if initial is None:  # zero epochs: still report the starting loss
        initial = loss_value(model, work)
    return TrainResult(model, train_losses, holdout_losses, initial,
                       grad_norm_max, clip_frac, state)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _encode_floats(vec):
    """Base64 of little-endian float64 bytes: exact, and far cheaper to write
    and parse than a JSON list of 30-50k float reprs."""
    return base64.b64encode(np.asarray(vec, dtype="<f8").tobytes()).decode("ascii")


def _decode_floats(text, size, what):
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"optimizer {what}: {exc}") from exc
    if len(raw) != 8 * size:
        raise CheckpointShapeError(
            f"optimizer {what} holds {len(raw) // 8} values, the model {size} parameters")
    vec = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(vec)):
        raise CheckpointFormatError(f"optimizer {what} has non-finite entries")
    return vec


def save_checkpoint(model, path, *, system=None, optimizer=None):
    """Single JSON document; floats round-trip exactly via shortest repr.

    ``system`` names the plant the model was trained on, and ``optimizer``
    is the :class:`AdamState` a resumed run continues from; either may be
    left out, and :func:`load_checkpoint` then reports None for it.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "mode": model.mode,
        "hyper": model.hyper.to_dict(),
        "networks": {
            name: {
                "dims": net.dims,
                "activations": list(net.activations),
                "srelu_width": net.srelu_width,
                "weights": [w.tolist() for w in net.weights],
                "biases": [b.tolist() for b in net.biases],
            }
            for name, net in model.nets.items()
        },
    }
    if system is not None:
        doc["system"] = system
    if optimizer is not None:
        doc["optimizer"] = {"step": optimizer.step, "epochs": optimizer.epochs,
                            "m": _encode_floats(optimizer.m),
                            "v": _encode_floats(optimizer.v)}
    # one line: any ``indent`` selects json's pure-Python encoder, while
    # dumps without one runs the C encoder, with the same float repr
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def _optimizer_state(spec, size):
    try:
        step, epochs = spec["step"], spec["epochs"]
        m, v = spec["m"], spec["v"]
    except (KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"optimizer state malformed: {exc}") from exc
    for name, count in (("step", step), ("epochs", epochs)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise CheckpointFormatError(
                f"optimizer {name} must be a nonnegative integer, got {count!r}")
    v = _decode_floats(v, size, "v")
    if np.any(v < 0):
        raise CheckpointFormatError("optimizer v has negative entries")
    return AdamState(_decode_floats(m, size, "m"), v, step, epochs)


def load_checkpoint(path):
    """The checkpoint's ``(model, system, optimizer)``, with None for a system
    or optimizer state it did not record.  A network that contradicts its
    role in :data:`models.NETWORKS` raises CheckpointFormatError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"malformed checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointFormatError(f"{path} is not a checkpoint document")
    if doc["format_version"] not in READABLE_VERSIONS:
        raise CheckpointVersionError(
            f"checkpoint version {doc['format_version']!r}, expected one of "
            f"{READABLE_VERSIONS}")
    try:
        mode = doc["mode"]
        hyper = Hyper.from_dict(doc["hyper"])
        raw_nets = doc["networks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"checkpoint {path} missing fields: {exc}") from exc

    nets = {}
    for name, spec in raw_nets.items():
        try:
            dims = [int(d) for d in spec["dims"]]
            acts = list(spec["activations"])
            width = float(spec["srelu_width"])
            weights = [np.asarray(w, dtype=np.float64) for w in spec["weights"]]
            biases = [np.asarray(b, dtype=np.float64) for b in spec["biases"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"network {name!r} malformed: {exc}") from exc
        expected = [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
        got = [w.shape for w in weights]
        if got != expected or [b.shape for b in biases] != [(d,) for d in dims[1:]]:
            raise CheckpointShapeError(
                f"network {name!r}: stored arrays {got} do not match dims {dims}")
        try:
            nets[name] = dc.Network(weights, biases, acts, srelu_width=width)
        except ValueError as exc:
            raise CheckpointShapeError(f"network {name!r}: {exc}") from exc
    try:
        model = StableDynamicsModel(nets, hyper, mode)
    except ValueError as exc:
        raise CheckpointFormatError(f"checkpoint {path}: {exc}") from exc
    system = doc.get("system")
    if system is not None and not isinstance(system, str):
        raise CheckpointFormatError(f"checkpoint {path}: system must be a name, got {system!r}")
    optimizer = doc.get("optimizer")
    if optimizer is not None:
        optimizer = _optimizer_state(optimizer, model.layout.size)
    return model, system, optimizer
