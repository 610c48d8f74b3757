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
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diffcore import NumpyOps, Tape, param_gradient
from .models import Hyper, StableDynamicsModel, parameter_count, row_blocks
from .sim import _write_csv

CHECKPOINT_VERSION = 3


class TrainingDivergedError(FloatingPointError):
    """Loss blew past the divergence guard during training."""


class CheckpointError(ValueError):
    """A checkpoint file that is not well formed, is not format 3, or whose
    networks or parameters do not fit its mode and hyperparameters."""


class DatasetError(ValueError):
    """A dataset file that is not the table :func:`export_dataset_csv`
    writes, or does not fit the run's system."""


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


def _dataset_columns(n, m):
    return ([f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(m)]
            + [f"xdot{i + 1}" for i in range(n)])


def export_dataset_csv(dataset, path, meta_path=None, comment=None):
    """Write `x1..xn,u1..um,xdot1..xdotn` rows with 17 significant digits."""
    names = _dataset_columns(dataset.X.shape[1], dataset.U.shape[1])
    _write_csv(path, names, np.hstack((dataset.X, dataset.U, dataset.Xdot)), comment)
    if meta_path is not None:
        with open(meta_path, "w") as fh:
            json.dump(dataset.meta, fh, indent=2)
            fh.write("\n")


def import_dataset_csv(path):
    """The rows :func:`export_dataset_csv` wrote, with empty provenance.

    Any other file raises :class:`DatasetError` naming ``path`` and the
    fault: text that does not decode, a header other than
    ``x1..xn,u1..um,xdot1..xdotn``, no rows, or the first line that is not a
    row of that many finite numbers.  Blank lines and lines starting with
    ``#`` are skipped.  The rows stream from the open file into
    ``np.loadtxt``, so the memory used beyond the returned arrays does not
    grow with the file; only a file with a bad row is read a second time,
    to find that row's line number.
    """
    try:
        with open(path) as fh:
            names = next(filter(_is_content, fh), "").strip().split(",")
            n = sum(1 for c in names if c.startswith("x") and not c.startswith("xdot"))
            m = sum(1 for c in names if c.startswith("u"))
            if names != _dataset_columns(n, m):
                raise DatasetError(f"{path}: header {','.join(names)!r} is not "
                                   f"x1..xn,u1..um,xdot1..xdotn")
            first = next(filter(_is_content, fh), "")
            if not first:
                raise DatasetError(f"{path}: no data rows")
            try:
                # loadtxt skips the "#" lines itself, but not whitespace-only ones
                body = np.loadtxt(itertools.chain([first], filter(str.strip, fh)),
                                  delimiter=",", ndmin=2)
            except UnicodeDecodeError:  # a ValueError too, but no bad row
                raise
            except ValueError:
                body = None
        if body is None or body.shape[1] != len(names) or not np.all(np.isfinite(body)):
            i, line = _first_bad_row(path, len(names))
            raise DatasetError(f"{path} line {i}: expected {len(names)} finite numbers, "
                               f"got {line.strip()!r}")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not readable as text: {exc}") from None
    return Dataset(body[:, :n], body[:, n:n + m], body[:, n + m:])


def _is_content(line):
    """Neither blank nor a ``#`` comment."""
    return bool(line.strip()) and not line.startswith("#")


def _first_bad_row(path, width):
    """Line number and text of the first data row of ``path`` that is not
    ``width`` finite numbers, or of its first data row if none is."""
    with open(path) as fh:
        rows = ((i, ln) for i, ln in enumerate(fh, 1) if _is_content(ln))
        next(rows)  # the header
        first = next(rows)
        return next(((i, ln) for i, ln in itertools.chain([first], rows)
                     if not _is_row(ln, width)), first)


def _is_row(line, width):
    try:
        cells = [float(c) for c in line.split(",")]
    except ValueError:
        return False
    return len(cells) == width and all(map(math.isfinite, cells))


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
    """A recorded loss evaluation: scalar value plus its parameter gradient.

    The parameter leaves are the model's read-only views of its parameter
    vector, which :meth:`StableDynamicsModel.set_params` alone overwrites in
    place, so take the gradient before the model's next ``set_params``.
    """

    tape: Tape
    output: object
    leaves: list  # the parameter leaves, in parameter-vector order
    value: float

    def param_gradient(self):
        return param_gradient(self.tape, self.output, self.leaves)


def loss(model, batch):
    """Record the full loss graph for a dataset slice."""
    if len(batch) == 0:
        raise ValueError("loss of an empty batch")
    tape = Tape()
    handles = {name: [(tape.leaf(w), tape.leaf(b)) for w, b in pairs]
               for name, pairs in model.layers.items()}
    X = tape.constant(batch.X)
    U = tape.constant(batch.U)
    Xdot = tape.constant(batch.Xdot)
    out = _loss_node(tape, model, handles, X, U, Xdot)
    value = float(out.value)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite training loss")
    leaves = [h for pairs in handles.values() for pair in pairs for h in pair]
    return LossGraph(tape, out, leaves, value)


def loss_value(model, batch):
    """Loss of a dataset slice without recording a tape, evaluated
    BLOCK_ROWS rows at a time, so its memory does not grow with the slice."""
    if len(batch) == 0:
        raise ValueError("loss of an empty batch")
    total = 0.0
    for sl in row_blocks(len(batch)):
        part = _loss_node(NumpyOps, model, model.layers,
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
        # each message starts with the field's name; bool is not a number
        # here, and NaN fails every range
        for name, kind in (("lr", numbers.Real), ("batch_size", numbers.Integral),
                           ("epochs", numbers.Integral), ("clip_norm", numbers.Real),
                           ("seed", numbers.Integral), ("holdout", numbers.Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if kind is numbers.Integral else "a number"
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if not self.lr >= 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.holdout < 1.0:
            raise ValueError(f"holdout must be in [0, 1), got {self.holdout}")

    def holdout_rows(self, n):
        """How many of a dataset's n rows :func:`train` holds out."""
        return int(round(self.holdout * n))


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


class Epoch(NamedTuple):
    """What one epoch of :func:`train` records; the fields are the columns
    of ``losses.csv``, in order."""

    epoch: int            # the optimizer's epoch count before this epoch
    train_loss: float     # mean of the epoch's batch losses
    holdout_loss: float   # at epoch end; NaN without a holdout split
    grad_norm_max: float  # largest pre-clip gradient norm
    clip_frac: float      # fraction of the epoch's steps that were clipped


@dataclass
class TrainResult:
    """One :class:`Epoch` per epoch trained, and the optimizer state."""

    history: list
    initial_loss: float
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
    general-mode steps; each epoch's ``grad_norm_max`` and ``clip_frac``
    show how often.

    ``state`` continues an earlier run: Adam resumes from its moments and
    step count, and the batch orders of the ``state.epochs`` epochs already
    trained are drawn and skipped, so a run resumed on the same data and
    config repeats the uninterrupted one bit for bit.  Each epoch is
    numbered by the optimizer's count of the epochs before it: from 0 in a
    fresh run or one resumed without a ``state``, and from ``state.epochs``
    in a resumed run, whatever file its row is written to.  Per-epoch train
    losses are means of the batch losses seen during the epoch; holdout
    losses are evaluated at epoch end on a fixed split.  Deterministic per
    config seed at a fixed BLAS thread count; the thread count changes the
    rounding of the matrix products, and so the trajectory.
    """
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(dataset))
    n_hold = config.holdout_rows(len(dataset))
    hold = dataset.subset(perm[:n_hold]) if n_hold else None
    work = dataset.subset(perm[n_hold:])
    if len(work) == 0:
        raise ValueError("holdout fraction leaves no training samples")
    theta = model.get_params()
    if state is None:
        state = AdamState.zeros(theta.size)
    elif state.m.shape != theta.shape:
        raise ValueError(f"optimizer state has {state.m.size} entries, "
                         f"the model {theta.size} parameters")
    for _done in range(state.epochs):
        rng.permutation(len(work))

    history = []
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
        history.append(Epoch(
            epoch=state.epochs,
            train_loss=float(np.mean(batch_losses)),
            holdout_loss=loss_value(model, hold) if hold is not None else float("nan"),
            grad_norm_max=max(norms),
            clip_frac=sum(nm > config.clip_norm for nm in norms) / len(norms)))
        state.epochs += 1
    if initial is None:  # zero epochs: still report the starting loss
        initial = loss_value(model, work)
    return TrainResult(history, initial, state)


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
        raise CheckpointError(f"{what}: {exc}") from exc
    if len(raw) != 8 * size:
        raise CheckpointError(
            f"{what} holds {len(raw) // 8} values, the model {size} parameters")
    vec = np.frombuffer(raw, dtype="<f8")  # read-only: its callers copy it
    if not np.all(np.isfinite(vec)):
        raise CheckpointError(f"{what} has non-finite entries")
    return vec


def save_checkpoint(model, path, *, system=None, optimizer=None):
    """Write checkpoint format 3, one JSON document: the model's ``mode``
    and ``hyper``, each network's layer widths as ``dims``, and the
    parameter vector as ``params``, exact base64 of its float64 bytes.
    Activations and the smoothed-ReLU width follow from each network's role
    and ``hyper.d``, so they are not stored.

    ``system`` names the plant the model was trained on, and ``optimizer``
    is the :class:`AdamState` a resumed run continues from; either may be
    left out, and :func:`load_checkpoint` then reports None for it.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "mode": model.mode,
        "hyper": model.hyper.to_dict(),
        "dims": {name: net.dims for name, net in model.nets.items()},
        "params": _encode_floats(model.get_params()),
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
        raise CheckpointError(f"optimizer state malformed: {exc}") from exc
    for name, count in (("step", step), ("epochs", epochs)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise CheckpointError(
                f"optimizer {name} must be a nonnegative integer, got {count!r}")
    v = _decode_floats(v, size, "optimizer v")
    if np.any(v < 0):
        raise CheckpointError("optimizer v has negative entries")
    return AdamState(_decode_floats(m, size, "optimizer m").copy(), v.copy(), step, epochs)


def load_checkpoint(path):
    """The ``(model, system, optimizer)`` of a format-3 checkpoint, with None
    for a system or optimizer state it did not record.  ``params`` must hold
    the :func:`models.parameter_count` of the stored ``dims``, which is
    checked before any array of the model's size exists.  Any other version,
    or a field that does not fit the mode and ``hyper``, raises
    CheckpointError naming the cause."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointError(f"{path} is not a checkpoint document")
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {doc['format_version']!r}, "
                              f"expected {CHECKPOINT_VERSION}")
    try:
        mode, dims, params = doc["mode"], doc["dims"], doc["params"]
        hyper = Hyper.from_dict(doc["hyper"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} missing or malformed fields: {exc}") from exc
    try:
        size = parameter_count(hyper, mode, dims)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    model = StableDynamicsModel(hyper, mode, dims, _decode_floats(params, size, "parameters"))
    system = doc.get("system")
    if system is not None and not isinstance(system, str):
        raise CheckpointError(f"checkpoint {path}: system must be a name, got {system!r}")
    optimizer = doc.get("optimizer")
    if optimizer is not None:
        optimizer = _optimizer_state(optimizer, size)
    return model, system, optimizer
