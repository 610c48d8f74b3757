"""Dataset generation, the kernel-weighted regression loss, the mini-batch
SGD loop with global-norm gradient clipping, and checkpoint / dataset I/O.

The loss over a batch is

    mean_i  k(u_i, u*(x_i)) * ||xdot_i - f*(x_i, u_i)||^2  +  lam * ||theta||^2

with kernel k(u, u') = 1 + exp(-beta ||u - u'||^2).  Gradients flow through
the projected model, the controller (including through the kernel argument
and the projection's u*(x) term), and the Lyapunov function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import NumpyOps, Tape, param_gradient
from .models import Hyper, StableDynamicsModel
from .sim import _write_csv

CHECKPOINT_VERSION = 1


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


def import_dataset_csv(path, meta_path=None):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    n = sum(1 for c in names if c.startswith("x") and not c.startswith("xdot"))
    m = sum(1 for c in names if c.startswith("u"))
    body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    meta = {}
    if meta_path is not None:
        with open(meta_path) as fh:
            meta = json.load(fh)
    return Dataset(body[:, :n], body[:, n:n + m], body[:, n + m:], meta)


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


def loss_value(model, batch, chunk=20000):
    """Loss of a dataset slice without recording a tape."""
    if len(batch) == 0:
        raise ValueError("loss of an empty batch")
    handles = model.numpy_cache()[0]
    total = 0.0
    for start in range(0, len(batch), chunk):
        sl = slice(start, min(start + chunk, len(batch)))
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
    lr: float = 1e-4
    batch_size: int = 256
    epochs: int = 200
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


@dataclass
class TrainResult:
    model: StableDynamicsModel
    train_losses: list
    holdout_losses: list
    initial_loss: float


DIVERGENCE_FACTOR = 1e6


def train(model, dataset, config):
    """Mini-batch SGD with global-norm clipping; mutates ``model`` in place.

    Per-epoch train losses are means of the batch losses seen during the
    epoch; holdout losses are evaluated at epoch end on a fixed split.
    Fully deterministic per config seed.
    """
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(dataset))
    n_hold = int(round(config.holdout * len(dataset)))
    hold = dataset.subset(perm[:n_hold]) if n_hold else None
    work = dataset.subset(perm[n_hold:])
    if len(work) == 0:
        raise ValueError("holdout fraction leaves no training samples")

    train_losses, holdout_losses = [], []
    initial = None
    for _epoch in range(config.epochs):
        order = rng.permutation(len(work))
        batch_losses = []
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
                grad = grad * (config.clip_norm / norm)
            if config.lr != 0.0:
                model.set_params(model.get_params() - config.lr * grad)
            batch_losses.append(graph.value)
        train_losses.append(float(np.mean(batch_losses)))
        holdout_losses.append(loss_value(model, hold) if hold is not None else float("nan"))
    if initial is None:  # zero epochs: still report the starting loss
        initial = loss_value(model, work)
    return TrainResult(model, train_losses, holdout_losses, initial)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model, path):
    """Single JSON document; floats round-trip exactly via shortest repr."""
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
    # one line: any ``indent`` selects json's pure-Python encoder, while
    # dumps without one runs the C encoder, with the same float repr
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_checkpoint(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"malformed checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointFormatError(f"{path} is not a checkpoint document")
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {doc['format_version']!r}, expected {CHECKPOINT_VERSION}")
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
        return StableDynamicsModel(nets, hyper, mode)
    except ValueError as exc:
        raise CheckpointFormatError(f"checkpoint {path}: {exc}") from exc
