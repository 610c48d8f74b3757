import numpy as np
import pytest

from stabledyn.diffcore import NumpyOps, net_apply
from stabledyn.models import NETWORKS, Hyper, StableDynamicsModel
from stabledyn import systems


SMALL_WIDTHS = {"gf": 12, "gu": 8, "gv": 8, "gf1": 10, "gf2": 10}


@pytest.fixture
def vdp_system():
    return systems.get_system("vdp")


@pytest.fixture
def vdp_hyper(vdp_system):
    return Hyper.for_system(vdp_system)


@pytest.fixture
def small_model(vdp_hyper):
    """A general-mode model small enough for finite-difference sweeps."""
    return StableDynamicsModel.initialize(vdp_hyper, seed=11, widths=SMALL_WIDTHS)


def make_model(hyper, seed=0, mode="general", small=True):
    widths = SMALL_WIDTHS if small else None
    return StableDynamicsModel.initialize(hyper, seed=seed, mode=mode, widths=widths)


def model_from_networks(hyper, nets, mode="general"):
    """The model whose networks hold the weights and biases of ``nets``,
    flattened in :data:`NETWORKS` order; each network's activations and
    smoothed-ReLU width come from its role and ``hyper.d``."""
    names = [role.name for role in NETWORKS[mode]]
    params = [a.ravel() for name in names
              for wb in zip(nets[name].weights, nets[name].biases) for a in wb]
    return StableDynamicsModel(hyper, mode, {name: nets[name].dims for name in names},
                               np.concatenate(params))


def apply_net(net, X):
    """Output and layer cache of ``net`` on a (B, in) batch, numpy backend."""
    return net_apply(NumpyOps, list(zip(net.weights, net.biases)), net.activations,
                     net.srelu_width, np.asarray(X, dtype=np.float64))


def jitter_params(model, rng, scale=0.05):
    """Random offset on every parameter so no preactivation sits on a seam.

    Freshly initialized networks have all-zero biases, which parks every
    smoothed-ReLU preactivation of the origin evaluation exactly on its
    seam; finite differences are one-sided there while the analytic
    derivative is the true two-sided one.
    """
    theta = model.get_params()
    model.set_params(theta + rng.uniform(-scale, scale, theta.size))
    return model


def net_slices(model):
    """Each network's slice of the model's parameter vector."""
    slices, start = {}, 0
    for name, net in model.nets.items():
        size = sum(a.size for a in net.weights + net.biases)
        slices[name] = slice(start, start + size)
        start += size
    return slices


def fill_output_layer(model, name, weight=None, bias=None):
    """Set every output-layer weight of network ``name`` to ``weight`` and
    every output bias to ``bias`` (None keeps them), through set_params."""
    theta, net = model.get_params(), model.nets[name]
    stop = net_slices(model)[name].stop  # the output layer's W, then b, end it
    mid = stop - net.biases[-1].size
    if weight is not None:
        theta[mid - net.weights[-1].size:mid] = weight
    if bias is not None:
        theta[mid:stop] = bias
    model.set_params(theta)
    return model


def seam_margins(model, X, U=None):
    """Smallest distance of any seam-sensitive quantity from its seam."""
    pieces = model.eval_pieces(X, U)
    hp = model.hyper
    margins = []
    for name, net in model.nets.items():
        inputs = {"gv": X, "gu": X, "gf1": X, "gf2": X}.get(name)
        if inputs is None:  # gf consumes (x, u*) and optionally (x, u)
            inputs = np.hstack((X, pieces["u_star"]))
        _, cache = apply_net(net, inputs)
        for (z, _a), act in zip(cache, net.activations):
            if act == "smoothed_relu":
                margins.append(np.min(np.abs(z)))
                margins.append(np.min(np.abs(z - net.srelu_width)))
    margins.append(np.min(np.abs(pieces["w"])))
    margins.append(np.min(np.abs(pieces["w"] - hp.d)))
    margins.append(np.min(np.abs(pieces["resid"])))
    gn2 = np.sum(pieces["grad_v"] ** 2, axis=1)
    margins.append(np.min(np.abs(gn2 - hp.eps_proj)))
    return float(min(margins))
