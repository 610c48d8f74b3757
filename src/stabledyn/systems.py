"""Ground-truth benchmark dynamics: Van der Pol, inverted pendulum, bicycle.

All three are pure functions of (state, control) and evaluate in closed
form, batched over rows.  They supply training data and serve as the true
plant in closed-loop evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """State/control outside the region where the dynamics are defined."""


def _batch(x, u, n, m):
    X = np.asarray(x, dtype=np.float64)
    U = np.asarray(u, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n or U.shape != (X.shape[0], m):
        raise ValueError(f"expected state (B,{n}) and control (B,{m}), "
                         f"got {X.shape} and {U.shape}")
    return X, U


def vdp(x, u, mu=1.0):
    """Controlled Van der Pol oscillator: z'' = u - z + mu*(1 - z^2)*z'."""
    X, U = _batch(x, u, 2, 1)
    z, zdot = X[:, 0], X[:, 1]
    return np.stack([zdot, U[:, 0] - z + mu * (1.0 - z * z) * zdot], axis=1)


def pendulum(x, u, m=0.15, g=9.81, l=0.5, b=0.1):
    """Torque-driven pendulum; angle measured from the inverted position."""
    X, U = _batch(x, u, 2, 1)
    theta, thetadot = X[:, 0], X[:, 1]
    ml2 = m * l * l
    acc = (m * g * l * np.sin(theta) + U[:, 0] - b * thetadot) / ml2
    return np.stack([thetadot, acc], axis=1)


def bicycle(x, u, v=6.0, length=1.0):
    """Constant-speed bicycle tracking a unit circle.

    State is (distance error, heading error), control the steering angle.
    The distance-error denominator (1 - d_e) and the steering tangent are
    singular; inputs must stay clear of both.
    """
    X, U = _batch(x, u, 2, 1)
    de, te = X[:, 0], X[:, 1]
    steer = U[:, 0]
    bad = np.abs(de - 1.0) <= 1e-6
    if np.any(bad):
        raise DomainError(
            f"bicycle sample {int(np.argmax(bad))} has d_e={de[np.argmax(bad)]:.8f}, "
            f"within 1e-6 of the unit-circle singularity")
    bad = np.abs(steer) >= np.pi / 2 - 1e-6
    if np.any(bad):
        raise DomainError(
            f"bicycle steering sample {int(np.argmax(bad))} "
            f"has |u|={abs(steer[np.argmax(bad)]):.8f} >= pi/2 - 1e-6")
    return np.stack([v * np.sin(te),
                     v * np.tan(steer) / length - v * np.cos(te) / (1.0 - de)],
                    axis=1)


@dataclass(frozen=True)
class SystemSpec:
    """A named benchmark plant with its published domain boxes."""

    name: str
    params: dict
    x_lb: np.ndarray
    x_ub: np.ndarray
    u_lim: np.ndarray
    _fn: callable = field(repr=False, default=None)

    def dynamics(self, x, u):
        return self._fn(x, u, **self.params)


def _spec(name, fn, params, x_bound, u_bound):
    return SystemSpec(
        name=name, params=params,
        x_lb=np.array([-x_bound, -x_bound]),
        x_ub=np.array([x_bound, x_bound]),
        u_lim=np.array([u_bound]),
        _fn=fn,
    )


_REGISTRY = {
    "vdp": _spec("vdp", vdp, {"mu": 1.0}, 1.3, 5.0),
    "pendulum": _spec("pendulum", pendulum,
                      {"m": 0.15, "g": 9.81, "l": 0.5, "b": 0.1}, 4.0, 5.0),
    "bicycle": _spec("bicycle", bicycle, {"v": 6.0, "length": 1.0}, 0.8, 0.4 * np.pi),
}


def system_names():
    return sorted(_REGISTRY)


def get_system(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; choose from {system_names()}") from None
