"""Droop controllers, their provisioning costs, and the anticipating response.

The droop curve is piecewise linear with a symmetric deadband of width delta
and slope alpha outside it; zero slope marks a bus with no controller.  The
anticipating response solves q = f(2*Xii*q + c) for the aggregate signal c,
which for droop has the same piecewise-linear shape with the tempered slope
beta = 1/(1/alpha + 2*Xii).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ZeroSlopeError(ValueError):
    pass


class EmptyBoxError(ValueError):
    pass


def beta(alpha, xii):
    """Anticipating slope 1/(1/alpha + 2*Xii); strictly below alpha when Xii > 0."""
    alpha = np.asarray(alpha, dtype=float)
    xii = np.asarray(xii, dtype=float)
    if np.any(alpha <= 0):
        raise ZeroSlopeError("beta requires alpha > 0")
    return 1.0 / (1.0 / alpha + 2.0 * xii)


def _piecewise(slope, delta, u):
    up = np.maximum(u - delta / 2.0, 0.0)
    un = np.maximum(-u - delta / 2.0, 0.0)
    return -slope * up + slope * un


@dataclass(frozen=True)
class ControlSpec:
    """Per-actuator droop parameters as aligned arrays.

    Index k refers to the k-th actuator of whatever bus subset the caller is
    working on; all dynamics and equilibrium code consumes this form.  The
    slopes and deadbands are finite and the box limits are not NaN (an
    infinite limit is no limit); a ValueError names the first actuator
    index that breaks this.
    """

    alpha: np.ndarray
    delta: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "delta", "q_min", "q_max"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        k = self.alpha.size
        if any(getattr(self, f).size != k for f in ("delta", "q_min", "q_max")):
            raise ValueError("control arrays must share one length")
        for what, name, ok in (
                ("droop slopes must be finite", "alpha", np.isfinite(self.alpha)),
                ("deadband widths must be finite", "delta", np.isfinite(self.delta)),
                ("box limits must not be NaN", "q_min", ~np.isnan(self.q_min)),
                ("box limits must not be NaN", "q_max", ~np.isnan(self.q_max))):
            if not ok.all():
                k = int(np.argmin(ok))
                raise ValueError(f"{what}: actuator {k} has {name}={getattr(self, name)[k]}")
        if np.any(self.alpha <= 0):
            raise ZeroSlopeError("ControlSpec covers actuators only; alpha must be > 0")
        if np.any(self.delta < 0):
            raise ValueError("deadband width must be >= 0")
        if np.any(self.q_min > self.q_max):
            raise EmptyBoxError("empty reactive box")
        if np.any(self.q_min > 0) or np.any(self.q_max < 0):
            raise EmptyBoxError("actuator box must contain 0")

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def y(self) -> np.ndarray:
        return 1.0 / self.alpha

    @property
    def unconstrained_quadratic(self) -> bool:
        return (
            bool(np.all(self.delta == 0))
            and bool(np.all(np.isneginf(self.q_min)))
            and bool(np.all(np.isposinf(self.q_max)))
        )

    @classmethod
    def uniform(cls, n: int, alpha: float, delta: float = 0.0,
                q_min: float | np.ndarray = -math.inf,
                q_max: float | np.ndarray = math.inf) -> "ControlSpec":
        """One slope and deadband at n actuators; each box limit is a number or n numbers."""
        ones = np.ones(n)
        return cls(alpha * ones, delta * ones, q_min * ones, q_max * ones)

    @classmethod
    def quadratic(cls, y) -> "ControlSpec":
        y = np.atleast_1d(np.asarray(y, dtype=float))
        n = y.size
        return cls(1.0 / y, np.zeros(n), np.full(n, -math.inf), np.full(n, math.inf))

    def eval_droop(self, u: np.ndarray) -> np.ndarray:
        """Vectorized droop response, pre-projection."""
        return _piecewise(self.alpha, self.delta, np.asarray(u, dtype=float))

    def eval_anticipating(self, xii: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Vectorized closed-form anticipating response, pre-projection."""
        b = beta(self.alpha, xii)
        return _piecewise(b, self.delta, np.asarray(c, dtype=float))

    def cost(self, q: np.ndarray) -> float:
        q = np.asarray(q, dtype=float)
        return float(np.sum(0.5 * self.y * q * q + 0.5 * self.delta * np.abs(q)))

    def project(self, q: np.ndarray) -> np.ndarray:
        return np.minimum(self.q_max, np.maximum(self.q_min, q))
