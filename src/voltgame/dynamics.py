"""Closed-loop iteration of the two local Volt/Var laws.

Signal-taking: each bus reacts to its measured voltage deviation.
Signal-anticipating: each bus additionally accounts for its own injection's
effect through its self-sensitivity, i.e. it applies the tempered response
to the aggregate signal from everyone else.

:func:`law_update` is the one update rule for both laws; it reads only the
measured deviation and the bus's own injection, so the linear steppers here
and the AC loop in :mod:`voltgame.acflow` share it, and :func:`run` is the
one closed-loop driver for both models.  Both laws update all buses
synchronously.  :func:`condition_report` gives each law's spectral
convergence certificate by Lanczos on tree passes, with no dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import ControlSpec, beta
from .sensitivity import SensitivitySet, _top_eigenpair
from .topology import RadialNetwork


class DimensionMismatchError(ValueError):
    pass


class CertificateOrderingError(RuntimeError):
    """The spectral certificates broke an ordering that holds in exact arithmetic.

    The anticipating certificate must lie below the taking one, and the
    row-sum sufficient test below 1 implies the anticipating certificate
    below 1.  Carries the three computed values.
    """

    def __init__(self, message: str, sigma_taking: float, sigma_anticipating: float,
                 sufficient_lhs: float):
        super().__init__(message)
        self.sigma_taking = sigma_taking
        self.sigma_anticipating = sigma_anticipating
        self.sufficient_lhs = sufficient_lhs


DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DEFAULT_DIVERGENCE_BOUND = 1e6


@dataclass(frozen=True)
class OperatingConstants:
    """Constant voltage offsets of the linear model.

    v_tilde is the bus voltage profile with zero controllable injection;
    delta_v_tilde subtracts the nominal profile.
    """

    v_tilde: np.ndarray
    delta_v_tilde: np.ndarray


def operating_constants(net: RadialNetwork, S: SensitivitySet) -> OperatingConstants:
    """v_tilde = v0 + R(p_g - p_c) - X q_c over all non-root buses; S covers them all."""
    vt = net.v0 + S.r_matvec(net.p_g - net.p_c) - S.matvec(net.q_c)
    return OperatingConstants(v_tilde=vt, delta_v_tilde=vt - net.v_nom)


def voltage_from_q(S: SensitivitySet, q: np.ndarray, vt: OperatingConstants) -> np.ndarray:
    """Linear model voltage v = X q + v_tilde."""
    q = np.asarray(q, dtype=float)
    if q.shape != (S.n,) or vt.v_tilde.shape != (S.n,):
        raise DimensionMismatchError(
            f"q has shape {q.shape}, constants {vt.v_tilde.shape}, {S.n} buses"
        )
    return S.matvec(q) + vt.v_tilde


def law_update(law: str, ctrl: ControlSpec, xii: np.ndarray, v_dev: np.ndarray,
               q: np.ndarray) -> np.ndarray:
    """One synchronous update of a local law from measured quantities.

    v_dev is the measured deviation v - v_nom at the actuators and q their
    current injections.  The taking law applies the droop curve to v_dev; the
    anticipating law removes its own effect xii * q from the signal and
    applies the tempered response.  Both project onto the reactive box.
    """
    if law == "taking":
        return ctrl.project(ctrl.eval_droop(v_dev))
    if law == "anticipating":
        return ctrl.project(ctrl.eval_anticipating(xii, v_dev - xii * q))
    raise ValueError("law must be 'taking' or 'anticipating'")


@dataclass
class SimulationTrace:
    """Iterates and convergence verdict of a closed-loop run.

    status is one of "converged", "max_iter", "diverged"; iterations counts
    completed steps.  q_hist has one row per stored iterate (t = 0..T);
    v_hist, when present, satisfies v = X q + v_tilde row by row for
    linear-model runs; for AC runs it has one row per step, the AC voltages
    at every bus measured from q_hist[t].
    """

    q_hist: np.ndarray
    residuals: np.ndarray
    status: str
    iterations: int
    v_hist: np.ndarray | None = None
    final_residual: float = field(default=float("nan"))

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def q_final(self) -> np.ndarray:
        return self.q_hist[-1]


def run(stepper, q0: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
        voltage_fn=None) -> SimulationTrace:
    """Iterate q(t+1) = stepper(q(t)) until the residual drops below tol.

    The verdict encodes the outcome instead of raising: "converged" when the
    sup-norm step falls below tol, "diverged" once any |q| exceeds
    DEFAULT_DIVERGENCE_BOUND or turns non-finite, "max_iter" otherwise.
    Every iterate is stored.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = np.asarray(q0, dtype=float).copy()
    hist = [q.copy()]
    res_hist = []
    status = "max_iter"
    it = 0
    residual = float("nan")
    for it in range(1, max_iter + 1):
        q_next = stepper(q)
        residual = float(np.max(np.abs(q_next - q)))
        q = q_next
        hist.append(q.copy())
        res_hist.append(residual)
        if not np.all(np.isfinite(q)) or np.max(np.abs(q)) > DEFAULT_DIVERGENCE_BOUND:
            status = "diverged"
            break
        if residual < tol:
            status = "converged"
            break
    q_hist = np.array(hist)
    v_hist = None
    if voltage_fn is not None:
        v_hist = np.array([voltage_fn(row) for row in q_hist])
    return SimulationTrace(
        q_hist=q_hist,
        residuals=np.array(res_hist),
        status=status,
        iterations=it,
        v_hist=v_hist,
        final_residual=residual,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Spectral convergence certificates for both laws on one instance."""

    sigma_taking: float
    sigma_anticipating: float
    sufficient_lhs: float
    taking_converges: bool
    anticipating_converges: bool
    sufficient_holds: bool


def _sigma_max(S: SensitivitySet, scale: np.ndarray, mutual: bool) -> float:
    """sigma_max(diag(scale) A) for A = X, or Xbar = X - diag(d) when mutual.

    The square root of the top eigenvalue of the symmetric operator
    v -> A (scale^2 * A v), two tree passes per product.
    """
    s2 = scale * scale
    apply = S.mutual_matvec if mutual else S.matvec
    lam = _top_eigenpair(lambda v: apply(s2 * apply(v)), S.n)
    return float(np.sqrt(max(lam, 0.0)))


def condition_report(S: SensitivitySet, ctrl: ControlSpec) -> ConditionReport:
    """Evaluate both spectral conditions and the row-sum sufficient test.

    sigma_max(diag(alpha) X) and sigma_max(diag(beta) Xbar), for Xbar =
    X - diag(d), come from Lanczos on tree passes, and the sufficient test
    max(beta) max(Xbar 1) from one more pass.  The anticipating certificate
    is always strictly below the taking one, and the sufficient test
    dominates the anticipating certificate; both orderings are checked
    before returning, and a violation raises :class:`CertificateOrderingError`.
    """
    if ctrl.n != S.n:
        raise DimensionMismatchError(f"{ctrl.n} controllers for {S.n} buses")
    b = beta(ctrl.alpha, S.d)
    sigma_t = _sigma_max(S, ctrl.alpha, False)
    sigma_a = _sigma_max(S, b, True)
    sufficient = float(np.max(b) * np.max(S.mutual_matvec(np.ones(S.n))))

    if not sigma_a < sigma_t + 1e-15:
        raise CertificateOrderingError(
            f"certificate ordering violated: {sigma_a} >= {sigma_t}", sigma_t, sigma_a, sufficient)
    if sufficient < 1.0 and not sigma_a < 1.0:
        raise CertificateOrderingError(
            f"sufficient row-sum test held ({sufficient} < 1) but the spectral test "
            f"failed ({sigma_a} >= 1)", sigma_t, sigma_a, sufficient)

    return ConditionReport(
        sigma_taking=sigma_t,
        sigma_anticipating=sigma_a,
        sufficient_lhs=sufficient,
        taking_converges=sigma_t < 1.0,
        anticipating_converges=sigma_a < 1.0,
        sufficient_holds=sufficient < 1.0,
    )


def _linear_stepper(law: str, S: SensitivitySet, ctrl: ControlSpec, vt: OperatingConstants):
    return lambda q: law_update(law, ctrl, S.d, S.matvec(q) + vt.delta_v_tilde, q)


def taking_stepper(S: SensitivitySet, ctrl: ControlSpec, vt: OperatingConstants):
    """q -> one signal-taking update on the linear model v = X q + v_tilde."""
    return _linear_stepper("taking", S, ctrl, vt)


def anticipating_stepper(S: SensitivitySet, ctrl: ControlSpec, vt: OperatingConstants):
    """q -> one signal-anticipating update (best response) on the linear model."""
    return _linear_stepper("anticipating", S, ctrl, vt)
