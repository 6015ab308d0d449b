"""Equilibria of the two control laws and the price of signal-anticipation.

The taking law settles at the minimizer of

    F(q) = sum_i C_i(q_i) + 1/2 q^T X q + q^T dv,

the anticipating law at the minimizer of

    W(q) = F(q) + 1/2 sum_i Xii q_i^2,

where C_i is the provisioning cost and dv the constant voltage offset.  PoSA
is F at the anticipating equilibrium minus F at the taking one; with pure
quadratic costs and no boxes it equals a quadratic form in dv whose kernel
matrix has closed-form spectral bounds.  All bound fields reported here
carry the 1/2 factor of the worst-case metric so every number in a report
is directly comparable.

Both equilibria come from one solver, :func:`solve_iterative`, without a
dense matrix.  It is an active-set Newton method: each step is one linear
system on the buses that are free of their box limits and deadbands, solved
in O(n) on the sparse X^{-1} of the feeder, and the objective falls strictly
at every step.  Pure quadratic costs are the ControlSpec.quadratic(y)
instance: with no deadband and no box, every bus with a non-zero offset is
free in the first step, which is then the closed-form solve.

:func:`posa_report` computes every report for a :class:`SensitivitySet`
from the sparse inverse X^{-1} = tree_laplacian(net) of its feeder, in O(n)
memory, also when the set is an actuator set A smaller than the feeder:
restriction adds a diagonal that is zero off A to X^{-1}, which keeps it a
tree matrix.  The report and the solver's face solves share the leaf-first
elimination of X^{-1} that the feeder keeps with its traversal, built once
per feeder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import ControlSpec
from .dynamics import OperatingConstants
from .sensitivity import SensitivitySet, _top_eigenpair, chain_eigen_bounds


class MaxIterError(RuntimeError):
    """solve_iterative stopped short of its tolerance.

    steps is the number of Newton steps taken and residual the stationarity
    residual where it stopped: the step budget ran out, or a step's line
    search found no decrease of the objective.
    """

    def __init__(self, steps: int, residual: float, reason: str = "step budget exhausted"):
        self.steps = steps
        self.residual = residual
        super().__init__(f"active-set Newton: {reason} after {steps} steps "
                         f"at residual {residual:.3e}")


class BoundOrderingError(RuntimeError):
    """The PoSA bounds came out of order by more than ordering_ok's tolerance.

    Carries the offending report and the smallest eigenvalues of M = X+Y and
    N = X+D+Y its bounds were computed from; a tiny one marks an
    ill-conditioned instance.
    """

    def __init__(self, report: "PosaReport", lam_min_M: float, lam_min_N: float):
        self.report = report
        self.lam_min_M = lam_min_M
        self.lam_min_N = lam_min_N
        super().__init__(
            f"bound ordering violated: lower={report.lower:.3e} "
            f"posa_max={report.posa_max:.3e} refined={report.refined_upper:.3e} "
            f"upper={report.upper:.3e} gap={report.gap_bound:.3e} "
            f"(lambda_min(M)={lam_min_M:.3e}, lambda_min(N)={lam_min_N:.3e})"
        )


def objective_F(S: SensitivitySet, ctrl: ControlSpec, vt: OperatingConstants,
                q: np.ndarray) -> float:
    """Global cost targeted by the signal-taking law."""
    q = np.asarray(q, dtype=float)
    return ctrl.cost(q) + 0.5 * float(q @ S.matvec(q)) + float(q @ vt.delta_v_tilde)


def objective_W(S: SensitivitySet, ctrl: ControlSpec, vt: OperatingConstants,
                q: np.ndarray) -> float:
    """Global cost whose minimizer is the anticipating fixed point."""
    q = np.asarray(q, dtype=float)
    return objective_F(S, ctrl, vt, q) + 0.5 * float(np.sum(S.d * q * q))


@dataclass(frozen=True)
class EquilibriumResult:
    q_star: np.ndarray
    v_star: np.ndarray
    F_value: float
    solver: str
    iterations: int = 0
    residual: float = 0.0


@dataclass(frozen=True)
class NashResult:
    q_a: np.ndarray
    W_value: float
    F_at_qa: float
    solver: str
    iterations: int = 0
    residual: float = 0.0


def _face_solver(S: SensitivitySet, g: np.ndarray):
    """(free, v) -> q with (X_FF + diag(g_F)) q_F = v_F on the free set F, 0 off F.

    One Woodbury solve on the feeder's leaf-first X^{-1} with g infinite off
    F, in O(n), then one step of iterative refinement against S.matvec,
    which restores the digits the Woodbury form loses to cancellation when
    g is small next to X.  S.X is never read.
    """
    tree = S.net.traversal.factor

    def solve(free: np.ndarray, v: np.ndarray) -> np.ndarray:
        inverse = tree.inverse(S.idx, np.where(free, g, np.inf))
        q = inverse(v)
        return q + inverse(v - S.matvec(q) - g * q)

    return solve


def _coordinate_minimizers(objective: str, S: SensitivitySet, ctrl: ControlSpec,
                           s: np.ndarray, q: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Exact per-coordinate minimizers given s = X q (vectorized)."""
    c = s - S.d * q + dv
    curv = ctrl.y + (S.d if objective == "F" else 2.0 * S.d)
    half_delta = 0.5 * ctrl.delta
    # soft-threshold of the linear term against the |q| kink
    shrunk = np.where(c > half_delta, c - half_delta, np.where(c < -half_delta, c + half_delta, 0.0))
    return ctrl.project(-shrunk / curv)


_ARMIJO_SLOPE = 1e-4   # fraction of the predicted decrease a projected-Newton step must reach
_ARMIJO_HALVINGS = 60  # step-length halvings before a projected-Newton step gives up


class _Problem:
    """F or W as 1/2 q^T (X + diag(g)) q + q.dv + sum_i delta_i |q_i| / 2 on the box.

    g = y for F and y + d for W.  Differences of the objective are taken
    from the step p itself, grad.p + p^T (X + diag(g)) p / 2 plus the change
    of the deadband term, so a decrease far below the objective's own
    rounding still shows with the right sign.
    """

    def __init__(self, objective: str, S: SensitivitySet, ctrl: ControlSpec,
                 vt: OperatingConstants):
        self.S, self.ctrl = S, ctrl
        self.dv = vt.delta_v_tilde
        self.g = ctrl.y + (0.0 if objective == "F" else S.d)
        self.half_delta = 0.5 * ctrl.delta
        self.face_solve = _face_solver(S, self.g)

    def change(self, q: np.ndarray, grad: np.ndarray, q_new: np.ndarray) -> float:
        """Objective at q_new minus objective at q, for grad = X q + g q + dv."""
        p = q_new - q
        return (float(grad @ p) + 0.5 * float(p @ (self.S.matvec(p) + self.g * p))
                + float(self.half_delta @ (np.abs(q_new) - np.abs(q))))


def _active_set_step(pb: _Problem, t: np.ndarray) -> np.ndarray:
    """The primal-dual active-set point for the classification the minimizers t give.

    A bus whose coordinate minimizer is at a box limit or at 0 is held
    there; every other bus is free with the sign of its minimizer, and the
    free buses solve stationarity on their face,
    (X_FF + G_F) q_F = -(dv + sign(t) delta / 2 + X q_held)_F.
    The result is projected onto the box.
    """
    ctrl = pb.ctrl
    at_zero = t == 0.0
    free = ~at_zero & (t != ctrl.q_min) & (t != ctrl.q_max)
    held = np.where(free | at_zero, 0.0, t)   # +0.0 where t is -0.0
    rhs = -(pb.dv + pb.half_delta * np.sign(t) + pb.S.matvec(held))
    return ctrl.project(np.where(free, pb.face_solve(free, rhs), held))


def _projected_newton_step(pb: _Problem, q: np.ndarray, grad: np.ndarray,
                           t: np.ndarray) -> np.ndarray | None:
    """One projected Newton step with an Armijo search on the projected arc.

    On the orthant of the current signs (a bus at 0 takes the sign of its
    minimizer t) the objective is a smooth quadratic on a box.  Buses
    within eps of a limit that the gradient pushes against get a
    diagonally scaled gradient step, the rest a Newton step on their face;
    the trial points are projected onto that box.  Returns None when no
    step length gives the Armijo decrease.
    """
    ctrl = pb.ctrl
    sign = np.where(q != 0.0, np.sign(q), np.sign(t))
    lo = np.where(sign < 0.0, ctrl.q_min, 0.0)
    hi = np.where(sign > 0.0, ctrl.q_max, 0.0)
    gr = grad + pb.half_delta * sign
    curv = pb.g + pb.S.d
    eps = float(np.max(np.abs(q - np.clip(q - gr / curv, lo, hi))))
    active = ((q <= lo + eps) & (gr > 0.0)) | ((q >= hi - eps) & (gr < 0.0))
    free = ~active
    p = np.where(active, -gr / curv, pb.face_solve(free, -gr))
    newton_decrease = -float(gr[free] @ p[free])
    alpha = 1.0
    for _ in range(_ARMIJO_HALVINGS):
        trial = np.clip(q + alpha * p, lo, hi)
        want = alpha * newton_decrease + float(gr[active] @ (q - trial)[active])
        if want > 0.0 and -pb.change(q, grad, trial) >= _ARMIJO_SLOPE * want:
            return trial
        alpha *= 0.5
    return None


def solve_iterative(objective: str, S: SensitivitySet, ctrl: ControlSpec,
                    vt: OperatingConstants, q0: np.ndarray | None = None,
                    tol: float = 1e-10, max_iter: int = 200_000):
    """Minimize F or W under deadbands and reactive boxes by active-set Newton.

    Each step classifies every actuator from its exact coordinate minimizer
    t_i: held at a box limit, held at 0 in its deadband, or free with the
    sign of t_i.  The primal-dual active-set (semismooth Newton) step of
    Hintermueller, Ito & Kunisch (SIAM J. Optim. 13(3), 2002) solves
    stationarity on the free set as one linear system with X_FF + G_F
    (G = Y for F, Y + D for W), an O(n) Woodbury solve on the sparse X^{-1}
    with one refinement step, and projects onto the box.  It is taken when
    it lowers the objective; otherwise a projected Newton step (Bertsekas,
    SIAM J. Control Optim. 20(2), 1982) with an Armijo search is, so the
    objective falls strictly at every step and the method cannot cycle.
    Dense X is never formed.

    Starts from q0 projected onto the box, or from 0.  Stops when the
    stationarity residual max_i |q_i - t_i| drops below
    tol * max(1, max_i |q_i|); it is zero exactly at the unique optimum
    because both objectives are strictly convex with separable nonsmooth
    parts, and the scale keeps the test above the rounding floor of a
    large q.  iterations counts the Newton steps.  Raises MaxIterError,
    with the step count and the residual, after max_iter steps or when a
    line search finds no decrease.
    """
    if objective not in ("F", "W"):
        raise ValueError("objective must be 'F' or 'W'")
    pb = _Problem(objective, S, ctrl, vt)
    dv = pb.dv
    q = np.zeros(S.n) if q0 is None else ctrl.project(np.asarray(q0, dtype=float))
    steps = 0
    while True:
        s = S.matvec(q)
        t = _coordinate_minimizers(objective, S, ctrl, s, q, dv)
        residual = float(np.max(np.abs(q - t)))
        if residual < tol * max(1.0, float(np.max(np.abs(q)))):
            break
        if steps == max_iter:
            raise MaxIterError(steps, residual)
        steps += 1
        grad = s + pb.g * q + dv
        q_new = _active_set_step(pb, t)
        if not pb.change(q, grad, q_new) < 0.0:
            q_new = _projected_newton_step(pb, q, grad, t)
            if q_new is None:
                raise MaxIterError(steps, residual, "line search found no decrease")
        q = q_new

    if objective == "F":
        return EquilibriumResult(
            q_star=q, v_star=s + vt.v_tilde, F_value=objective_F(S, ctrl, vt, q),
            solver="iterative", iterations=steps, residual=residual,
        )
    return NashResult(
        q_a=q, W_value=objective_W(S, ctrl, vt, q), F_at_qa=objective_F(S, ctrl, vt, q),
        solver="iterative", iterations=steps, residual=residual,
    )


ORDERING_RTOL = 1e-9  # PosaReport.ordering_ok's slack, relative to max(1, |upper|)


@dataclass(frozen=True)
class PosaReport:
    """Worst-case PoSA with its spectral bounds, all in the same 1/2-units.

    lower is the raw spectral lower bound (may be negative on small
    networks); lower_clamped additionally applies the known nonnegativity
    of the metric.  posa is the realized gap for the instance's actual
    voltage offset when one was supplied.
    """

    posa_max: float
    upper: float
    refined_upper: float
    lower: float
    lower_clamped: float
    gap_bound: float
    d: float
    y: float
    posa: float | None = None
    worst_direction: np.ndarray | None = None

    def ordering_ok(self) -> bool:
        slack = ORDERING_RTOL * max(1.0, abs(self.upper))
        return (
            self.lower <= self.posa_max + slack
            and self.posa_max <= self.refined_upper + slack
            and self.refined_upper <= self.upper + slack
            and self.upper - self.lower <= self.gap_bound + slack
        )


def _bounds_report(lam_pi: float, lam_min_M: float, lam_min_N: float, lam_min_X: float,
                   lam_lower: float, d: float, y: float, posa: float | None = None,
                   direction: np.ndarray | None = None) -> PosaReport:
    """The report's bounds from the spectral quantities, ordering checked.

    lam_pi is the largest eigenvalue of the PoSA kernel and lam_lower the
    largest of M^{-1} - 2 N^{-1}.  Raises BoundOrderingError if the bounds
    are out of order.
    """
    upper = 0.5 / lam_min_M
    factor = d * d / (lam_min_X + d + y) ** 2
    lower = 0.5 * lam_lower
    report = PosaReport(
        posa_max=0.5 * lam_pi, upper=upper, refined_upper=factor * upper, lower=lower,
        lower_clamped=max(0.0, lower), gap_bound=1.0 / lam_min_N, d=d, y=y, posa=posa,
        worst_direction=direction,
    )
    if not report.ordering_ok():
        raise BoundOrderingError(report, lam_min_M, lam_min_N)
    return report


# -- every report from the sparse X^{-1} of the feeder -----------------------------

# ARPACK maxiter of a lambda_min estimate.  Random trees and chains converge
# within it; where the top of the spectrum is clustered (the uniform chain)
# an estimate fails, and a small budget keeps the restarts it wastes cheap.
_ESTIMATE_RESTARTS = 4
# ARPACK tol of a lambda_min estimate.  Bisection certifies the last bits,
# so an estimate needs only half of them.
_ESTIMATE_TOL = float(np.sqrt(np.finfo(float).eps))


def _lambda_min_estimate(inverse, n: int, v0: np.ndarray | None = None):
    """(1/theta, its Ritz vector), for theta the top Ritz value of the inverse operator.

    Lanczos starts from v0 (a warm start on a short basis), or from the
    seeded random vector, and gets a budget of _ESTIMATE_RESTARTS restarts
    at the relative accuracy _ESTIMATE_TOL.  It returns (None, None) when
    that is not enough, which happens where the top of the spectrum is
    clustered (the uniform chain).  The vector is the eigenvector of the
    smallest eigenvalue to about half the digits, close to that of related
    operators; posa_report starts its later runs from it.
    """
    from scipy.sparse.linalg import ArpackNoConvergence

    try:
        theta, vec = _top_eigenpair(inverse, n, maxiter=_ESTIMATE_RESTARTS, vector=True,
                                    tol=_ESTIMATE_TOL, v0=v0)
    except ArpackNoConvergence:
        return None, None
    return (1.0 / theta, vec) if theta > 0.0 else (None, None)


def posa_report(S: SensitivitySet, Y, vt: OperatingConstants | None = None,
                want_direction: bool = True) -> PosaReport:
    """All PoSA bounds of the actuator set S of a feeder, from the sparse X^{-1}.

    S.idx holds the matrix indices (bus k -> k-1) of the set A, which must
    not be empty; X_AA, Y and the operating constants vt follow its order.
    Y holds one finite, positive cost coefficient per actuator.  No
    n x n array is formed: solves with M = X_AA+Y and N = X_AA+D+Y go
    through the Woodbury identity on X^{-1} plus a diagonal that is zero off
    A, factored once each.  The largest eigenvalues of the PoSA kernel
    N^{-1} D M^{-1} D N^{-1} and of M^{-1} - 2 N^{-1} come from Lanczos; with
    want_direction the kernel's Ritz vector is the worst direction, signed so
    its lowest-index entry within a relative 1e-9 of its largest magnitude
    is positive (see _top_eigenpair): on mirror-image branches two entries
    tie, and rounding does not pick the sign.  The smallest eigenvalues of
    X_AA, M and N are bisected to the last bit on Sylvester inertia counts.
    Those of M and N, and of X on a whole feeder, are estimated first as
    1/theta, for theta the top Ritz value of a short Lanczos run on M^{-1},
    N^{-1} and X^{-1}, and a bracket of a few ulps around each estimate is
    certified before bisection finishes it; where Lanczos does not converge
    in its short budget, bisection starts from the whole bracket, with the
    same result.  The runs on X^{-1} and M^{-1} start from the seeded random
    vector.  The Ritz vector of the M^{-1} run is close to the wanted vectors
    of the three later runs, on N^{-1}, the kernel and M^{-1} - 2 N^{-1}, and
    warm-starts each of them (see _top_eigenpair); where that run does not
    converge, they start from the random vector too.  Warm starts move
    posa_max, lower and the direction in their last digits only; the fields
    bisection certifies keep their bits.  X_AA^{-1} has no sparse form, so
    its smallest eigenvalue is bisected on [lower Gershgorin bound of
    lambda_min(X), min d_A], valid by Cauchy interlacing.  With vt, posa is
    the realized gap F(q_n) - F(q_e) at q_e = -M^{-1} dv and
    q_n = -N^{-1} dv, where F(q_e) = q_e.dv / 2 and
    F(q_n) = q_n.dv / 2 - sum_A d q_n^2 / 2.
    """
    net, buses, k = S.net, S.idx, S.n
    n = net.n
    if k == 0:
        raise ValueError("the PoSA report needs a non-empty set of actuators")
    y = np.asarray(Y, dtype=float)
    if y.shape != (k,):
        raise ValueError(f"need one cost coefficient per bus ({k}), got shape {y.shape}")
    bad = np.flatnonzero(~(np.isfinite(y) & (y > 0)))
    if bad.size:
        raise ValueError(f"cost coefficients must be finite and positive; "
                         f"bus {buses[bad[0]] + 1} has {y[bad[0]]}")
    dv = None if vt is None else np.asarray(vt.delta_v_tilde, dtype=float)
    if dv is not None and dv.shape != (k,):
        raise ValueError(f"need one voltage offset per bus ({k}), got shape {dv.shape}")
    tree = net.traversal.factor
    d_vec = S.d
    g_N = d_vec + y
    Minv = tree.inverse(buses, y)
    Ninv = tree.inverse(buses, g_N)
    if np.array_equal(buses, np.arange(n)):
        lam_min_X = tree.lambda_min(buses, np.zeros(n), *tree.leaf_first.x_bracket,
                                    _lambda_min_estimate(tree.leaf_first.L.dot, n)[0])
    else:
        lam_min_X = tree.lambda_min(buses, np.zeros(k), tree.leaf_first.x_bracket[0],
                                    float(np.min(d_vec)))

    def lam_min(g, estimate):
        # Weyl brackets lambda_min(X_AA + G) by lambda_min(X_AA) + min/max g,
        # and each diagonal entry d_i + g_i bounds it from above
        return tree.lambda_min(buses, g, lam_min_X + float(np.min(g)),
                               min(float(np.min(d_vec + g)), lam_min_X + float(np.max(g))),
                               estimate)

    # the Ritz vector of lambda_min(M) starts the later runs, or None: a
    # seeded random start
    estimate, start = _lambda_min_estimate(Minv, k)
    lam_min_M = lam_min(y, estimate)
    lam_min_N = lam_min(g_N, _lambda_min_estimate(Ninv, k, start)[0])

    def pi(v):
        return Ninv(d_vec * Minv(d_vec * Ninv(v)))

    direction = None
    if want_direction:
        lam_pi, direction = _top_eigenpair(pi, k, vector=True, v0=start)
    else:
        lam_pi = _top_eigenpair(pi, k, v0=start)
    lam_lower = _top_eigenpair(lambda v: Minv(v) - 2.0 * Ninv(v), k, v0=start)

    posa = None
    if dv is not None:
        q_e = -Minv(dv)
        q_n = -Ninv(dv)
        F_e = 0.5 * float(q_e @ dv)
        F_n = 0.5 * float(q_n @ dv) - 0.5 * float(np.sum(d_vec * q_n * q_n))
        posa = F_n - F_e
    return _bounds_report(lam_pi, lam_min_M, lam_min_N, lam_min_X, lam_lower,
                          d=float(np.max(d_vec)), y=float(np.min(y)), posa=posa,
                          direction=direction)


def posa_constrained(S: SensitivitySet, ctrl: ControlSpec, vt: OperatingConstants) -> float:
    """Realized PoSA under deadbands/boxes, via the iterative solvers."""
    eq = solve_iterative("F", S, ctrl, vt)
    na = solve_iterative("W", S, ctrl, vt)
    return na.F_at_qa - eq.F_value


def chain_upper_bound_uniform(n: int, a: float, y: float) -> float:
    """Closed-form worst-case bound for the uniform chain, in 1/2-units.

    Uses the exact smallest reactance eigenvalue of the uniform chain (both
    ends of the chain_eigen_bounds bracket at a = b) and the deepest bus's
    self-sensitivity d = a*n; approaches 1/(2(y + a/4)) as the chain grows.
    """
    if n < 1 or a <= 0 or y <= 0:
        raise ValueError("need n >= 1, a > 0, y > 0")
    return chain_upper_bound_range(n, a, a, d=a * n, y=y)


def chain_upper_bound_range(n: int, a: float, b: float, d: float, y: float) -> float:
    """Worst-case bound for any chain with line reactances in [a, b], 1/2-units.

    d is the instance's largest self-sensitivity and y its smallest cost
    coefficient; the smallest reactance eigenvalue is replaced by its
    uniform-a lower bracket, which only loosens the bound.
    """
    if d <= 0 or y <= 0:
        raise ValueError("need d > 0 and y > 0")
    lam_lower, _ = chain_eigen_bounds(n, a, b, k=n)
    return 0.5 * d * d / ((lam_lower + d + y) ** 2 * (y + lam_lower))


__all__ = [
    "EquilibriumResult", "NashResult", "PosaReport",
    "objective_F", "objective_W", "solve_iterative",
    "posa_report",
    "posa_constrained", "chain_upper_bound_uniform",
    "chain_upper_bound_range", "MaxIterError", "BoundOrderingError",
]
