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

:func:`tree_posa_report` computes every report from the sparse inverse
X^{-1} = tree_laplacian(net) of the feeder, in O(n) memory, also for an
instance restricted to an actuator set A: restriction adds a diagonal that
is zero off A to X^{-1}, which keeps it a tree matrix.  :func:`posa_report`
is the same report for a :class:`SensitivitySet`, by way of the feeder and
actuator set it records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .controls import ControlSpec
from .dynamics import OperatingConstants
from .sensitivity import SensitivitySet, chain_eigen_bounds
from .topology import RadialNetwork, tree_laplacian


class NotUnconstrainedError(ValueError):
    pass


class SingularSystemError(np.linalg.LinAlgError):
    pass


class MaxIterError(RuntimeError):
    pass


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


def _spd_factor(M: np.ndarray):
    try:
        return cho_factor(M, lower=True)
    except np.linalg.LinAlgError as exc:  # defensive: valid X, Y keep M SPD
        raise SingularSystemError(str(exc)) from exc


def solve_quadratic(S: SensitivitySet, Y, vt: OperatingConstants, which: str,
                    ctrl: ControlSpec | None = None):
    """Closed-form equilibrium for pure quadratic costs, no boxes.

    which="equilibrium" solves (X+Y) q = -dv, which="nash" solves
    (X+D+Y) q = -dv, both by Cholesky (the factorization doubles as the
    positive-definiteness assertion).  Pass the active ControlSpec to verify
    the instance really is unconstrained quadratic.
    """
    if ctrl is not None and not ctrl.unconstrained_quadratic:
        raise NotUnconstrainedError(
            "deadbands or finite reactive boxes present; use solve_iterative"
        )
    Yd = np.asarray(Y, dtype=float)
    if Yd.ndim == 2:
        Yd = np.diag(Yd)
    if np.any(Yd <= 0):
        raise ValueError("cost coefficients must be positive")
    dv = vt.delta_v_tilde
    M = S.X + np.diag(Yd)
    if which == "equilibrium":
        q = -cho_solve(_spd_factor(M), dv)
        F = 0.5 * float(q @ M @ q) + float(q @ dv)
        return EquilibriumResult(q_star=q, v_star=S.matvec(q) + vt.v_tilde, F_value=F,
                                 solver="closed_form")
    if which == "nash":
        N = M + np.diag(S.d)
        q = -cho_solve(_spd_factor(N), dv)
        W = 0.5 * float(q @ N @ q) + float(q @ dv)
        F = 0.5 * float(q @ M @ q) + float(q @ dv)
        return NashResult(q_a=q, W_value=W, F_at_qa=F, solver="closed_form")
    raise ValueError(f"which must be 'equilibrium' or 'nash', got {which!r}")


def _coordinate_minimizers(objective: str, S: SensitivitySet, ctrl: ControlSpec,
                           s: np.ndarray, q: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Exact per-coordinate minimizers given s = X q (vectorized)."""
    c = s - S.d * q + dv
    curv = ctrl.y + (S.d if objective == "F" else 2.0 * S.d)
    half_delta = 0.5 * ctrl.delta
    # soft-threshold of the linear term against the |q| kink
    shrunk = np.where(c > half_delta, c - half_delta, np.where(c < -half_delta, c + half_delta, 0.0))
    return ctrl.project(-shrunk / curv)


def solve_iterative(objective: str, S: SensitivitySet, ctrl: ControlSpec,
                    vt: OperatingConstants, q0: np.ndarray | None = None,
                    tol: float = 1e-10, max_iter: int = 200_000):
    """Projected cyclic coordinate descent on F or W with exact line minimization.

    Handles deadband costs and reactive boxes.  Stops when the stationarity
    residual max_i |q_i - argmin_i| drops below tol; this residual is zero
    exactly at the unique optimum because both objectives are strictly
    convex with separable nonsmooth parts.
    """
    if objective not in ("F", "W"):
        raise ValueError("objective must be 'F' or 'W'")
    n = S.n
    dv = vt.delta_v_tilde
    xii = S.d
    curv = ctrl.y + (xii if objective == "F" else 2.0 * xii)
    half_delta = 0.5 * ctrl.delta
    q = np.zeros(n) if q0 is None else np.asarray(q0, dtype=float).copy()
    s = S.matvec(q)

    residual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        for i in range(n):
            c = s[i] - xii[i] * q[i] + dv[i]
            if c > half_delta[i]:
                target = -(c - half_delta[i]) / curv[i]
            elif c < -half_delta[i]:
                target = -(c + half_delta[i]) / curv[i]
            else:
                target = 0.0
            target = min(ctrl.q_max[i], max(ctrl.q_min[i], target))
            dq = target - q[i]
            if dq != 0.0:
                s += S.X[:, i] * dq  # dense X, one column per step
                q[i] = target
        residual = float(np.max(np.abs(q - _coordinate_minimizers(objective, S, ctrl, s, q, dv))))
        if residual < tol:
            break
    else:
        raise MaxIterError(f"coordinate descent stalled at residual {residual:.3e}")

    if objective == "F":
        return EquilibriumResult(
            q_star=q, v_star=S.matvec(q) + vt.v_tilde, F_value=objective_F(S, ctrl, vt, q),
            solver="iterative", iterations=it, residual=residual,
        )
    return NashResult(
        q_a=q, W_value=objective_W(S, ctrl, vt, q), F_at_qa=objective_F(S, ctrl, vt, q),
        solver="iterative", iterations=it, residual=residual,
    )


def optimality_residual(objective: str, S: SensitivitySet, ctrl: ControlSpec,
                        vt: OperatingConstants, q: np.ndarray) -> float:
    """Stationarity measure: sup-norm distance to the coordinate minimizers."""
    q = np.asarray(q, dtype=float)
    s = S.matvec(q)
    return float(np.max(np.abs(q - _coordinate_minimizers(objective, S, ctrl, s, q,
                                                          vt.delta_v_tilde))))


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

    def ordering_ok(self, rtol: float = 1e-9) -> bool:
        slack = rtol * max(1.0, abs(self.upper))
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

_V0_SEED = 0  # seeds ARPACK's start and restart vectors, so a report repeats to the bit
# ARPACK maxiter of a lambda_min estimate.  Random trees and chains converge
# within it; where the top of the spectrum is clustered (the uniform chain)
# an estimate fails, and a small budget keeps the restarts it wastes cheap.
_ESTIMATE_RESTARTS = 4
_CERTIFY_ULPS = 2  # first half-width of the bracket certified around an estimate


class _LeafFirst:
    """X^{-1} + P^T diag(s) P of a feeder with the buses in leaf-first order.

    P selects the actuator set A (matrix indices ``idx``, every bus when
    none is given), so the added diagonal is zero off A.  Position k holds
    matrix index ``perm[k]``; the order is the reverse of the traversal
    order, so every bus comes after all its children and Gaussian
    elimination in this order creates no fill.  The pivot of bus i is then
    a_i + s_i - sum_c w_c^2 / p_c over its children c, where a = diag(X^{-1})
    and w_c = 1/x_c is the weight of the line into c.  Vectors indexed by A
    (g, h, v below) follow the order of ``idx``.
    """

    def __init__(self, net: RadialNetwork, idx: np.ndarray | None = None):
        tr = net.traversal
        n = net.n
        self.n = n
        self.perm = tr.order[::-1] - 1
        pos = np.empty(n, dtype=int)
        pos[self.perm] = np.arange(n)
        self.whole = idx is None
        self._act = pos if idx is None else pos[idx]  # leaf-first positions of A
        L = tree_laplacian(net)
        self.L = L[self.perm][:, self.perm].tocsc()
        self.a = L.diagonal()[self.perm]
        # lambda_max(X^{-1}) lies between its largest diagonal entry and its
        # largest absolute row sum (Gershgorin); 1/lambda_max(X^{-1}) = lambda_min(X)
        self.x_bracket = (1.0 / float(np.max(abs(L).sum(axis=1))), 1.0 / float(np.max(self.a)))
        parent = tr.parent[self.perm] - 1
        self._up = np.where(parent >= 0, pos[parent], n).tolist()  # n: the root, a dummy slot
        w2 = (1.0 / tr.x[self.perm]) ** 2
        self._w2 = w2.tolist()
        self._pivmin = np.finfo(float).tiny * max(1.0, float(np.max(w2)))

    def _padded_diagonal(self, s: np.ndarray) -> np.ndarray:
        """diag(X^{-1} + P^T diag(s) P) in leaf-first order."""
        diag = self.a.copy()
        diag[self._act] += s
        return diag

    def count_below(self, g: np.ndarray, sigma: float) -> int:
        """Number of eigenvalues of X_AA + diag(g) below sigma.

        With h = g - sigma, the inertia of [[diag(h), P], [P^T, -X^{-1}]]
        taken through either Schur complement (Haynsworth) makes it
        #{h_i < 0} minus the number of negative eigenvalues of
        X^{-1} + P^T diag(1/h) P, which are the negative pivots of its
        leaf-first elimination.  A pivot smaller in magnitude than the
        underflow guard counts as negative, as in LAPACK's dlaebz.
        """
        h = g - sigma
        if not h.all():     # sigma is some g_i: count below the next float instead
            h = g - np.nextafter(sigma, np.inf)
        piv = self._padded_diagonal(1.0 / h).tolist()
        piv.append(0.0)
        up, w2, pivmin = self._up, self._w2, self._pivmin
        neg = 0
        for k in range(self.n):
            p = piv[k]
            if p < pivmin:
                if p > -pivmin:
                    p = -pivmin
                neg += 1
            piv[up[k]] -= w2[k] / p
        return int(np.count_nonzero(h < 0.0)) - neg

    def lambda_min(self, g: np.ndarray, lo: float, hi: float,
                   estimate: float | None = None) -> float:
        """Smallest eigenvalue of X_AA + diag(g), given 0 < lo <= it <= hi.

        Bisection on :meth:`count_below` to the last bit, on a log scale
        while the bracket spans more than a factor of two; returns the lower
        end of the final bracket.  An estimate strictly inside the bracket
        first narrows it to estimate -/+ w: the count must be 0 at the lower
        end and positive at the upper one.  w starts at a few ulps of the
        estimate and grows 16-fold at an end that fails the test, until that
        end leaves the bracket.  A failed end still narrows the bracket from
        the other side, so each count keeps the bracket valid, and the
        result is the one bisection of [lo, hi] finds.
        """
        if estimate is not None and lo < estimate < hi:
            w0 = _CERTIFY_ULPS * math.ulp(estimate)
            w = w0
            while lo < estimate - w:
                if not self.count_below(g, estimate - w):
                    lo = estimate - w
                    break
                hi = estimate - w
                w *= 16.0
            w = w0
            while estimate + w < hi:
                if self.count_below(g, estimate + w):
                    hi = estimate + w
                    break
                lo = estimate + w
                w *= 16.0
        while True:
            mid = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lo
            if self.count_below(g, mid):
                hi = mid
            else:
                lo = mid

    def inverse(self, g: np.ndarray):
        """v -> (X_AA + diag(g))^{-1} v, for g > 0, by the Woodbury identity

            (P X P^T + G)^{-1} v = G^{-1} v - G^{-1} P z,
            (X^{-1} + P^T G^{-1} P) z = P^T G^{-1} v,

        with X^{-1} + P^T G^{-1} P factored once, leaf first and without
        pivoting.
        """
        from scipy.sparse.linalg import splu

        ginv = 1.0 / g
        K = self.L.copy()
        K.setdiag(self._padded_diagonal(ginv))
        lu = splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        act, n = self._act, self.n

        def solve(v: np.ndarray) -> np.ndarray:
            u = ginv * v
            b = np.zeros(n)
            b[act] = u
            return u - ginv * lu.solve(b)[act]

        return solve


def _top_eigenpair(matvec, n: int, maxiter: int | None = None, vector: bool = False):
    """Largest eigenvalue of the symmetric operator v -> matvec(v), and with
    ``vector`` also its unit eigenvector, signed so that its entry of largest
    magnitude is positive.

    ARPACK's Lanczos with seeded start and restart vectors, so a rerun gives
    the same bits; with maxiter set it raises ArpackNoConvergence after that
    many restarts.  ARPACK needs n > 1; a 1 x 1 operator is its own eigenvalue.
    """
    if n == 1:
        lam = float(matvec(np.ones(1))[0])
        return (lam, np.ones(1)) if vector else lam
    from scipy.sparse.linalg import LinearOperator, eigsh

    v0 = np.random.default_rng(_V0_SEED).uniform(-1.0, 1.0, n)
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    out = eigsh(op, k=1, which="LA", tol=0, v0=v0, maxiter=maxiter,
                return_eigenvectors=vector, rng=np.random.default_rng(_V0_SEED))
    if not vector:
        return float(out[0])
    e = out[1][:, 0]
    return float(out[0][0]), (e if e[np.argmax(np.abs(e))] > 0.0 else -e)


def _lambda_min_estimate(inverse, n: int) -> float | None:
    """1/theta, for theta the top Ritz value of the inverse operator.

    Lanczos gets a budget of _ESTIMATE_RESTARTS restarts; it returns None
    when that is not enough, which happens where the top of the spectrum is
    clustered (the uniform chain).
    """
    from scipy.sparse.linalg import ArpackNoConvergence

    try:
        theta = _top_eigenpair(inverse, n, maxiter=_ESTIMATE_RESTARTS)
    except ArpackNoConvergence:
        return None
    return 1.0 / theta if theta > 0.0 else None


def tree_posa_report(net: RadialNetwork, y, *, actuators=None,
                     vt: OperatingConstants | None = None,
                     want_direction: bool = False) -> PosaReport:
    """All PoSA bounds of a feeder restricted to an actuator set, from the sparse X^{-1}.

    actuators holds the distinct matrix indices (bus k -> k-1) of the set A,
    every bus when None; X_AA, y and the operating constants vt follow its
    order.  y holds one finite, positive cost coefficient per actuator.  No
    n x n array is formed: solves with M = X_AA+Y and N = X_AA+D+Y go
    through the Woodbury identity on X^{-1} plus a diagonal that is zero off
    A, factored once each.  The largest eigenvalues of the PoSA kernel
    N^{-1} D M^{-1} D N^{-1} and of M^{-1} - 2 N^{-1} come from Lanczos; with
    want_direction the kernel's Ritz vector is the worst direction, signed so
    its largest-magnitude entry is positive.  The smallest eigenvalues of
    X_AA, M and N are bisected to the last bit on Sylvester inertia counts.
    Those of M and N, and of X on a whole feeder, are estimated first as
    1/theta, for theta the top Ritz value of a short Lanczos run on M^{-1},
    N^{-1} and X^{-1}, and a bracket of a few ulps around each estimate is
    certified before bisection finishes it; where Lanczos does not converge
    in its short budget, bisection starts from the whole bracket, with the
    same result.  X_AA^{-1} has no sparse form, so its smallest eigenvalue
    is bisected on [lower Gershgorin bound of lambda_min(X), min d_A], valid
    by Cauchy interlacing.  With vt, posa is the realized gap
    F(q_n) - F(q_e) at q_e = -M^{-1} dv and q_n = -N^{-1} dv, where
    F(q_e) = q_e.dv / 2 and F(q_n) = q_n.dv / 2 - sum_A d q_n^2 / 2.
    """
    n = net.n
    buses = np.arange(n) if actuators is None else np.asarray(actuators, dtype=int)
    if (buses.ndim != 1 or buses.size == 0 or np.unique(buses).size != buses.size
            or buses.min() < 0 or buses.max() >= n):
        raise ValueError(f"actuators must be distinct matrix indices in 0..{n - 1}")
    k = buses.size
    y = np.asarray(y, dtype=float)
    if y.shape != (k,):
        raise ValueError(f"need one cost coefficient per bus ({k}), got shape {y.shape}")
    bad = np.flatnonzero(~(np.isfinite(y) & (y > 0)))
    if bad.size:
        raise ValueError(f"cost coefficients must be finite and positive; "
                         f"bus {buses[bad[0]] + 1} has {y[bad[0]]}")
    dv = None if vt is None else np.asarray(vt.delta_v_tilde, dtype=float)
    if dv is not None and dv.shape != (k,):
        raise ValueError(f"need one voltage offset per bus ({k}), got shape {dv.shape}")
    tree = _LeafFirst(net, None if np.array_equal(buses, np.arange(n)) else buses)
    d_vec = net.traversal.d[buses]
    g_N = d_vec + y
    Minv = tree.inverse(y)
    Ninv = tree.inverse(g_N)
    if tree.whole:
        lam_min_X = tree.lambda_min(np.zeros(n), *tree.x_bracket,
                                    _lambda_min_estimate(tree.L.dot, n))
    else:
        lam_min_X = tree.lambda_min(np.zeros(k), tree.x_bracket[0], float(np.min(d_vec)))

    def lam_min(g, inverse):
        # Weyl brackets lambda_min(X_AA + G) by lambda_min(X_AA) + min/max g,
        # and each diagonal entry d_i + g_i bounds it from above
        return tree.lambda_min(g, lam_min_X + float(np.min(g)),
                               min(float(np.min(d_vec + g)), lam_min_X + float(np.max(g))),
                               _lambda_min_estimate(inverse, k))

    lam_min_M = lam_min(y, Minv)
    lam_min_N = lam_min(g_N, Ninv)

    def pi(v):
        return Ninv(d_vec * Minv(d_vec * Ninv(v)))

    direction = None
    if want_direction:
        lam_pi, direction = _top_eigenpair(pi, k, vector=True)
    else:
        lam_pi = _top_eigenpair(pi, k)
    lam_lower = _top_eigenpair(lambda v: Minv(v) - 2.0 * Ninv(v), k)

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


def posa_report(S: SensitivitySet, Y, vt: OperatingConstants | None = None,
                want_direction: bool = True) -> PosaReport:
    """:func:`tree_posa_report` on the feeder and actuator set S was built for."""
    return tree_posa_report(S.net, Y, actuators=S.idx, vt=vt, want_direction=want_direction)


def posa_constrained(S: SensitivitySet, ctrl: ControlSpec, vt: OperatingConstants,
                     tol: float = 1e-10) -> float:
    """Realized PoSA under deadbands/boxes, via the iterative solvers."""
    eq = solve_iterative("F", S, ctrl, vt, tol=tol)
    na = solve_iterative("W", S, ctrl, vt, tol=tol)
    return na.F_at_qa - eq.F_value


def _chain_lambda_min(n: int, a: float) -> float:
    return a / (2.0 + 2.0 * math.cos(2.0 * math.pi / (2 * n + 1)))


def chain_upper_bound_uniform(n: int, a: float, y: float) -> float:
    """Closed-form worst-case bound for the uniform chain, in 1/2-units.

    Uses the exact smallest reactance eigenvalue of the uniform chain and the
    deepest bus's self-sensitivity d = a*n; approaches 1/(2(y + a/4)) as the
    chain grows.
    """
    if n < 1 or a <= 0 or y <= 0:
        raise ValueError("need n >= 1, a > 0, y > 0")
    lam = _chain_lambda_min(n, a)
    d = a * n
    return 0.5 * d * d / ((lam + d + y) ** 2 * (y + lam))


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
    "objective_F", "objective_W", "solve_quadratic", "solve_iterative",
    "optimality_residual", "posa_report", "tree_posa_report",
    "posa_constrained", "chain_upper_bound_uniform",
    "chain_upper_bound_range", "NotUnconstrainedError", "SingularSystemError",
    "MaxIterError", "BoundOrderingError",
]
