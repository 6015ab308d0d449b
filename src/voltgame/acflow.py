"""Full nonlinear branch-flow solve on radial feeders, by backward/forward sweep.

Per line (i,j): sending-end flows P, Q, squared current ell; per node:
squared voltage v_sq.  The four coupled equation families are

    P_ij = -p_j + sum_k P_jk + r_ij ell_ij
    Q_ij = -q_j + sum_k Q_jk + x_ij ell_ij
    v_sq_j = v_sq_i - 2 (r_ij P_ij + x_ij Q_ij) + (r_ij^2 + x_ij^2) ell_ij
    ell_ij v_sq_i = P_ij^2 + Q_ij^2

with p, q the net bus injections (generation minus consumption).  The sweep
accumulates flows leaf-to-root with the previous iterate's currents, then
propagates voltages root-to-leaf and refreshes the currents, until every
equation residual is below tolerance.

Both passes are triangular solves with the feeder's one tree factor,
``net.traversal.factor``, the sparse LU of C = I - Par in traversal order.
The backward pass is a subtree sum, P = C^{-T}(r ell - p) and
Q = C^{-T}(x ell - q); the forward pass is a root-path sum,
v_sq = v0^2 + C^{-1}(z^2 ell - 2 (r P + x Q)).  So a sweep is three O(n)
solves, whatever the depth of the feeder.  The solves add the sums in
another order than a bus-by-bus sweep does, so the results agree with it to
rounding, not bit for bit.  The network is validated once, on first use of
the traversal, not on every solve.

:func:`closed_loop_ac` runs the local laws against this solver: its stepper
solves the AC flow and applies :func:`voltgame.dynamics.law_update`, and
:func:`voltgame.dynamics.run` drives the loop, as it does for the linear
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import ControlSpec
from .dynamics import SimulationTrace, law_update, run
from .sensitivity import SensitivitySet
from .topology import RadialNetwork

SWEEP_TOL = 1e-10  # AC solve tolerance at every step of closed_loop_ac
SWEEP_MAX_ITER = 200  # sweeps of one AC solve before NoConvergenceError


class NoConvergenceError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(f"sweep stalled at residual {residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


class VoltageCollapseError(RuntimeError):
    pass


@dataclass
class BranchFlowState:
    """Converged (or best-so-far) branch-flow quantities.

    Line arrays are ordered by child node (entry i-1 belongs to the line
    into node i); v_sq covers nodes 0..n with the root first.
    """

    P: np.ndarray
    Q: np.ndarray
    ell: np.ndarray
    v_sq: np.ndarray
    residual: float
    iterations: int

    @property
    def v(self) -> np.ndarray:
        """Voltage magnitudes at the non-root buses."""
        return np.sqrt(self.v_sq[1:])


def _squares(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """P^2 + Q^2, each square a product: P * P + Q * Q."""
    return P * P + Q * Q


def _residual(f, p, q, P, Q, ell, v, PQ2) -> float:
    """Max absolute equation violation; arrays in traversal order, root voltage last.

    ``f`` is the feeder's tree factor (up, r, x and z2 in traversal order)
    and PQ2 = P^2 + Q^2 from :func:`_squares`.
    """
    n, up = P.size, f.up
    # bincount adds each bus's children in sibling (line) order, from 0.0,
    # as a scalar sum over them does, so sums are bit-identical to it.
    sum_P = np.bincount(up, P, n + 1)[:n]
    sum_Q = np.bincount(up, Q, n + 1)[:n]
    vi = v[up]
    violations = np.abs([
        P - (-p + sum_P + f.r * ell),
        Q - (-q + sum_Q + f.x * ell),
        v[:n] - (vi - 2.0 * (f.r * P + f.x * Q) + f.z2 * ell),
        ell * vi - PQ2,
    ])
    return float(violations.max(initial=0.0))


def _to_state(pos, P, Q, ell, v, residual, iterations) -> BranchFlowState:
    """Gather traversal-ordered arrays back to child-node order, root voltage first."""
    return BranchFlowState(P[pos], Q[pos], ell[pos], v[np.append(pos.size, pos)],
                           residual, iterations)


def equation_residuals(net: RadialNetwork, p_inj, q_inj, state: BranchFlowState) -> float:
    """Max absolute violation over all four equation families."""
    f = net.traversal.factor
    idx = f.idx
    P, Q = state.P[idx], state.Q[idx]
    v = np.append(state.v_sq[idx + 1], state.v_sq[0])
    return _residual(f, np.asarray(p_inj, dtype=float)[idx],
                     np.asarray(q_inj, dtype=float)[idx], P, Q, state.ell[idx], v,
                     _squares(P, Q))


def _start_currents(start: BranchFlowState, n: int) -> np.ndarray:
    """The squared currents of a warm start, after checking that it fits the feeder."""
    shapes = (start.P.shape, start.Q.shape, start.ell.shape, start.v_sq.shape)
    if shapes != ((n,), (n,), (n,), (n + 1,)):
        raise ValueError(f"start state does not belong to a feeder of {n} buses")
    if not (np.isfinite(start.v_sq).all() and (start.v_sq > 0).all()):
        raise ValueError("start state has a non-finite or nonpositive squared voltage")
    if not (np.isfinite(start.ell).all() and (start.ell >= 0).all()):
        raise ValueError("start state has a non-finite or negative squared current")
    return start.ell


def sweep_solve(net: RadialNetwork, p_inj, q_inj, tol: float = 1e-8, *,
                start: BranchFlowState | None = None) -> BranchFlowState:
    """Backward/forward sweep from a flat start (v_sq = v0^2, ell = 0), or from
    the currents of ``start``, a state of the same feeder.

    Each sweep is three triangular solves with the feeder's tree factor.
    Raises ValueError for injections of the wrong shape or with a non-finite
    entry, and for a ``start`` of another feeder size or with a non-finite or
    nonpositive squared voltage (or a non-finite or negative squared
    current); NoConvergenceError with the last residual if SWEEP_MAX_ITER
    sweeps do not reach tol; and VoltageCollapseError if a squared voltage is
    driven nonpositive.
    """
    n = net.n
    p_inj = np.asarray(p_inj, dtype=float)
    q_inj = np.asarray(q_inj, dtype=float)
    if p_inj.shape != (n,) or q_inj.shape != (n,):
        raise ValueError(f"injection vectors must have shape ({n},)")
    finite = np.isfinite(p_inj) & np.isfinite(q_inj)
    if not finite.all():
        raise ValueError(f"non-finite injection at bus {int(np.argmin(finite)) + 1}")

    f = net.traversal.factor
    idx, up, r, x, z2 = f.idx, f.up, f.r, f.x, f.z2
    p, q = p_inj[idx], q_inj[idx]
    ell = np.zeros(n) if start is None else _start_currents(start, n)[idx]
    v = np.full(n + 1, net.v0 ** 2)  # v[k] belongs to order[k]; v[n] is the root's

    residual = np.inf
    for it in range(1, SWEEP_MAX_ITER + 1):
        # backward: flows are subtree sums, with frozen currents
        P = f.subtree_sums(r * ell - p)
        Q = f.subtree_sums(x * ell - q)
        # forward: squared voltages are root-path sums, then refresh the currents
        v[:n] = v[n] + f.root_path_sums(z2 * ell - 2.0 * (r * P + x * Q))
        collapsed = v[:n] <= 0
        if collapsed.any():
            k = int(np.argmax(collapsed))  # the shallowest, so its parent's voltage is sound
            raise VoltageCollapseError(f"squared voltage {v[k]:.3e} at bus {idx[k] + 1}")
        PQ2 = _squares(P, Q)
        ell = PQ2 / v[up]

        residual = _residual(f, p, q, P, Q, ell, v, PQ2)
        if residual < tol:
            return _to_state(f.pos, P, Q, ell, v, residual, it)
    raise NoConvergenceError(residual, SWEEP_MAX_ITER)


def closed_loop_ac(net: RadialNetwork, S: SensitivitySet, ctrl: ControlSpec,
                   stepper: str, tol: float = 1e-8, max_iter: int = 300) -> SimulationTrace:
    """Run a control law against the AC model instead of its linearization.

    Each step of :func:`voltgame.dynamics.run` solves the AC flow from the
    current actuator injections (the feeder's fixed loads/generation enter
    every sweep, from zero injections at the first step) and applies
    :func:`voltgame.dynamics.law_update` to the measured deviation from each
    bus's v_nom.  The anticipating law keeps using the linearized
    self-sensitivities internally (the controller's model of the grid), fed
    by AC voltage measurements.  ``S`` must be the sensitivity set of
    ``net`` restricted to its actuator buses, in their order.  The trace's
    v_hist holds each step's AC voltages at every bus, one row per step.
    Each step's solve starts from the flow the step before it converged to,
    and the first from a flat profile.
    """
    if stepper not in ("taking", "anticipating"):
        raise ValueError("stepper must be 'taking' or 'anticipating'")
    act = net.actuator_indices()
    if S.net is not net or not np.array_equal(S.idx, act) or ctrl.n != act.size:
        raise ValueError("S and ctrl must be restricted to the actuator buses of net")

    p = net.p_g - net.p_c
    q_fixed = -net.q_c
    v_nom = net.v_nom[act]
    v_hist = []
    state = None

    def step(q):
        nonlocal state
        q_inj = q_fixed.copy()
        q_inj[act] += q
        state = sweep_solve(net, p, q_inj, tol=SWEEP_TOL, start=state)
        v = state.v
        v_hist.append(v)
        return law_update(stepper, ctrl, S.d, v[act] - v_nom, q)

    trace = run(step, np.zeros(act.size), tol=tol, max_iter=max_iter)
    trace.v_hist = np.array(v_hist) if v_hist else None
    return trace
