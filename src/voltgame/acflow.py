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
from .topology import RadialNetwork, validate_tree

SWEEP_TOL = 1e-10  # AC solve tolerance at every step of closed_loop_ac


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


def _sweep_order(net: RadialNetwork) -> list[int]:
    """Nodes ordered root-outward (parents come before children)."""
    children = net.children()
    order = []
    stack = list(children[0])
    while stack:
        k = stack.pop()
        order.append(k)
        stack.extend(children[k])
    return order


def equation_residuals(net: RadialNetwork, p_inj, q_inj, state: BranchFlowState) -> float:
    """Max absolute violation over all four equation families."""
    children = net.children()
    r = net.resistances()
    x = net.reactances()
    P, Q, ell, v_sq = state.P, state.Q, state.ell, state.v_sq
    res = 0.0
    for j in range(1, net.n + 1):
        i = net.parent[j - 1]
        e = j - 1
        sum_P = sum(P[k - 1] for k in children[j])
        sum_Q = sum(Q[k - 1] for k in children[j])
        res = max(res, abs(P[e] - (-p_inj[e] + sum_P + r[e] * ell[e])))
        res = max(res, abs(Q[e] - (-q_inj[e] + sum_Q + x[e] * ell[e])))
        res = max(res, abs(v_sq[j] - (v_sq[i] - 2.0 * (r[e] * P[e] + x[e] * Q[e])
                                      + (r[e] ** 2 + x[e] ** 2) * ell[e])))
        res = max(res, abs(ell[e] * v_sq[i] - (P[e] ** 2 + Q[e] ** 2)))
    return res


def sweep_solve(net: RadialNetwork, p_inj, q_inj, tol: float = 1e-8,
                max_iter: int = 200) -> BranchFlowState:
    """Backward/forward sweep from a flat start (v_sq = v0^2, ell = 0).

    Raises NoConvergenceError with the last residual if max_iter sweeps do
    not reach tol, and VoltageCollapseError if a squared voltage is driven
    nonpositive.
    """
    validate_tree(net)
    n = net.n
    p_inj = np.asarray(p_inj, dtype=float)
    q_inj = np.asarray(q_inj, dtype=float)
    if p_inj.shape != (n,) or q_inj.shape != (n,):
        raise ValueError(f"injection vectors must have shape ({n},)")

    children = net.children()
    parent = net.parent
    r = net.resistances()
    x = net.reactances()
    order = _sweep_order(net)

    P = np.zeros(n)
    Q = np.zeros(n)
    ell = np.zeros(n)
    v_sq = np.full(n + 1, net.v0 ** 2)

    state = BranchFlowState(P, Q, ell, v_sq, residual=np.inf, iterations=0)
    for it in range(1, max_iter + 1):
        # backward: accumulate flows leaf-to-root with frozen currents
        for j in reversed(order):
            e = j - 1
            P[e] = -p_inj[e] + sum(P[k - 1] for k in children[j]) + r[e] * ell[e]
            Q[e] = -q_inj[e] + sum(Q[k - 1] for k in children[j]) + x[e] * ell[e]
        # forward: propagate voltages root-to-leaf, refresh currents
        for j in order:
            e = j - 1
            i = parent[e]
            v_sq[j] = v_sq[i] - 2.0 * (r[e] * P[e] + x[e] * Q[e]) + (r[e] ** 2 + x[e] ** 2) * ell[e]
            if v_sq[j] <= 0:
                raise VoltageCollapseError(f"squared voltage {v_sq[j]:.3e} at bus {j}")
            ell[e] = (P[e] ** 2 + Q[e] ** 2) / v_sq[i]

        state = BranchFlowState(P, Q, ell, v_sq, residual=np.inf, iterations=it)
        state.residual = equation_residuals(net, p_inj, q_inj, state)
        if state.residual < tol:
            return state
    raise NoConvergenceError(state.residual, max_iter)


def closed_loop_ac(net: RadialNetwork, S: SensitivitySet, ctrl: ControlSpec,
                   stepper: str, tol: float = 1e-8, max_iter: int = 300) -> SimulationTrace:
    """Run a control law against the AC model instead of its linearization.

    Each step of :func:`voltgame.dynamics.run` solves the AC flow from the
    current actuator injections (the feeder's fixed loads/generation enter
    every sweep, from zero injections at the first step) and applies
    :func:`voltgame.dynamics.law_update` to the measured deviation from each
    bus's v_nom.  The anticipating law keeps using the linearized
    self-sensitivities internally (the controller's model of the grid), fed
    by AC voltage measurements.  ``S`` must be the sensitivity set
    restricted to the actuator buses.  The trace's v_hist holds each step's
    AC voltages at every bus, one row per step.
    """
    if stepper not in ("taking", "anticipating"):
        raise ValueError("stepper must be 'taking' or 'anticipating'")
    act = net.actuator_indices()
    if S.n != act.size or ctrl.n != act.size:
        raise ValueError("S and ctrl must be restricted to the actuator buses")

    p_fixed = np.array([b.p_g - b.p_c for b in net.buses])
    q_fixed = np.array([-b.q_c for b in net.buses])
    v_nom = np.array([b.v_nom for b in net.buses])[act]
    xii = np.diag(S.X)
    v_hist = []

    def step(q):
        q_inj = q_fixed.copy()
        q_inj[act] += q
        v = sweep_solve(net, p_fixed, q_inj, tol=SWEEP_TOL).v
        v_hist.append(v)
        return law_update(stepper, ctrl, xii, v[act] - v_nom, q)

    trace = run(step, np.zeros(act.size), tol=tol, max_iter=max_iter)
    trace.v_hist = np.array(v_hist) if v_hist else None
    return trace
