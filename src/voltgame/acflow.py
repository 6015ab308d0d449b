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

Both passes walk the depth levels of the network's cached
:attr:`~voltgame.topology.RadialNetwork.traversal`, one set of numpy calls
per level, so a pass costs O(depth) numpy calls rather than one Python step
per bus.  Child sums are added in the same order as a bus-by-bus sweep would
add them, so the results are bit-identical to it.  The network is validated
once, on first use of the traversal, not on every solve.

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


def _layout(net: RadialNetwork, p_inj, q_inj):
    """Per-line arrays in traversal order, so that every depth level is a slice."""
    t = net.traversal
    idx = t.order - 1
    r = t.r[idx]
    x = t.x[idx]
    # float_power squares as the scalar ``r ** 2`` does (libm pow); the array
    # ``r ** 2`` is r * r, which differs from it in the last bit on some inputs.
    z2 = np.float_power(r, 2) + np.float_power(x, 2)
    return t, idx, p_inj[idx], q_inj[idx], r, x, z2


def _residual(t, p, q, r, x, z2, P, Q, ell, v) -> float:
    """Max absolute equation violation; arrays in traversal order, root voltage last."""
    n = P.size
    # bincount adds each bus's children in sibling order, from 0.0, as the
    # scalar sum over children() does, so sums are bit-identical to it.
    sum_P = np.bincount(t.up, P, n + 1)[:n]
    sum_Q = np.bincount(t.up, Q, n + 1)[:n]
    vi = v[t.up]
    violations = np.abs([
        P - (-p + sum_P + r * ell),
        Q - (-q + sum_Q + x * ell),
        v[:n] - (vi - 2.0 * (r * P + x * Q) + z2 * ell),
        ell * vi - (np.float_power(P, 2) + np.float_power(Q, 2)),
    ])
    return float(violations.max(initial=0.0))


def _to_state(idx, P, Q, ell, v, residual, iterations) -> BranchFlowState:
    """Scatter traversal-ordered arrays back to child-node order."""
    n = idx.size
    out = np.empty((3, n))
    out[:, idx] = P, Q, ell
    v_sq = np.empty(n + 1)
    v_sq[0] = v[n]
    v_sq[idx + 1] = v[:n]
    return BranchFlowState(out[0], out[1], out[2], v_sq, residual, iterations)


def equation_residuals(net: RadialNetwork, p_inj, q_inj, state: BranchFlowState) -> float:
    """Max absolute violation over all four equation families."""
    t, idx, p, q, r, x, z2 = _layout(net, np.asarray(p_inj, dtype=float),
                                     np.asarray(q_inj, dtype=float))
    v = np.append(state.v_sq[idx + 1], state.v_sq[0])
    return _residual(t, p, q, r, x, z2, state.P[idx], state.Q[idx], state.ell[idx], v)


def sweep_solve(net: RadialNetwork, p_inj, q_inj, tol: float = 1e-8,
                max_iter: int = 200) -> BranchFlowState:
    """Backward/forward sweep from a flat start (v_sq = v0^2, ell = 0).

    Each pass makes one set of numpy calls per depth level of the feeder's
    cached traversal.  Raises ValueError for injections of the wrong shape
    or with a non-finite entry, NoConvergenceError with the last residual if
    max_iter sweeps do not reach tol, and VoltageCollapseError if a squared
    voltage is driven nonpositive.
    """
    n = net.n
    p_inj = np.asarray(p_inj, dtype=float)
    q_inj = np.asarray(q_inj, dtype=float)
    if p_inj.shape != (n,) or q_inj.shape != (n,):
        raise ValueError(f"injection vectors must have shape ({n},)")
    finite = np.isfinite(p_inj) & np.isfinite(q_inj)
    if not finite.all():
        raise ValueError(f"non-finite injection at bus {int(np.argmin(finite)) + 1}")

    t, idx, p, q, r, x, z2 = _layout(net, p_inj, q_inj)
    below = t.levels[1:] + (slice(n, n),)  # each level's children; none under the deepest

    P = np.zeros(n)
    Q = np.zeros(n)
    ell = np.zeros(n)
    v = np.full(n + 1, net.v0 ** 2)  # v[k] belongs to order[k]; v[n] is the root's

    residual = np.inf
    for it in range(1, max_iter + 1):
        # backward: accumulate flows leaf-to-root with frozen currents
        r_ell = r * ell
        x_ell = x * ell
        for s, c in zip(reversed(t.levels), reversed(below)):
            P[s] = -p[s] + np.bincount(t.up[c], P[c], s.stop)[s] + r_ell[s]
            Q[s] = -q[s] + np.bincount(t.up[c], Q[c], s.stop)[s] + x_ell[s]
        # forward: propagate voltages root-to-leaf, then refresh the currents
        drop = 2.0 * (r * P + x * Q)
        rise = z2 * ell
        for s in t.levels:
            v[s] = v[t.up[s]] - drop[s] + rise[s]
        collapsed = v[:n] <= 0
        if collapsed.any():
            k = int(np.argmax(collapsed))  # the shallowest, so its parent's voltage is sound
            raise VoltageCollapseError(f"squared voltage {v[k]:.3e} at bus {t.order[k]}")
        ell = (np.float_power(P, 2) + np.float_power(Q, 2)) / v[t.up]

        residual = _residual(t, p, q, r, x, z2, P, Q, ell, v)
        if residual < tol:
            return _to_state(idx, P, Q, ell, v, residual, it)
    raise NoConvergenceError(residual, max_iter)


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
    v_hist = []

    def step(q):
        q_inj = q_fixed.copy()
        q_inj[act] += q
        v = sweep_solve(net, p_fixed, q_inj, tol=SWEEP_TOL).v
        v_hist.append(v)
        return law_update(stepper, ctrl, S.d, v[act] - v_nom, q)

    trace = run(step, np.zeros(act.size), tol=tol, max_iter=max_iter)
    trace.v_hist = np.array(v_hist) if v_hist else None
    return trace
