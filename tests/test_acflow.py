import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import equation_residuals_by_bus, sweep_solve_by_bus
from voltgame.acflow import (
    NoConvergenceError,
    VoltageCollapseError,
    closed_loop_ac,
    equation_residuals,
    sweep_solve,
)
from voltgame.controls import ControlSpec
from voltgame.equilibrium import solve_iterative
from voltgame.experiments import load_sce42, restricted_model
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import (
    BusData,
    DegreeDistribution,
    Line,
    RadialNetwork,
    chain_network,
    random_tree,
)


def two_bus_closed_form(r, x, p, q, v0=1.0):
    """Exact solve of the single-line case: quadratic in the squared current."""
    A = r * r + x * x
    B = -(2 * p * r + 2 * q * x + v0 * v0)
    C = p * p + q * q
    ell = (-B - np.sqrt(B * B - 4 * A * C)) / (2 * A)
    P = -p + r * ell
    Q = -q + x * ell
    v1_sq = v0 * v0 - 2 * (r * P + x * Q) + A * ell
    return P, Q, ell, v1_sq


class TestSweep:
    def test_zero_injections_exact(self):
        net = chain_network([0.02, 0.05, 0.01], rs=[0.03, 0.01, 0.02], v0=1.03)
        state = sweep_solve(net, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(state.v_sq, 1.03**2, atol=1e-15)
        np.testing.assert_allclose(state.P, 0.0, atol=1e-15)
        np.testing.assert_allclose(state.Q, 0.0, atol=1e-15)
        np.testing.assert_allclose(state.ell, 0.0, atol=1e-15)

    def test_two_bus_matches_closed_form(self):
        r, x = 0.03, 0.08
        p, q = -0.4, -0.25  # load
        net = chain_network([x], rs=[r])
        state = sweep_solve(net, np.array([p]), np.array([q]), tol=1e-13)
        P, Q, ell, v1_sq = two_bus_closed_form(r, x, p, q)
        assert state.P[0] == pytest.approx(P, abs=1e-10)
        assert state.Q[0] == pytest.approx(Q, abs=1e-10)
        assert state.ell[0] == pytest.approx(ell, abs=1e-10)
        assert state.v_sq[1] == pytest.approx(v1_sq, abs=1e-10)

    def test_equation_residuals_at_convergence(self):
        dist = DegreeDistribution({1: 0.4, 2: 0.6}, max_depth=4, x_range=(0.01, 0.05))
        net = random_tree(dist, seed=2)
        rng = np.random.default_rng(0)
        p = rng.uniform(-0.2, 0.05, net.n)
        q = rng.uniform(-0.1, 0.05, net.n)
        state = sweep_solve(net, p, q, tol=1e-12)
        assert equation_residuals(net, p, q, state) < 1e-12

    def test_linearization_gap_quadratic_in_loading(self):
        # halving injections shrinks the linear-vs-AC voltage gap about 4x
        net = chain_network([0.02] * 5, rs=[0.01] * 5)
        S = build_sensitivity(net)
        p_full = np.full(5, -0.1)
        q_full = np.full(5, -0.05)
        gaps = []
        for scale in (1.0, 0.5):
            state = sweep_solve(net, scale * p_full, scale * q_full, tol=1e-13)
            v_lin = 1.0 + S.R @ (scale * p_full) + S.X @ (scale * q_full)
            gaps.append(np.max(np.abs(state.v - v_lin)))
        ratio = gaps[0] / gaps[1]
        assert 3.0 < ratio < 5.0

    def test_monotone_loading_on_chain(self):
        net = chain_network([0.02] * 4, rs=[0.02] * 4)
        p = np.full(4, -0.05)
        q = np.zeros(4)
        base = sweep_solve(net, p, q, tol=1e-12)
        heavier = p.copy()
        heavier[1] -= 0.05  # extra consumption at bus 2
        state = sweep_solve(net, heavier, q, tol=1e-12)
        assert np.all(state.v_sq <= base.v_sq + 1e-12)
        assert np.all(state.v_sq[2:] < base.v_sq[2:])

    def test_voltage_collapse_detected(self):
        net = chain_network([0.5], rs=[0.5])
        with pytest.raises((VoltageCollapseError, NoConvergenceError)):
            sweep_solve(net, np.array([-2.0]), np.array([-2.0]))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_injection_rejected(self, bad):
        # max() drops a NaN residual, so a NaN injection once "converged" in one sweep
        net = chain_network([0.02] * 3, rs=[0.01] * 3)
        p = np.array([-0.1, bad, -0.1])
        with pytest.raises(ValueError, match="bus 2"):
            sweep_solve(net, p, np.zeros(3))
        with pytest.raises(ValueError, match="bus 3"):
            sweep_solve(net, np.zeros(3), np.array([0.0, 0.0, bad]))


@st.composite
def loaded_feeders(draw, max_depth=6, max_children=4, max_buses=60):
    """Random radial feeder with lines in shuffled order and shuffled node labels,
    plus light random injections."""
    edges = [(0, 1)]
    frontier = [(1, 1)]
    while frontier and len(edges) < max_buses:
        node, depth = frontier.pop(0)
        if depth == max_depth:
            continue
        for _ in range(draw(st.integers(0, max_children))):
            if len(edges) == max_buses:
                break
            edges.append((node, len(edges) + 1))
            frontier.append((len(edges), depth + 1))
    n = len(edges)
    label = [0] + draw(st.permutations(range(1, n + 1)))
    impedance = st.floats(1e-3, 0.05)
    lines = tuple(Line(label[a], label[b], draw(impedance), draw(impedance))
                  for a, b in draw(st.permutations(edges)))
    net = RadialNetwork(n=n, lines=lines, buses=tuple(BusData() for _ in range(n)))
    p = np.array(draw(st.lists(st.floats(-5e-3, 2e-3), min_size=n, max_size=n)))
    q = np.array(draw(st.lists(st.floats(-3e-3, 1e-3), min_size=n, max_size=n)))
    return net, p, q


def assert_same_bits(net, p, q, tol=1e-10):
    got = sweep_solve(net, p, q, tol=tol)
    want = sweep_solve_by_bus(net, p, q, tol=tol)
    for name in ("P", "Q", "ell", "v_sq"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.residual == want.residual
    assert got.iterations == want.iterations
    assert equation_residuals(net, p, q, got) == equation_residuals_by_bus(net, p, q, want)


class TestMatchesPerBusSweep:
    # the level-ordered sweep adds every sum in the per-bus sweep's order,
    # so its results agree bit for bit, not just within a tolerance
    @settings(max_examples=60, deadline=None)
    @given(loaded_feeders())
    def test_random_feeders(self, case):
        assert_same_bits(*case)

    def test_sce42(self):
        net = load_sce42().net
        p = np.array([b.p_g - b.p_c for b in net.buses])
        q = np.array([-b.q_c for b in net.buses])
        assert_same_bits(net, p, q)

    def test_chain_30(self):
        rng = np.random.default_rng(3)
        net = chain_network(rng.uniform(0.002, 0.01, 30), rs=rng.uniform(0.001, 0.008, 30))
        assert_same_bits(net, rng.uniform(-0.02, 0.0, 30), rng.uniform(-0.01, 0.0, 30))


def sce_like_chain(alpha=9.0, delta=0.0, depth=6):
    """Small feeder with distribution-scale impedances and a couple of actuators."""
    buses = []
    for i in range(depth):
        buses.append(BusData(p_c=0.15, q_c=0.07, is_actuator=(i % 2 == 1)))
    net = chain_network([0.01] * depth, rs=[0.008] * depth, buses=buses)
    act = net.actuator_indices()
    ctrl = ControlSpec(np.full(act.size, alpha), np.full(act.size, delta),
                       np.full(act.size, -np.inf), np.full(act.size, np.inf))
    return net, ctrl


class TestClosedLoop:
    def test_wide_deadband_one_step(self):
        net, _ = sce_like_chain()
        act = net.actuator_indices()
        ctrl = ControlSpec(np.full(act.size, 9.0), np.full(act.size, 1.0),
                           np.full(act.size, -np.inf), np.full(act.size, np.inf))
        S_act, _, _ = restricted_model(net)
        trace = closed_loop_ac(net, S_act, ctrl, "taking")
        assert trace.converged and trace.iterations == 1
        np.testing.assert_array_equal(trace.q_final, 0.0)

    def test_both_laws_converge_light_load(self):
        net, ctrl = sce_like_chain(alpha=9.0, delta=0.0)
        S_act, _, _ = restricted_model(net)
        for law in ("taking", "anticipating"):
            trace = closed_loop_ac(net, S_act, ctrl, law, tol=1e-9)
            assert trace.converged, law

    def test_ac_fixed_point_near_linear_equilibrium(self):
        net, ctrl = sce_like_chain(alpha=9.0, delta=0.0)
        S = build_sensitivity(net)
        S_act, vt_act, idx = restricted_model(net, S)
        trace = closed_loop_ac(net, S_act, ctrl, "taking", tol=1e-10)
        assert trace.converged
        res = solve_iterative("F", S_act, ctrl, vt_act, tol=1e-12)
        v_ac = trace.v_hist[-1][idx]
        v_lin = S_act.X @ res.q_star + vt_act.v_tilde
        assert np.max(np.abs(v_ac - v_lin)) < 5e-3
        assert np.max(np.abs(trace.q_final - res.q_star)) < 5e-3

    def test_rejects_unrestricted_inputs(self):
        net, ctrl = sce_like_chain()
        S = build_sensitivity(net)  # full-size, not restricted
        with pytest.raises(ValueError):
            closed_loop_ac(net, S, ctrl, "taking")

    @pytest.mark.parametrize("law", ["taking", "anticipating"])
    def test_trace_contract(self, law):
        # v_hist[t] is the AC flow at q_hist[t], the measurement that fed step t
        net, ctrl = sce_like_chain()
        S_act, _, _ = restricted_model(net)
        trace = closed_loop_ac(net, S_act, ctrl, law)
        assert trace.q_hist.shape[0] == trace.iterations + 1
        assert trace.v_hist.shape[0] == trace.iterations
        p = np.array([b.p_g - b.p_c for b in net.buses])
        for q_row, v_row in zip(trace.q_hist, trace.v_hist):
            q_inj = np.array([-b.q_c for b in net.buses])
            q_inj[net.actuator_indices()] += q_row
            np.testing.assert_array_equal(v_row, sweep_solve(net, p, q_inj, tol=1e-10).v)
