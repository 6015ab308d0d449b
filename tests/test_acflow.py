from functools import cached_property
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chain_feeder,
    equation_residuals_by_bus,
    sweep_solve_by_bus,
    sweep_solve_by_level,
)
from strategies import feeders
from voltgame import acflow
from voltgame.acflow import (
    SWEEP_TOL,
    NoConvergenceError,
    VoltageCollapseError,
    closed_loop_ac,
    equation_residuals,
    sweep_solve,
)
from voltgame.controls import ControlSpec
from voltgame.dynamics import law_update, run
from voltgame.equilibrium import solve_iterative
from voltgame.experiments import load_sce42, restricted_model
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import (
    BusData,
    DegreeDistribution,
    RadialNetwork,
    _TreeFactor,
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
        net = chain_feeder([0.02, 0.05, 0.01], rs=[0.03, 0.01, 0.02], v0=1.03)
        state = sweep_solve(net, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(state.v_sq, 1.03**2, atol=1e-15)
        np.testing.assert_allclose(state.P, 0.0, atol=1e-15)
        np.testing.assert_allclose(state.Q, 0.0, atol=1e-15)
        np.testing.assert_allclose(state.ell, 0.0, atol=1e-15)

    def test_two_bus_matches_closed_form(self):
        r, x = 0.03, 0.08
        p, q = -0.4, -0.25  # load
        net = chain_feeder([x], rs=[r])
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
        net = chain_feeder([0.02] * 5, rs=[0.01] * 5)
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
        net = chain_feeder([0.02] * 4, rs=[0.02] * 4)
        p = np.full(4, -0.05)
        q = np.zeros(4)
        base = sweep_solve(net, p, q, tol=1e-12)
        heavier = p.copy()
        heavier[1] -= 0.05  # extra consumption at bus 2
        state = sweep_solve(net, heavier, q, tol=1e-12)
        assert np.all(state.v_sq <= base.v_sq + 1e-12)
        assert np.all(state.v_sq[2:] < base.v_sq[2:])

    def test_voltage_collapse_detected(self):
        net = chain_feeder([0.5], rs=[0.5])
        with pytest.raises((VoltageCollapseError, NoConvergenceError)):
            sweep_solve(net, np.array([-2.0]), np.array([-2.0]))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_injection_rejected(self, bad):
        # max() drops a NaN residual, so a NaN injection once "converged" in one sweep
        net = chain_feeder([0.02] * 3, rs=[0.01] * 3)
        p = np.array([-0.1, bad, -0.1])
        with pytest.raises(ValueError, match="bus 2"):
            sweep_solve(net, p, np.zeros(3))
        with pytest.raises(ValueError, match="bus 3"):
            sweep_solve(net, np.zeros(3), np.array([0.0, 0.0, bad]))


@st.composite
def loaded_feeders(draw):
    """Random radial feeder (see strategies.feeders) plus light random injections."""
    impedance = st.floats(1e-3, 0.05)
    net = draw(feeders(impedance, impedance))
    n = net.n
    p = np.array(draw(st.lists(st.floats(-5e-3, 2e-3), min_size=n, max_size=n)))
    q = np.array(draw(st.lists(st.floats(-3e-3, 1e-3), min_size=n, max_size=n)))
    return net, p, q


def assert_same_bits(net, p, q, tol=1e-10):
    got = sweep_solve_by_level(net, p, q, tol=tol)
    want = sweep_solve_by_bus(net, p, q, tol=tol)
    for name in ("P", "Q", "ell", "v_sq"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.residual == want.residual
    assert got.iterations == want.iterations
    assert equation_residuals(net, p, q, got) == equation_residuals_by_bus(net, p, q, want)


def sce42_case():
    net = load_sce42().net
    p = np.array([b.p_g - b.p_c for b in net.buses])
    q = np.array([-b.q_c for b in net.buses])
    return net, p, q


def chain_30_case():
    rng = np.random.default_rng(3)
    net = chain_feeder(rng.uniform(0.002, 0.01, 30), rs=rng.uniform(0.001, 0.008, 30))
    return net, rng.uniform(-0.02, 0.0, 30), rng.uniform(-0.01, 0.0, 30)


class TestMatchesPerBusSweep:
    # the level-ordered sweep adds every sum in the per-bus sweep's order,
    # so its results agree bit for bit, not just within a tolerance
    @settings(max_examples=60, deadline=None)
    @given(loaded_feeders())
    def test_random_feeders(self, case):
        assert_same_bits(*case)

    def test_sce42(self):
        assert_same_bits(*sce42_case())

    def test_chain_30(self):
        assert_same_bits(*chain_30_case())


def assert_agrees_with_level_sweep(net, p, q, sweep_slack, tol=1e-10):
    got = sweep_solve(net, p, q, tol=tol)
    want = sweep_solve_by_level(net, p, q, tol=tol)
    for name in ("P", "Q", "ell", "v_sq"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12,
                                   err_msg=name)
    assert abs(got.iterations - want.iterations) <= sweep_slack
    # the residual a solve reports is the residual of the state it returns
    assert got.residual == equation_residuals(net, p, q, got) < tol


class TestMatchesLevelSweep:
    # the triangular solves sum in another order than the level-wise sweep,
    # so the two agree to rounding, not bit for bit
    @settings(max_examples=60, deadline=None)
    @given(loaded_feeders())
    def test_random_feeders(self, case):
        assert_agrees_with_level_sweep(*case, sweep_slack=1)

    def test_sce42(self):
        assert_agrees_with_level_sweep(*sce42_case(), sweep_slack=0)

    def test_chain_30(self):
        assert_agrees_with_level_sweep(*chain_30_case(), sweep_slack=0)


class TestWarmStart:
    def test_converged_start_needs_one_sweep(self):
        net, p, q = sce42_case()
        flat = sweep_solve(net, p, q, tol=1e-10)
        warm = sweep_solve(net, p, q, tol=1e-10, start=flat)
        assert warm.iterations == 1
        # one more sweep moves a converged state by about its residual
        for name in ("P", "Q", "ell", "v_sq"):
            np.testing.assert_allclose(getattr(warm, name), getattr(flat, name), rtol=0,
                                       atol=1e-10, err_msg=name)

    def test_start_from_nearby_injections(self):
        net, p, q = chain_30_case()
        near = sweep_solve(net, 0.99 * p, 0.99 * q, tol=1e-10)
        flat = sweep_solve(net, p, q, tol=1e-10)
        warm = sweep_solve(net, p, q, tol=1e-10, start=near)
        assert warm.iterations < flat.iterations
        np.testing.assert_allclose(warm.v_sq, flat.v_sq, rtol=0, atol=1e-10)

    def test_start_of_another_feeder_size(self):
        net, p, q = chain_30_case()
        other = sweep_solve(chain_network([0.01] * 29), np.zeros(29), np.zeros(29))
        with pytest.raises(ValueError, match="30 buses"):
            sweep_solve(net, p, q, start=other)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.5])
    def test_start_with_bad_squared_voltage(self, bad):
        net, p, q = chain_30_case()
        start = sweep_solve(net, p, q)
        start.v_sq[7] = bad
        with pytest.raises(ValueError, match="squared voltage"):
            sweep_solve(net, p, q, start=start)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    def test_start_with_bad_squared_current(self, bad):
        net, p, q = chain_30_case()
        start = sweep_solve(net, p, q)
        start.ell[4] = bad
        with pytest.raises(ValueError, match="squared current"):
            sweep_solve(net, p, q, start=start)


def sce_like_chain(alpha=9.0, delta=0.0, depth=6):
    """Small feeder with distribution-scale impedances and a couple of actuators."""
    buses = []
    for i in range(depth):
        buses.append(BusData(p_c=0.15, q_c=0.07, is_actuator=(i % 2 == 1)))
    net = chain_feeder([0.01] * depth, rs=[0.008] * depth, buses=buses)
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

    def test_rejects_a_set_of_other_buses(self):
        # as many buses as the actuators, but not them: the anticipating law
        # would run on the wrong self-sensitivities
        data = load_sce42()
        net, act = data.net, data.net.actuator_indices()
        S = build_sensitivity(net)
        ctrl = ControlSpec(np.full(act.size, 9.0), np.full(act.size, 0.02),
                           data.ctrl.q_min, data.ctrl.q_max)
        assert not np.array_equal(act, np.arange(act.size))
        for wrong in (S.restrict(np.arange(act.size)), S.restrict(act[::-1]),
                      build_sensitivity(load_sce42().net).restrict(act)):
            with pytest.raises(ValueError, match="actuator buses"):
                closed_loop_ac(net, wrong, ctrl, "anticipating")
        assert closed_loop_ac(net, S.restrict(act), ctrl, "anticipating").converged

    @pytest.mark.parametrize("law", ["taking", "anticipating"])
    def test_trace_contract(self, law):
        # v_hist[t] is the AC flow at q_hist[t], the measurement that fed step t
        net, ctrl = sce_like_chain()
        S_act, _, _ = restricted_model(net)
        trace = closed_loop_ac(net, S_act, ctrl, law)
        assert trace.q_hist.shape[0] == trace.iterations + 1
        assert trace.v_hist.shape[0] == trace.iterations
        # each step warm-starts from the flow the step before it converged to
        p = np.array([b.p_g - b.p_c for b in net.buses])
        state = None
        for q_row, v_row in zip(trace.q_hist, trace.v_hist):
            q_inj = np.array([-b.q_c for b in net.buses])
            q_inj[net.actuator_indices()] += q_row
            state = sweep_solve(net, p, q_inj, tol=SWEEP_TOL, start=state)
            np.testing.assert_array_equal(v_row, state.v)
            # two solves that each stop below the residual tolerance agree to
            # about that tolerance, not to rounding (up to 1.6e-11 here)
            np.testing.assert_allclose(v_row, sweep_solve(net, p, q_inj, tol=SWEEP_TOL).v,
                                       rtol=0, atol=SWEEP_TOL)


def flat_start_loop(net, S_act, ctrl, law, tol, max_iter, sweep_tol=SWEEP_TOL):
    """closed_loop_ac as it ran before warm starts: a flat level-wise sweep per step."""
    act = net.actuator_indices()
    p = np.array([b.p_g - b.p_c for b in net.buses])
    q_fixed = np.array([-b.q_c for b in net.buses])
    v_nom = np.array([b.v_nom for b in net.buses])[act]

    def step(q):
        q_inj = q_fixed.copy()
        q_inj[act] += q
        v = sweep_solve_by_level(net, p, q_inj, tol=sweep_tol).v
        return law_update(law, ctrl, S_act.d, v[act] - v_nom, q)

    return run(step, np.zeros(act.size), tol=tol, max_iter=max_iter)


@st.composite
def controlled_feeders(draw):
    """A loaded random feeder with random actuators whose linearized taking
    iteration contracts: alpha_i = c / (X_AA 1)_i, so every row of
    diag(alpha) X_AA sums to c < 1."""
    impedance = st.floats(1e-3, 0.05)
    shape = draw(feeders(impedance, impedance, max_buses=30))
    n = shape.n
    load = st.floats(0.0, 5e-3)
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flags[draw(st.integers(0, n - 1))] = True
    buses = tuple(BusData(p_c=draw(load), q_c=draw(load), is_actuator=a) for a in flags)
    net = RadialNetwork(n=n, lines=shape.lines, buses=buses)
    S_act = build_sensitivity(net).restrict(net.actuator_indices())
    k = S_act.n
    alpha = draw(st.floats(0.1, 0.9)) / S_act.matvec(np.ones(k))
    delta = np.array(draw(st.lists(st.floats(0.0, 0.02), min_size=k, max_size=k)))
    box = np.array(draw(st.lists(st.floats(1e-3, 0.1), min_size=k, max_size=k)))
    return net, S_act, ControlSpec(alpha, delta, -box, box)


class TestClosedLoopInvariants:
    TOL = 1e-9
    # Both loops solve each step's flow far below SWEEP_TOL.  At SWEEP_TOL
    # the warm and flat solves differ by about 1e-11, so a step near TOL can
    # stop one loop a step before the other.
    TIGHT_SWEEP_TOL = 1e-14

    @settings(max_examples=30, deadline=None)
    @given(controlled_feeders(), st.sampled_from(["taking", "anticipating"]))
    def test_converged_loop_solves_the_flow(self, case, law):
        net, S_act, ctrl = case
        with patch.object(acflow, "SWEEP_TOL", self.TIGHT_SWEEP_TOL):
            trace = closed_loop_ac(net, S_act, ctrl, law, tol=self.TOL)
        flat = flat_start_loop(net, S_act, ctrl, law, tol=self.TOL, max_iter=300,
                               sweep_tol=self.TIGHT_SWEEP_TOL)
        assert (trace.status, trace.iterations) == (flat.status, flat.iterations)
        np.testing.assert_allclose(trace.q_final, flat.q_final, rtol=0, atol=10 * self.TOL)
        if trace.converged:
            p = np.array([b.p_g - b.p_c for b in net.buses])
            q = np.array([-b.q_c for b in net.buses])
            q[net.actuator_indices()] += trace.q_final
            state = sweep_solve(net, p, q, tol=SWEEP_TOL)
            assert equation_residuals(net, p, q, state) < SWEEP_TOL


class TestOneFactorPerFeeder:
    """One path-sum factor serves a whole AC loop and the solves around it."""

    def test_closed_loop_and_probes(self, monkeypatch):
        built = []
        build = _TreeFactor._paths.func

        def counted(tree):
            built.append(tree)
            return build(tree)

        prop = cached_property(counted)
        prop.__set_name__(_TreeFactor, "_paths")
        monkeypatch.setattr(_TreeFactor, "_paths", prop)

        net, ctrl = sce_like_chain()
        S_act, _, _ = restricted_model(net)
        p = np.array([b.p_g - b.p_c for b in net.buses])
        q = np.array([-b.q_c for b in net.buses])
        sweep_solve(net, p, q, tol=SWEEP_TOL)
        for law in ("taking", "anticipating"):
            trace = closed_loop_ac(net, S_act, ctrl, law)
            q_final = q.copy()
            q_final[net.actuator_indices()] += trace.q_final
            sweep_solve(net, p, q_final, tol=SWEEP_TOL)
        assert len(built) == 1
