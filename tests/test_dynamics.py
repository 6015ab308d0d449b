import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltgame import dynamics
from voltgame.cli import main
from voltgame.controls import ControlSpec
from voltgame.dynamics import (
    CertificateOrderingError,
    DimensionMismatchError,
    anticipating_stepper,
    condition_report,
    operating_constants,
    run,
    taking_stepper,
    voltage_from_q,
    OperatingConstants,
)
from voltgame.equilibrium import solve_iterative
from voltgame.experiments import load_sce42, restricted_model
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import (BusData, DegreeDistribution, Line, RadialNetwork, chain_network,
                               random_tree)

from oracles import chain_feeder, condition_report_dense, cost_scalar, search_alpha_window
from strategies import feeders


def make_instance(seed=0, n_depth=5, alpha_scale=0.8, delta=0.0):
    """Random feeder + uniform-random droop scaled under the taking certificate."""
    dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=n_depth, x_range=(0.1, 1.0))
    net = random_tree(dist, seed)
    S = build_sensitivity(net)
    rng = np.random.default_rng(seed + 1000)
    alpha = rng.uniform(0.5, 2.0, net.n)
    spec = ControlSpec(alpha, np.full(net.n, delta),
                       np.full(net.n, -np.inf), np.full(net.n, np.inf))
    rep = condition_report(S, spec)
    alpha = alpha * (alpha_scale / rep.sigma_taking)
    spec = ControlSpec(alpha, np.full(net.n, delta),
                       np.full(net.n, -np.inf), np.full(net.n, np.inf))
    dv = rng.uniform(-0.1, 0.1, net.n)
    vt = OperatingConstants(v_tilde=1.0 + dv, delta_v_tilde=dv)
    return net, S, spec, vt


class TestVoltageModel:
    def test_zero_injection(self):
        net = chain_network([1.0, 1.0])
        S = build_sensitivity(net)
        vt = operating_constants(net, S)
        np.testing.assert_allclose(voltage_from_q(S, np.zeros(2), vt), vt.v_tilde)

    def test_first_column(self):
        net = chain_network([1.0, 1.0])
        S = build_sensitivity(net)
        vt = OperatingConstants(np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(voltage_from_q(S, np.array([1.0, 0.0]), vt), [1.0, 1.0])

    def test_linearity(self):
        _, S, _, vt = make_instance(3)
        rng = np.random.default_rng(0)
        q1, q2 = rng.standard_normal((2, S.n))
        lhs = voltage_from_q(S, q1 + q2, vt) - vt.v_tilde
        rhs = (voltage_from_q(S, q1, vt) - vt.v_tilde) + (voltage_from_q(S, q2, vt) - vt.v_tilde)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        net = chain_network([1.0, 1.0])
        S = build_sensitivity(net)
        vt = operating_constants(net, S)
        with pytest.raises(DimensionMismatchError):
            voltage_from_q(S, np.zeros(3), vt)

    def test_operating_constants_formula(self):
        net = chain_feeder([0.5, 0.5], rs=[0.2, 0.1],
                           buses=[BusData(p_c=0.3, p_g=0.1, q_c=0.05),
                                  BusData(p_c=0.2, q_c=0.02)])
        S = build_sensitivity(net)
        vt = operating_constants(net, S)
        p = np.array([0.1 - 0.3, -0.2])
        qc = np.array([0.05, 0.02])
        np.testing.assert_allclose(vt.v_tilde, 1.0 + S.R @ p - S.X @ qc, atol=1e-15)


class TestSteppers:
    def test_equilibrium_is_fixed_point(self):
        _, S, spec, vt = make_instance(1)
        eq = solve_iterative("F", S, spec, vt)
        q1 = taking_stepper(S, spec, vt)(eq.q_star)
        assert np.max(np.abs(q1 - eq.q_star)) < 1e-12

    def test_nash_is_fixed_point(self):
        _, S, spec, vt = make_instance(2)
        na = solve_iterative("W", S, spec, vt)
        q1 = anticipating_stepper(S, spec, vt)(na.q_a)
        assert np.max(np.abs(q1 - na.q_a)) < 1e-12

    def test_deadband_absorbs_offsets(self):
        net = chain_network([1.0, 1.0])
        S = build_sensitivity(net)
        spec = ControlSpec.uniform(2, alpha=2.0, delta=0.1)
        vt = OperatingConstants(np.full(2, 1.01), np.full(2, 0.01))
        np.testing.assert_array_equal(taking_stepper(S, spec, vt)(np.zeros(2)), 0.0)
        np.testing.assert_array_equal(anticipating_stepper(S, spec, vt)(np.zeros(2)), 0.0)

    def test_scalar_taking_recursion(self):
        # n=1 quadratic: q' = -alpha (x q + dv)
        net = chain_network([0.7])
        S = build_sensitivity(net)
        spec = ControlSpec.uniform(1, alpha=0.9)
        vt = OperatingConstants(np.array([1.02]), np.array([0.02]))
        q = np.array([0.3])
        step = taking_stepper(S, spec, vt)
        for _ in range(5):
            expected = -0.9 * (0.7 * q[0] + 0.02)
            q = step(q)
            assert q[0] == pytest.approx(expected, rel=1e-14)

    def test_scalar_anticipating_one_step(self):
        # n=1: no mutual terms, so the update lands on the Nash point immediately
        x, y, dv = 0.7, 1.3, 0.05
        net = chain_network([x])
        S = build_sensitivity(net)
        spec = ControlSpec.quadratic([y])
        vt = OperatingConstants(np.array([1 + dv]), np.array([dv]))
        step = anticipating_stepper(S, spec, vt)
        q1 = step(np.array([17.0]))
        assert q1[0] == pytest.approx(-dv / (y + 2 * x), rel=1e-12)
        q2 = step(q1)
        np.testing.assert_allclose(q2, q1, atol=1e-15)

    def test_local_measurement_form_agrees(self):
        # the local form v_i - v_nom_i - Xii q_i equals the aggregate signal Xbar q + dv,
        # Xbar = X - diag(X) holding the mutual sensitivities only
        _, S, spec, vt = make_instance(4, delta=0.02)
        step = anticipating_stepper(S, spec, vt)
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = rng.uniform(-0.5, 0.5, S.n)
            Xbar = S.X - np.diag(S.d)
            a = spec.project(spec.eval_anticipating(np.diag(S.X), Xbar @ q + vt.delta_v_tilde))
            b = step(q)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_taking_step_solves_per_node_problem(self):
        # each update minimizes cost + q * deviation over the box
        _, S, spec, vt = make_instance(6, delta=0.03)
        rng = np.random.default_rng(6)
        q = rng.uniform(-0.3, 0.3, S.n)
        u = S.X @ q + vt.delta_v_tilde
        q_next = taking_stepper(S, spec, vt)(q)
        grid = np.linspace(-3, 3, 20001)
        for i in range(S.n):
            vals = cost_scalar(spec.y[i], spec.delta[i], grid) + grid * u[i]
            assert q_next[i] == pytest.approx(grid[np.argmin(vals)], abs=2e-3)


class TestRun:
    def test_converges_geometrically_under_certificate(self):
        _, S, spec, vt = make_instance(7, alpha_scale=0.7)
        rep = condition_report(S, spec)
        trace = run(taking_stepper(S, spec, vt), np.zeros(S.n), tol=1e-12)
        assert trace.converged
        r = trace.residuals
        tail = r[-11:-1]
        ratios = r[-10:] / np.maximum(tail, 1e-300)
        assert np.all(ratios <= rep.sigma_taking + 0.05)

    def test_started_at_equilibrium(self):
        _, S, spec, vt = make_instance(8)
        eq = solve_iterative("F", S, spec, vt)
        trace = run(taking_stepper(S, spec, vt), eq.q_star, tol=1e-10)
        assert trace.converged and trace.iterations <= 1

    def test_divergence_detected(self):
        S = build_sensitivity(chain_network([1.0] * 6))
        spec = ControlSpec.uniform(6, alpha=1.0)  # sigma = lambda_max(X) > 1
        rep = condition_report(S, spec)
        assert rep.sigma_taking > 1
        vt = OperatingConstants(np.full(6, 1.05), np.full(6, 0.05))
        trace = run(taking_stepper(S, spec, vt), np.zeros(6), max_iter=10_000)
        assert trace.status == "diverged"

    def test_trace_rows_satisfy_linear_model(self):
        _, S, spec, vt = make_instance(9)
        trace = run(taking_stepper(S, spec, vt), np.zeros(S.n), tol=1e-10,
                    voltage_fn=lambda q: voltage_from_q(S, q, vt))
        for qrow, vrow in zip(trace.q_hist, trace.v_hist):
            np.testing.assert_allclose(vrow, S.X @ qrow + vt.v_tilde, atol=1e-12)


class TestConditionReport:
    def test_single_bus_anticipating_always_contracts(self):
        S = build_sensitivity(chain_network([2.0]))
        spec = ControlSpec.uniform(1, alpha=100.0)
        rep = condition_report(S, spec)
        assert rep.sigma_anticipating == 0.0
        assert rep.anticipating_converges

    def test_strict_ordering_on_random_instances(self):
        for seed in range(30):
            _, S, spec, _ = make_instance(seed, alpha_scale=np.random.default_rng(seed).uniform(0.3, 3.0))
            rep = condition_report(S, spec)
            assert rep.sigma_anticipating < rep.sigma_taking

    def test_uniform_chain_closed_form_sigma(self):
        n, a, alpha = 10, 1.0, 0.3
        S = build_sensitivity(chain_network([a] * n))
        spec = ControlSpec.uniform(n, alpha=alpha)
        rep = condition_report(S, spec)
        lam_max_X = 1.0 / (2 / a + 2 / a * np.cos(2 * n * np.pi / (2 * n + 1)))
        assert rep.sigma_taking == pytest.approx(alpha * lam_max_X, rel=1e-9)

    def test_sufficient_condition_implies_spectral(self):
        for seed in range(20):
            _, S, spec, _ = make_instance(seed + 50, alpha_scale=0.9)
            rep = condition_report(S, spec)
            if rep.sufficient_holds:
                assert rep.anticipating_converges
            # the spectral certificate is never above the row-sum bound
            assert rep.sigma_anticipating <= rep.sufficient_lhs + 1e-12


class TestMatchesDenseOracle:
    # Lanczos on tree passes against dense eigvalsh of M^T M
    @staticmethod
    def assert_agrees(S, ctrl):
        got, want = condition_report(S, ctrl), condition_report_dense(S, ctrl)
        for field in ("sigma_taking", "sigma_anticipating", "sufficient_lhs"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                       rtol=1e-12, atol=0, err_msg=field)

    @settings(max_examples=60, deadline=None)
    @given(feeders(st.floats(0.0, 1.0), st.floats(1e-3, 2.0)), st.data())
    def test_whole_and_restricted_feeders(self, net, data):
        S = build_sensitivity(net)
        idx = data.draw(st.lists(st.integers(0, S.n - 1), min_size=1, max_size=S.n,
                                 unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for sub in (S, S.restrict(idx[:1]), S.restrict(idx[:2]), S.restrict(idx)):
            self.assert_agrees(sub, ControlSpec(rng.uniform(0.05, 5.0, sub.n), np.zeros(sub.n),
                                                np.full(sub.n, -np.inf),
                                                np.full(sub.n, np.inf)))

    def test_two_deep_leaves_under_a_short_shared_line(self):
        # buses 6 and 11 end two branches of five 1.7 lines below bus 1, so they
        # share only its 1e-3 line against d = 8.501: X q - d q would lose the
        # mutual part of a product to about 1e-12 relative
        parents = [0, 1, 2, 3, 4, 5, 1, 7, 8, 9, 10]
        lines = tuple(Line(p, k, 0.0, 1e-3 if k == 1 else 1.7)
                      for k, p in enumerate(parents, start=1))
        net = RadialNetwork(n=11, lines=lines, buses=tuple(BusData() for _ in range(11)))
        self.assert_agrees(build_sensitivity(net).restrict([5, 10]),
                           ControlSpec.uniform(2, alpha=5.0))

    @pytest.mark.parametrize("alpha", [4.0, 9.0, 20.0, 30.0, 40.0])
    def test_sce42_actuators(self, alpha):
        data = load_sce42()
        S_act, _, _ = restricted_model(data.net)
        k = S_act.n
        self.assert_agrees(S_act, ControlSpec(np.full(k, alpha), np.full(k, 0.02),
                                              data.ctrl.q_min, data.ctrl.q_max))


class TestCertificateOrderingError:
    @staticmethod
    def break_sigma(monkeypatch, sigma_taking, sigma_anticipating):
        # condition_report computes the taking certificate first
        values = iter([sigma_taking, sigma_anticipating])
        monkeypatch.setattr(dynamics, "_sigma_max", lambda *a: next(values))

    def test_anticipating_above_taking(self, monkeypatch):
        _, S, spec, _ = make_instance(3, alpha_scale=0.5)
        sufficient = condition_report(S, spec).sufficient_lhs
        self.break_sigma(monkeypatch, 0.5, 0.9)
        with pytest.raises(CertificateOrderingError) as info:
            condition_report(S, spec)
        err = info.value
        assert isinstance(err, RuntimeError) and not isinstance(err, AssertionError)
        assert (err.sigma_taking, err.sigma_anticipating) == (0.5, 0.9)
        assert err.sufficient_lhs == sufficient
        assert "0.9 >= 0.5" in str(err)

    def test_sufficient_test_without_spectral(self, monkeypatch):
        _, S, spec, _ = make_instance(3, alpha_scale=0.1)
        rep = condition_report(S, spec)
        assert rep.sufficient_holds
        self.break_sigma(monkeypatch, 2.0, 1.5)
        with pytest.raises(CertificateOrderingError) as info:
            condition_report(S, spec)
        err = info.value
        assert (err.sigma_taking, err.sigma_anticipating) == (2.0, 1.5)
        assert err.sufficient_lhs == rep.sufficient_lhs < 1.0

    def test_cli_exits_2(self, monkeypatch, tmp_path, capsys):
        # the alpha sweep calls condition_report before running either law
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"kind": "alpha", "alphas": [9.0], "delta": 0.02}))
        self.break_sigma(monkeypatch, 0.5, 0.9)
        assert main(["sweep", str(p)]) == 2
        assert "certificate ordering violated" in capsys.readouterr().err


class TestConvergenceEverywhereUnderCertificate:
    def test_hundred_random_starts(self):
        _, S, spec, vt = make_instance(11, alpha_scale=2.0)
        rep = condition_report(S, spec)
        assert rep.sigma_anticipating < 1.0
        step = anticipating_stepper(S, spec, vt)
        rng = np.random.default_rng(0)
        limits = []
        for _ in range(100):
            q0 = rng.uniform(-5, 5, S.n)
            trace = run(step, q0, tol=1e-10, max_iter=100_000)
            assert trace.converged
            limits.append(trace.q_final)
        spread = np.max(np.ptp(np.array(limits), axis=0))
        assert spread < 1e-8


class TestFixedPointsAreMinimizers:
    # ROADMAP item 6: the taking fixed point is argmin F and the anticipating
    # one argmin W, on trees with deadbands and finite boxes.  The steppers
    # apply X as a tree pass; coordinate descent reads dense columns of X.
    @settings(max_examples=40, deadline=None)
    @given(feeders(st.floats(0.0, 1.0), st.floats(0.1, 1.5), max_buses=30), st.data())
    def test_random_trees(self, net, data):
        n = net.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        S = build_sensitivity(net)
        alpha = rng.uniform(0.5, 2.0, n)
        spec = ControlSpec(alpha, rng.uniform(0.0, 0.04, n),
                           np.full(n, -rng.uniform(0.1, 0.6)), np.full(n, rng.uniform(0.1, 0.6)))
        rep = condition_report(S, spec)
        if rep.sigma_taking >= 1.0:  # as criterion 6 scales its slopes
            spec = ControlSpec(alpha * (0.85 / rep.sigma_taking), spec.delta,
                               spec.q_min, spec.q_max)
        dv = rng.uniform(-0.1, 0.1, n)
        vt = OperatingConstants(1.0 + dv, dv)
        take = run(taking_stepper(S, spec, vt), np.zeros(n), tol=1e-11)
        anti = run(anticipating_stepper(S, spec, vt), np.zeros(n), tol=1e-11)
        assert take.converged and anti.converged
        eq = solve_iterative("F", S, spec, vt, tol=1e-12)
        na = solve_iterative("W", S, spec, vt, tol=1e-12)
        assert float(np.max(np.abs(take.q_final - eq.q_star))) <= 1e-7
        assert float(np.max(np.abs(anti.q_final - na.q_a))) <= 1e-7


class TestAlphaWindow:
    def test_search_on_uniform_chain(self):
        S = build_sensitivity(chain_network([1.0] * 10))
        alpha = search_alpha_window(S)
        spec = ControlSpec.uniform(10, alpha=alpha)
        rep = condition_report(S, spec)
        assert rep.sigma_anticipating < 1.0 < rep.sigma_taking
        dv = np.full(10, 0.05)
        vt = OperatingConstants(1.0 + dv, dv)
        anti = run(anticipating_stepper(S, spec, vt), np.zeros(10), tol=1e-10)
        take = run(taking_stepper(S, spec, vt), np.zeros(10), tol=1e-10, max_iter=100_000)
        assert anti.converged
        assert take.status == "diverged"
