from unittest import mock

import numpy as np
import pytest

from voltgame.controls import ControlSpec
from voltgame.dynamics import (
    OperatingConstants,
    anticipating_stepper,
    condition_report,
    run,
    taking_stepper,
)
from voltgame.equilibrium import (
    chain_upper_bound_range,
    chain_upper_bound_uniform,
    objective_F,
    objective_W,
    posa_constrained,
    posa_report,
    solve_iterative,
)
from voltgame.experiments import load_sce42, restricted_model
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import DegreeDistribution, chain_network, random_instance, tree_laplacian

import oracles
from oracles import (
    grid_best_response_nash,
    grid_minimize,
    objective_F_batch,
    objective_F_direct,
    objective_W_direct,
    pi_matrix,
)


def quadratic_instance(seed, depth=5, x_range=(0.1, 2.0), y_range=(0.5, 1.5), dv_scale=0.1):
    dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=depth,
                              x_range=x_range, y_range=y_range)
    net, y = random_instance(dist, seed)
    S = build_sensitivity(net)
    rng = np.random.default_rng(seed + 999)
    dv = rng.uniform(-dv_scale, dv_scale, net.n)
    vt = OperatingConstants(1.0 + dv, dv)
    return net, S, y, vt


class TestObjectives:
    def test_zero_at_origin(self):
        _, S, y, vt = quadratic_instance(0)
        spec = ControlSpec.quadratic(y)
        assert objective_F(S, spec, vt, np.zeros(S.n)) == 0.0
        assert objective_W(S, spec, vt, np.zeros(S.n)) == 0.0

    def test_quadratic_matrix_forms(self):
        _, S, y, vt = quadratic_instance(1)
        spec = ControlSpec.quadratic(y)
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rng.standard_normal(S.n)
            F_direct = 0.5 * q @ (S.X + np.diag(y)) @ q + q @ vt.delta_v_tilde
            W_direct = 0.5 * q @ (S.X + np.diag(np.diag(S.X)) + np.diag(y)) @ q + q @ vt.delta_v_tilde
            assert objective_F(S, spec, vt, q) == pytest.approx(F_direct, rel=1e-12)
            assert objective_W(S, spec, vt, q) == pytest.approx(W_direct, rel=1e-12)

    def test_w_minus_f_identity(self):
        _, S, y, vt = quadratic_instance(2)
        spec = ControlSpec(1.0 / y, np.full(S.n, 0.01), np.full(S.n, -np.inf), np.full(S.n, np.inf))
        rng = np.random.default_rng(2)
        q = rng.standard_normal(S.n)
        gap = objective_W(S, spec, vt, q) - objective_F(S, spec, vt, q)
        assert gap == pytest.approx(0.5 * float(np.sum(np.diag(S.X) * q * q)), rel=1e-12)
        assert gap >= 0

    def test_alternative_voltage_form(self):
        net, S, y, vt = quadratic_instance(3)
        spec = ControlSpec.quadratic(y)
        Xinv = tree_laplacian(net).toarray()
        vnom = vt.v_tilde - vt.delta_v_tilde
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = rng.standard_normal(S.n)
            v = S.X @ q + vt.v_tilde
            lhs = objective_F(S, spec, vt, q) + 0.5 * vt.delta_v_tilde @ Xinv @ vt.delta_v_tilde
            rhs = spec.cost(q) + 0.5 * (v - vnom) @ Xinv @ (v - vnom)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_matches_independent_evaluation(self):
        _, S, y, vt = quadratic_instance(4)
        delta = np.full(S.n, 0.02)
        spec = ControlSpec(1.0 / y, delta, np.full(S.n, -np.inf), np.full(S.n, np.inf))
        rng = np.random.default_rng(4)
        q = rng.uniform(-1, 1, S.n)
        assert objective_F(S, spec, vt, q) == pytest.approx(
            objective_F_direct(S.X, y, delta, vt.delta_v_tilde, q), rel=1e-12)
        assert objective_W(S, spec, vt, q) == pytest.approx(
            objective_W_direct(S.X, y, delta, vt.delta_v_tilde, q), rel=1e-12)


def quadratic_equilibria(S, y, vt):
    """Both equilibria of the pure quadratic instance ControlSpec.quadratic(y)."""
    spec = ControlSpec.quadratic(y)
    return solve_iterative("F", S, spec, vt), solve_iterative("W", S, spec, vt)


class TestSolveQuadratic:
    def test_zero_offset(self):
        _, S, y, _ = quadratic_instance(5)
        vt0 = OperatingConstants(np.ones(S.n), np.zeros(S.n))
        eq, na = quadratic_equilibria(S, y, vt0)
        np.testing.assert_allclose(eq.q_star, 0.0, atol=1e-15)
        np.testing.assert_allclose(na.q_a, 0.0, atol=1e-15)

    def test_scalar_formulas(self):
        x, y, dv = 0.8, 1.1, 0.07
        S = build_sensitivity(chain_network([x]))
        vt = OperatingConstants(np.array([1 + dv]), np.array([dv]))
        eq, na = quadratic_equilibria(S, np.array([y]), vt)
        assert eq.q_star[0] == pytest.approx(-dv / (x + y), rel=1e-14)
        assert na.q_a[0] == pytest.approx(-dv / (2 * x + y), rel=1e-14)

    def test_gradient_optimality(self):
        for seed in range(5):
            _, S, y, vt = quadratic_instance(seed)
            eq, na = quadratic_equilibria(S, y, vt)
            gF = (S.X + np.diag(y)) @ eq.q_star + vt.delta_v_tilde
            gW = (S.X + np.diag(np.diag(S.X)) + np.diag(y)) @ na.q_a + vt.delta_v_tilde
            assert np.max(np.abs(gF)) < 1e-10
            assert np.max(np.abs(gW)) < 1e-10


class TestSolveIterative:
    def test_matches_closed_form_unconstrained(self):
        _, S, y, vt = quadratic_instance(7, depth=6)
        spec = ControlSpec.quadratic(y)
        eq_it = solve_iterative("F", S, spec, vt, tol=1e-12)
        na_it = solve_iterative("W", S, spec, vt, tol=1e-12)
        eq_cf = oracles.solve_quadratic_cholesky(S, y, vt, "equilibrium")
        na_cf = oracles.solve_quadratic_cholesky(S, y, vt, "nash")
        assert np.max(np.abs(eq_it.q_star - eq_cf.q_star)) < 1e-8
        assert np.max(np.abs(na_it.q_a - na_cf.q_a)) < 1e-8

    def test_scalar_active_box(self):
        x, y, dv = 0.3, 0.5, 0.4
        S = build_sensitivity(chain_network([x]))
        vt = OperatingConstants(np.array([1 + dv]), np.array([dv]))
        # unconstrained q* = -0.5 < q_min
        spec = ControlSpec(alpha=[1 / y], delta=[0.0], q_min=[-0.2], q_max=[0.2])
        res = solve_iterative("F", S, spec, vt)
        assert res.q_star[0] == pytest.approx(-0.2, abs=1e-12)

    def test_agrees_with_dynamics_limit(self):
        for seed in range(5):
            _, S, y, vt = quadratic_instance(seed + 20, depth=4)
            n = S.n
            rng = np.random.default_rng(seed)
            spec = ControlSpec(1.0 / y, rng.uniform(0, 0.03, n),
                               np.full(n, -0.5), np.full(n, 0.5))
            rep = condition_report(S, spec)
            if rep.sigma_taking >= 1:
                scale = 0.8 / rep.sigma_taking
                spec = ControlSpec(spec.alpha * scale, spec.delta, spec.q_min, spec.q_max)
            trace_t = run(taking_stepper(S, spec, vt), np.zeros(n), tol=1e-12)
            trace_a = run(anticipating_stepper(S, spec, vt), np.zeros(n), tol=1e-12)
            assert trace_t.converged and trace_a.converged
            eq = solve_iterative("F", S, spec, vt, tol=1e-12)
            na = solve_iterative("W", S, spec, vt, tol=1e-12)
            assert np.max(np.abs(trace_t.q_final - eq.q_star)) < 1e-7
            assert np.max(np.abs(trace_a.q_final - na.q_a)) < 1e-7

    def test_residual_reported_below_tol(self):
        _, S, y, vt = quadratic_instance(9)
        spec = ControlSpec.quadratic(y)
        res = solve_iterative("F", S, spec, vt, tol=1e-11)
        assert res.residual < 1e-11
        assert oracles.optimality_residual("F", S, spec, vt, res.q_star) < 1e-9


class TestPiMatrix:
    def test_scalar_formula(self):
        x, y = 0.9, 1.7
        S = build_sensitivity(chain_network([x]))
        Pi = pi_matrix(S, np.array([y]))
        assert Pi[0, 0] == pytest.approx(x * x / ((2 * x + y) ** 2 * (x + y)), rel=1e-13)

    def test_posa_identity_fifty_offsets(self):
        _, S, y, _ = quadratic_instance(10, depth=4)
        Pi = pi_matrix(S, y)
        rng = np.random.default_rng(42)
        for _ in range(50):
            dv = rng.uniform(-1, 1, S.n)
            vt = OperatingConstants(1.0 + dv, dv)
            eq, na = quadratic_equilibria(S, y, vt)
            posa = na.F_at_qa - eq.F_value
            quad = 0.5 * dv @ Pi @ dv
            assert quad == pytest.approx(posa, rel=1e-10)

    def test_positive_definite(self):
        _, S, y, _ = quadratic_instance(11)
        w = np.linalg.eigvalsh(pi_matrix(S, y))
        assert w[0] > 0

    def test_vanishing_self_sensitivity_limit(self):
        for x in [1e-2, 1e-4, 1e-6]:
            S = build_sensitivity(chain_network([x, x]))
            lam = np.linalg.eigvalsh(pi_matrix(S, np.ones(2)))[-1]
            assert lam < 5 * x * x  # quadratic decay to zero with the reactance scale


class TestPosaReport:
    def test_scalar_worked_example(self):
        S = build_sensitivity(chain_network([1.0]))
        r = posa_report(S, np.ones(1))
        assert r.posa_max == pytest.approx(1 / 36, rel=1e-12)
        assert r.upper == pytest.approx(0.25, rel=1e-12)
        assert r.lower == pytest.approx(-1 / 12, rel=1e-12)
        assert r.lower_clamped == 0.0
        assert r.gap_bound == pytest.approx(1 / 3, rel=1e-12)
        assert r.refined_upper == pytest.approx(r.posa_max, rel=1e-12)

    def test_homogeneous_chain_gap_shrinks(self):
        gaps = []
        for n in [10, 100, 1000]:
            S = build_sensitivity(chain_network([1.0] * n))
            r = posa_report(S, np.ones(n), want_direction=False)
            gaps.append(r.upper - r.lower)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1 * gaps[0]

    def test_random_trees_ordering(self):
        for seed in range(10):
            _, S, y, _ = quadratic_instance(seed + 40, depth=5,
                                            x_range=(0.0, 200.0), y_range=(0.0, 100.0))
            r = posa_report(S, y, want_direction=False)
            assert r.lower <= r.posa_max <= r.refined_upper <= r.upper
            assert r.upper - r.lower <= r.gap_bound + 1e-12 * max(1.0, r.gap_bound)

    def test_worst_direction_attains_maximum(self):
        _, S, y, _ = quadratic_instance(12)
        r = posa_report(S, y)
        e = r.worst_direction
        assert np.linalg.norm(e) == pytest.approx(1.0, rel=1e-12)
        Pi = pi_matrix(S, y)
        assert 0.5 * e @ Pi @ e == pytest.approx(r.posa_max, rel=1e-9)

    def test_realized_posa_positive(self):
        _, S, y, vt = quadratic_instance(13)
        r = posa_report(S, y, vt=vt)
        assert r.posa is not None and r.posa > 0
        assert r.posa <= r.posa_max * float(vt.delta_v_tilde @ vt.delta_v_tilde) * 2 + 1e-12

    def test_factors_m_and_n_once_each(self):
        # the dense oracle report
        S_act, vt, _ = restricted_model(load_sce42().net)
        y = np.linspace(0.5, 1.5, S_act.n)
        with mock.patch.object(oracles, "cho_factor", wraps=oracles.cho_factor) as factor:
            r = oracles.posa_report(S_act, y, vt=vt)
        assert factor.call_count == 2
        # the shared factors give the numbers the separate Cholesky solves give
        eq = oracles.solve_quadratic_cholesky(S_act, y, vt, "equilibrium")
        na = oracles.solve_quadratic_cholesky(S_act, y, vt, "nash")
        assert r.posa == na.F_at_qa - eq.F_value
        w, V = np.linalg.eigh(pi_matrix(S_act, y))
        assert r.posa_max == 0.5 * w[-1]
        np.testing.assert_array_equal(r.worst_direction, V[:, -1])

    def test_refined_factor_approaches_one(self):
        factors = []
        for n in [10, 50, 200]:
            S = build_sensitivity(chain_network([1.0] * n))
            r = posa_report(S, np.ones(n), want_direction=False)
            factors.append(r.refined_upper / r.upper)
        assert all(0 < f <= 1 for f in factors)
        assert factors[0] < factors[1] < factors[2]
        assert factors[2] > 0.95

    def test_average_posa_per_node_decreasing(self):
        avg = []
        for n in [10, 30, 100, 300]:
            S = build_sensitivity(chain_network([1.0] * n))
            r = posa_report(S, np.ones(n), want_direction=False)
            avg.append(r.posa_max / n)
        assert all(a > b for a, b in zip(avg, avg[1:]))

    def test_constrained_posa_nonnegative(self):
        _, S, y, vt = quadratic_instance(14, depth=4)
        n = S.n
        spec = ControlSpec(1.0 / y, np.full(n, 0.01), np.full(n, -0.3), np.full(n, 0.3))
        assert posa_constrained(S, spec, vt) >= -1e-12


class TestChainBounds:
    def test_uniform_dominates_posa_max(self):
        for n in range(1, 201):
            S = build_sensitivity(chain_network([1.0] * n))
            r = posa_report(S, np.ones(n), want_direction=False)
            assert chain_upper_bound_uniform(n, 1.0, 1.0) >= r.posa_max - 1e-12

    def test_n1_reduces_to_scalar_refined(self):
        a, y = 1.4, 0.8
        S = build_sensitivity(chain_network([a]))
        r = posa_report(S, np.array([y]))
        assert chain_upper_bound_uniform(1, a, y) == pytest.approx(r.refined_upper, rel=1e-12)

    def test_asymptotically_constant(self):
        a, y = 1.0, 1.0
        diffs = [abs(chain_upper_bound_uniform(2 * n, a, y) - chain_upper_bound_uniform(n, a, y))
                 for n in [50, 100, 200, 400]]
        assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
        assert diffs[-1] < 0.2 * diffs[0]  # O(1/n) approach to the constant
        limit = 0.5 / (y + a / 4)
        assert chain_upper_bound_uniform(100_000, a, y) == pytest.approx(limit, rel=1e-3)

    def test_range_collapses_to_uniform(self):
        for n in [1, 3, 17]:
            a = 1.3
            d = a * n
            assert chain_upper_bound_range(n, a, a, d=d, y=0.9) == pytest.approx(
                chain_upper_bound_uniform(n, a, 0.9), rel=1e-12)

    def test_range_bound_monte_carlo(self):
        rng = np.random.default_rng(5)
        n, a, b = 30, 1.0, 2.0
        for _ in range(100):
            xs = rng.uniform(a, b, n)
            ys = rng.uniform(0.5, 1.5, n)
            S = build_sensitivity(chain_network(xs))
            r = posa_report(S, ys, want_direction=False)
            bound = chain_upper_bound_range(n, a, b, d=float(np.max(np.diag(S.X))),
                                            y=float(np.min(ys)))
            assert bound >= r.posa_max - 1e-12

    def test_looser_for_wider_interval(self):
        n, a = 12, 0.8
        d, y = a * n, 1.0
        b1 = chain_upper_bound_range(n, a, 2.0, d=d, y=y)
        b2 = chain_upper_bound_range(n, a, 20.0, d=d, y=y)
        assert b2 >= b1


class TestBruteForceOracle:
    def test_batch_objective_matches_direct(self):
        # one numpy call per term sums in another order than the scalar loop
        rng = np.random.default_rng(3)
        for n in (1, 2, 4):
            S = build_sensitivity(chain_network(rng.uniform(0.3, 1.0, n)))
            y, delta = rng.uniform(0.8, 1.5, n), rng.uniform(0.0, 0.02, n)
            dv = rng.uniform(-0.3, 0.3, n)
            Q = rng.uniform(-0.25, 0.25, (50, n))
            np.testing.assert_allclose(
                objective_F_batch(S.X, y, delta, dv, Q),
                [objective_F_direct(S.X, y, delta, dv, q) for q in Q], rtol=1e-12, atol=1e-15)

    def test_constrained_gap_matches_grid(self):
        rng = np.random.default_rng(0)
        for seed in range(3):
            n = 3
            xs = rng.uniform(0.3, 1.0, n)
            S = build_sensitivity(chain_network(xs))
            y = rng.uniform(0.8, 1.5, n)
            delta = rng.uniform(0.0, 0.02, n)
            qmin, qmax = np.full(n, -0.25), np.full(n, 0.25)
            dv = rng.uniform(-0.3, 0.3, n)
            vt = OperatingConstants(1.0 + dv, dv)
            spec = ControlSpec(1.0 / y, delta, qmin, qmax)

            eq = solve_iterative("F", S, spec, vt, tol=1e-12)
            na = solve_iterative("W", S, spec, vt, tol=1e-12)

            fF = lambda Q: objective_F_batch(S.X, y, delta, dv, np.clip(Q, qmin, qmax))
            _, F_grid = grid_minimize(fF, qmin, qmax, rounds=10, points=15)
            q_nash = grid_best_response_nash(S.X, y, delta, dv, qmin, qmax)
            F_at_nash = objective_F_direct(S.X, y, delta, dv, q_nash)

            assert eq.F_value == pytest.approx(F_grid, abs=5e-5)
            assert na.F_at_qa == pytest.approx(F_at_nash, abs=5e-5)
            gap_solver = na.F_at_qa - eq.F_value
            gap_grid = F_at_nash - F_grid
            assert gap_solver == pytest.approx(gap_grid, abs=1e-4)
