import math

import numpy as np
import pytest

from voltgame.controls import ControlSpec, EmptyBoxError, ZeroSlopeError, beta

from oracles import bisect_response, cost_scalar, droop_scalar


def droop(alpha, delta=0.0, q_min=-math.inf, q_max=math.inf):
    """One droop actuator."""
    return ControlSpec.uniform(1, alpha=alpha, delta=delta, q_min=q_min, q_max=q_max)


def tempered_response(spec, xii, c):
    """Box-projected solution of q = f(2*Xii*q + c)."""
    return spec.project(spec.eval_anticipating(xii, c))


class TestDroopEval:
    def test_deadband_zero(self):
        p = droop(alpha=2.0, delta=0.04)
        for u in np.linspace(-0.02, 0.02, 9):
            assert p.eval_droop(u) == 0.0

    def test_plugged_value(self):
        p = droop(alpha=2.0, delta=0.02)
        assert p.eval_droop(0.05) == pytest.approx(-2.0 * (0.05 - 0.01))
        assert p.eval_droop(0.05) == pytest.approx(-0.08)

    def test_odd_symmetry(self):
        p = droop(alpha=1.7, delta=0.03)
        rng = np.random.default_rng(0)
        u = rng.uniform(-1, 1, 200)
        np.testing.assert_allclose(p.eval_droop(-u), -p.eval_droop(u), atol=1e-15)

    def test_matches_scalar_oracle(self):
        p = droop(alpha=3.0, delta=0.05)
        for u in np.linspace(-0.3, 0.3, 41):
            assert p.eval_droop(u) == pytest.approx(droop_scalar(3.0, 0.05, u), abs=1e-15)


class TestDroopCost:
    def test_zero_at_zero(self):
        assert droop(alpha=1.0, delta=0.02).cost(0.0) == 0.0

    def test_plugged_value(self):
        # y = 1, delta = 0.02, q = 0.1
        assert droop(alpha=1.0, delta=0.02).cost(0.1) == pytest.approx(0.006)

    def test_even(self):
        p = droop(alpha=0.5, delta=0.1)
        q = np.linspace(-2, 2, 31)
        np.testing.assert_allclose([p.cost(v) for v in q], [p.cost(-v) for v in q])

    def test_zero_slope_error(self):
        with pytest.raises(ZeroSlopeError):
            droop(alpha=0.0).cost(0.1)

    def test_subgradient_matches_inverted_droop(self):
        # slope of the cost away from 0 equals -f^{-1} extended by +-delta/2
        p = droop(alpha=2.0, delta=0.04)
        h = 1e-6
        for q in [0.05, 0.3, -0.07, -0.8]:
            num = (p.cost(q + h) - p.cost(q - h)) / (2 * h)
            expected = p.y[0] * q + math.copysign(p.delta[0] / 2, q)
            assert num == pytest.approx(expected, abs=1e-4)


class TestProjection:
    def test_inside(self):
        assert droop(1.0, q_min=-1, q_max=1).project(0.3) == 0.3

    def test_clamps(self):
        p = droop(1.0, q_min=-1, q_max=1)
        assert p.project(2.0) == 1.0
        assert p.project(-9.0) == -1.0

    def test_nonexpansive(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-5, 5, 1000)
        b = rng.uniform(-5, 5, 1000)
        p = droop(1.0, q_min=-1.0, q_max=2.0)
        pa = p.project(a)
        pb = p.project(b)
        assert np.all(np.abs(pa - pb) <= np.abs(a - b) + 1e-15)

    def test_empty_box(self):
        with pytest.raises(EmptyBoxError):
            droop(1.0, q_min=1.0, q_max=-1.0).project(0.0)


class TestAnticipatingResponse:
    def test_deadband_preserved(self):
        p = droop(alpha=2.0, delta=0.04)
        for c in np.linspace(-0.02, 0.02, 7):
            assert tempered_response(p, 0.8, c) == 0.0

    def test_hand_solved_value(self):
        p = droop(alpha=1.0, delta=0.0)
        assert tempered_response(p, 0.5, 1.0) == pytest.approx(-0.5)

    def test_beta_below_alpha(self):
        b = beta(np.array([1.0, 5.0]), np.array([0.5, 0.1]))
        assert np.all(b > 0) and np.all(b < np.array([1.0, 5.0]))

    def test_fixed_point_property_sampled(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            alpha = rng.uniform(0.1, 10)
            delta = rng.uniform(0, 0.1)
            xii = rng.uniform(0.01, 3)
            c = rng.uniform(-2, 2)
            p = droop(alpha=alpha, delta=delta)
            q = float(tempered_response(p, xii, c)[0])
            assert q == pytest.approx(droop_scalar(alpha, delta, 2 * xii * q + c), abs=1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            alpha = rng.uniform(0.1, 5)
            delta = rng.uniform(0, 0.2)
            xii = rng.uniform(0.0, 2)
            c = rng.uniform(-3, 3)
            q = tempered_response(droop(alpha=alpha, delta=delta), xii, c)
            assert q == pytest.approx(bisect_response(alpha, delta, xii, c), abs=1e-11)

    def test_box_projection_applied(self):
        p = droop(alpha=10.0, delta=0.0, q_min=-0.1, q_max=0.1)
        assert tempered_response(p, 0.0, 5.0) == -0.1

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            alpha = rng.uniform(0.2, 4)
            delta = rng.uniform(0, 0.1)
            xii = rng.uniform(0.05, 1)
            p = droop(alpha=alpha, delta=delta)
            b = beta(alpha, xii)
            x = rng.uniform(-2, 2, 500)
            y = rng.uniform(-2, 2, 500)
            gx = tempered_response(p, xii, x)
            gy = tempered_response(p, xii, y)
            assert np.all(np.abs(gx - gy) <= b * np.abs(x - y) + 1e-14)

    def test_nonincreasing(self):
        p = droop(alpha=2.0, delta=0.05)
        c = np.linspace(-1, 1, 400)
        g = tempered_response(p, 0.3, c)
        assert np.all(np.diff(g) <= 1e-15)


class TestGeneralControls:
    def test_bisection_agrees_with_closed_form(self):
        p = droop(alpha=2.0, delta=0.04)
        for c in [-1.5, -0.01, 0.0, 0.3, 2.0]:
            q_closed = tempered_response(p, 0.7, c)
            q_bisect = bisect_response(2.0, 0.04, 0.7, c)
            assert q_bisect == pytest.approx(q_closed, abs=1e-11)


class TestControlSpec:
    def test_quadratic_roundtrip(self):
        spec = ControlSpec.quadratic([0.5, 2.0])
        assert spec.unconstrained_quadratic
        np.testing.assert_allclose(spec.y, [0.5, 2.0])
        np.testing.assert_allclose(spec.alpha, [2.0, 0.5])

    def test_quadratic_cost_type(self):
        p = ControlSpec.quadratic(4.0)
        assert p.alpha[0] == 0.25 and p.delta[0] == 0.0

    def test_cost_sums_scalars(self):
        spec = ControlSpec(alpha=[1.0, 2.0], delta=[0.02, 0.0],
                           q_min=[-1, -1], q_max=[1, 1])
        q = np.array([0.1, -0.2])
        expected = (cost_scalar(spec.y[0], spec.delta[0], 0.1)
                    + cost_scalar(spec.y[1], spec.delta[1], -0.2))
        assert spec.cost(q) == pytest.approx(float(expected))

    def test_rejects_zero_alpha(self):
        with pytest.raises(ZeroSlopeError):
            ControlSpec(alpha=[1.0, 0.0], delta=[0, 0], q_min=[-1, -1], q_max=[1, 1])

    def test_rejects_box_excluding_zero(self):
        with pytest.raises(EmptyBoxError):
            ControlSpec(alpha=[1.0], delta=[0.0], q_min=[0.5], q_max=[1.0])
