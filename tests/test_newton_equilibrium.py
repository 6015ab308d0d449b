"""The active-set Newton solver against the coordinate-descent oracle.

Random feeders with shuffled labels, random actuator subsets, deadbands of
zero and non-zero width, finite, one-sided, infinite and degenerate boxes,
and cost coefficients from 1e-3 to 10, for both objectives.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from voltgame import equilibrium
from voltgame.cli import main
from voltgame.controls import ControlSpec
from voltgame.dynamics import OperatingConstants
from voltgame.equilibrium import MaxIterError, objective_F, solve_iterative
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import chain_network

from strategies import feeders

TOL = 1e-12
ORACLE_TOL = 1e-13

LIMIT = st.floats(0.01, 1.0)
BOXES = st.one_of(
    st.tuples(LIMIT.map(lambda a: -a), LIMIT),            # finite
    st.tuples(st.just(0.0), LIMIT),                       # one-sided at 0
    st.tuples(LIMIT.map(lambda a: -a), st.just(0.0)),
    st.tuples(st.just(-math.inf), LIMIT),                 # one limit infinite
    st.tuples(LIMIT.map(lambda a: -a), st.just(math.inf)),
    st.just((-math.inf, math.inf)),
    st.just((0.0, 0.0)),                                  # degenerate
)


def cost_coefficients(k):
    """k values log-uniform in [1e-3, 10]."""
    return st.lists(st.floats(-3.0, 1.0), min_size=k, max_size=k).map(
        lambda e: 10.0 ** np.array(e))


def offsets(k):
    return st.lists(st.floats(-0.1, 0.1), min_size=k, max_size=k).map(np.array)


@st.composite
def instances(draw):
    """(S, ctrl, vt) on a random actuator subset of a random feeder."""
    net = draw(feeders(st.just(0.0), st.floats(0.05, 2.0), max_buses=30))
    idx = draw(st.lists(st.integers(0, net.n - 1), min_size=1, max_size=net.n, unique=True))
    S = build_sensitivity(net).restrict(idx)
    k = S.n
    y = draw(cost_coefficients(k))
    delta = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 0.1)), min_size=k, max_size=k))
    q_min, q_max = zip(*draw(st.lists(BOXES, min_size=k, max_size=k)))
    dv = draw(offsets(k))
    return S, ControlSpec(1.0 / y, delta, q_min, q_max), OperatingConstants(1.0 + dv, dv)


def point_and_value(objective, res):
    if objective == "F":
        return res.q_star, res.F_value
    return res.q_a, res.W_value


def assert_matches_oracle(objective, S, ctrl, vt, res):
    assert res.residual < TOL
    want = oracles.solve_coordinate_descent(objective, S, ctrl, vt, tol=ORACLE_TOL)
    q, phi = point_and_value(objective, res)
    q_want, phi_want = point_and_value(objective, want)
    assert abs(phi - phi_want) <= 1e-12 * max(1.0, abs(phi_want))
    # the oracle's own error reaches about 1e-10 here, so 1e-9 tests the solver
    assert np.max(np.abs(q - q_want)) <= 1e-9 * max(1.0, float(np.max(np.abs(q_want))))


class TestMatchesCoordinateDescent:
    @settings(max_examples=150, deadline=None)
    @given(instances(), st.sampled_from(["F", "W"]))
    def test_random_instances(self, instance, objective):
        S, ctrl, vt = instance
        assert_matches_oracle(objective, S, ctrl, vt,
                              solve_iterative(objective, S, ctrl, vt, tol=TOL))


def fallback_instance():
    """A 2-bus chain, found by a seeded search over 2-4 bus chains with
    deadbands and boxes, on which the full active-set step from q = 0 raises F:
    bus 2 is classed free and positive, but its optimum is 0 in its deadband."""
    S = build_sensitivity(chain_network([1.98, 0.28]))
    ctrl = ControlSpec(1.0 / np.array([0.106, 0.039]), [0.0, 0.06], [-0.29, -0.56], [0.74, 0.21])
    dv = np.array([-0.047, -0.035])
    return S, ctrl, OperatingConstants(1.0 + dv, dv)


class TestGlobalization:
    def test_fallback_runs_where_the_full_step_ascends(self):
        S, ctrl, vt = fallback_instance()
        q = np.zeros(S.n)
        t = equilibrium._coordinate_minimizers("F", S, ctrl, S.matvec(q), q, vt.delta_v_tilde)
        full = equilibrium._active_set_step(equilibrium._Problem("F", S, ctrl, vt), t)
        assert objective_F(S, ctrl, vt, full) > objective_F(S, ctrl, vt, q)
        with mock.patch.object(equilibrium, "_projected_newton_step",
                               wraps=equilibrium._projected_newton_step) as fallback:
            res = solve_iterative("F", S, ctrl, vt, tol=TOL)
        assert fallback.call_count >= 1
        assert_matches_oracle("F", S, ctrl, vt, res)

    def test_step_budget(self):
        S, ctrl, vt = fallback_instance()
        with pytest.raises(MaxIterError) as info:
            solve_iterative("F", S, ctrl, vt, tol=TOL, max_iter=1)
        err = info.value
        assert err.steps == 1 and err.residual >= TOL
        assert str(err) == ("active-set Newton: step budget exhausted after 1 steps "
                            f"at residual {err.residual:.3e}")

    def test_no_decrease_raises_without_looping(self, monkeypatch):
        face_solve_uphill(monkeypatch)
        S = build_sensitivity(chain_network([0.4, 0.7, 0.2]))
        dv = np.array([0.05, -0.03, 0.08])
        with pytest.raises(MaxIterError, match="line search found no decrease after 1 steps"):
            solve_iterative("W", S, ControlSpec.quadratic([0.5, 1.0, 2.0]),
                            OperatingConstants(1.0 + dv, dv))

    def test_rejects_infinite_slope(self):
        S, ctrl, vt = fallback_instance()
        with pytest.raises(ValueError, match="droop slopes must be finite"):
            ctrl = ControlSpec([np.inf, 1.0], ctrl.delta, ctrl.q_min, ctrl.q_max)
            solve_iterative("F", S, ctrl, vt)

    @pytest.mark.parametrize("law", ["taking", "anticipating"])
    def test_cli_exits_2(self, monkeypatch, capsys, law):
        face_solve_uphill(monkeypatch)
        assert main(["equilibrium", "sce42", "--law", law, "--alpha", "9",
                     "--delta", "0.02"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: active-set Newton: line search found no "
                                       "decrease after 1 steps at residual ")


def face_solve_uphill(monkeypatch):
    """Patch the face solve to return minus the solution, so every Newton
    direction points uphill and neither step can lower the objective."""
    face_solver = equilibrium._face_solver

    def uphill(S, g):
        solve = face_solver(S, g)
        return lambda free, v: -solve(free, v)

    monkeypatch.setattr(equilibrium, "_face_solver", uphill)


class TestSolveQuadratic:
    @settings(max_examples=60, deadline=None)
    @given(feeders(st.just(0.0), st.floats(1e-2, 2.0)), st.data())
    def test_matches_cholesky(self, net, data):
        # where y falls far below lambda_min(X) the Woodbury form alone loses
        # digits to cancellation, and the refinement step restores them
        S = build_sensitivity(net)
        y = data.draw(cost_coefficients(S.n))
        dv = data.draw(offsets(S.n))
        vt = OperatingConstants(1.0 + dv, dv)
        for objective, which, point in (("F", "equilibrium", "q_star"), ("W", "nash", "q_a")):
            # as tight as the assertion, not the default 1e-10 * max(1, |q|)
            res = solve_iterative(objective, S, ControlSpec.quadratic(y), vt, tol=1e-14)
            got = getattr(res, point)
            want = getattr(oracles.solve_quadratic_cholesky(S, y, vt, which), point)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


class TestScaleAwareStop:
    # chains with tiny reactances and costs, where |q| reaches 1e5-1e7: the
    # stationarity residual of the exact solve is rounding of order eps |q|,
    # above an absolute 1e-10, so only a stop test scaled by |q| ends there
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_injections_stop_after_the_first_step(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(120, 1455))
        x = 10.0 ** rng.uniform(-5.0, -3.0, n)
        y = 10.0 ** rng.uniform(-9.0, -5.0, n)
        dv = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0.0, 2.0)
        S = build_sensitivity(chain_network(x))
        vt = OperatingConstants(1.0 + dv, dv)
        for objective in ("F", "W"):
            res = solve_iterative(objective, S, ControlSpec.quadratic(y), vt, max_iter=50)
            q = res.q_star if objective == "F" else res.q_a
            assert res.iterations == 1
            assert res.residual < 1e-10 * max(1.0, float(np.max(np.abs(q))))
