"""The linear model applied matrix-free: X q and R p as O(n) tree passes.

Products agree with the dense matrices, restricting a set builds nothing,
and the CLI's linear and AC runs, the alpha sweep, the equilibrium solvers
and the convergence certificates complete with the dense build disabled.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltgame import dynamics
from voltgame.cli import main
from voltgame.controls import ControlSpec
from voltgame.equilibrium import posa_constrained, solve_iterative
from voltgame.experiments import restricted_model
from voltgame.netio import save_network_json
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import (
    BusData,
    DegreeDistribution,
    Line,
    RadialNetwork,
    chain_network,
    random_tree,
)

from oracles import chain_feeder
from strategies import feeders


def no_dense_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense X or R built")

    monkeypatch.setattr("voltgame.sensitivity._dense_block", refuse)


def assert_products_match(S, rng):
    """matvec, r_matvec and mutual_matvec equal the dense products; d equals diag(X) exactly."""
    for _ in range(3):
        q = rng.uniform(-1.0, 1.0, S.n)
        want = S.X @ q
        np.testing.assert_allclose(S.matvec(q), want, rtol=0,
                                   atol=1e-12 * max(1.0, float(np.max(np.abs(want)))))
        want = S.R @ q
        np.testing.assert_allclose(S.r_matvec(q), want, rtol=0,
                                   atol=1e-12 * max(1.0, float(np.max(np.abs(want)))))
        want = (S.X - np.diag(S.d)) @ q
        np.testing.assert_allclose(S.mutual_matvec(q), want, rtol=0,
                                   atol=1e-12 * max(1.0, float(np.max(np.abs(want)))))
    assert np.array_equal(S.d, np.diag(S.X))


class TestProducts:
    # shuffled node labels and line order, so traversal order differs from node order
    @settings(max_examples=60, deadline=None)
    @given(feeders(st.floats(0.0, 1.0), st.floats(1e-3, 2.0)), st.data())
    def test_random_feeders_and_subsets(self, net, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        S = build_sensitivity(net)
        assert_products_match(S, rng)
        sub = S
        for _ in range(2):  # nested restrictions compose their indices
            idx = data.draw(st.lists(st.integers(0, sub.n - 1), min_size=1, max_size=sub.n,
                                     unique=True))
            sub = sub.restrict(idx)
            assert_products_match(sub, rng)

    def test_chain_by_hand(self):
        # 0-1 (2), 1-2 (3), 2-3 (5): X = [[2, 2, 2], [2, 5, 5], [2, 5, 10]]
        net = chain_network([2.0, 3.0, 5.0])
        S = build_sensitivity(net)
        np.testing.assert_allclose(S.matvec(np.array([1.0, 0.0, 0.0])), [2.0, 2.0, 2.0])
        np.testing.assert_allclose(S.matvec(np.array([0.0, 0.0, 1.0])), [2.0, 5.0, 10.0])
        np.testing.assert_allclose(S.restrict([2, 0]).matvec(np.array([1.0, 1.0])), [12.0, 4.0])

    def test_restrict_builds_nothing_dense(self, monkeypatch):
        net = random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=6, x_range=(0.1, 1.0)), 3)
        S = build_sensitivity(net)
        no_dense_build(monkeypatch)
        sub = S.restrict([4, 0, 2]).restrict([2, 0])
        np.testing.assert_array_equal(sub.idx, [2, 4])
        assert sub.matvec(np.ones(2)).shape == (2,)
        assert np.array_equal(sub.d, net.traversal.d[[2, 4]])
        assert "X" not in vars(sub) and "R" not in vars(sub)
        with pytest.raises(AssertionError, match="dense"):
            sub.X


def depth8_feeder(tmp_path):
    """A depth-8 random feeder with light loads, and a slope where both laws converge."""
    tree = random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=8, x_range=(0.0, 0.02)), 5)
    lines = tuple(Line(ln.from_node, ln.to_node, 0.5 * ln.x, ln.x) for ln in tree.lines)
    buses = tuple(BusData(p_c=0.01, q_c=0.005, q_min=-0.05, q_max=0.05) for _ in range(tree.n))
    net = RadialNetwork(n=tree.n, lines=lines, buses=buses)
    alpha = 0.5 / float(np.linalg.eigvalsh(build_sensitivity(net).X)[-1])
    p = tmp_path / "tree.json"
    p.write_text(save_network_json(net))
    return str(p), alpha


def test_cli_runs_build_nothing_dense(tmp_path, monkeypatch):
    tree, tree_alpha = depth8_feeder(tmp_path)
    no_dense_build(monkeypatch)
    for net, alpha in (("sce42", 9.0), (tree, tree_alpha)):
        for law in ("taking", "anticipating"):
            for extra in (["--voltages"], ["--ac"]):
                out = tmp_path / "trace.csv"
                argv = ["simulate", net, "--law", law, "--alpha", str(alpha), "--delta", "0.02",
                        "--out", str(out)] + extra
                assert main(argv) == 0, argv
                assert out.read_text().count("\n") > 2


def test_equilibria_build_nothing_dense(tmp_path, monkeypatch):
    tree, tree_alpha = depth8_feeder(tmp_path)
    net = random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=6, x_range=(0.1, 1.0)), 3)
    S = build_sensitivity(net).restrict(np.arange(0, net.n, 2))
    n = S.n
    rng = np.random.default_rng(0)
    y = rng.uniform(0.5, 2.0, n)
    dv = rng.uniform(-0.1, 0.1, n)
    vt = dynamics.OperatingConstants(1.0 + dv, dv)
    ctrl = ControlSpec(1.0 / y, np.full(n, 0.02), np.full(n, -0.05), np.full(n, 0.05))
    no_dense_build(monkeypatch)
    for objective in ("F", "W"):
        assert solve_iterative(objective, S, ctrl, vt).residual < 1e-10
        solve_iterative(objective, S, ControlSpec.quadratic(y), vt)
    assert posa_constrained(S, ctrl, vt) >= -1e-12
    for path, alpha in (("sce42", 9.0), (tree, tree_alpha)):
        for law in ("taking", "anticipating"):
            out = tmp_path / "eq.json"
            argv = ["equilibrium", path, "--law", law, "--alpha", str(alpha), "--delta", "0.02",
                    "--out", str(out)]
            assert main(argv) == 0, argv
            assert '"q"' in out.read_text()


@settings(max_examples=30, deadline=None)
@given(feeders(st.floats(0.0, 1.0), st.floats(1e-3, 2.0)), st.data())
def test_certificates_build_nothing_dense(net, data):
    S = build_sensitivity(net)
    idx = data.draw(st.lists(st.integers(0, S.n - 1), min_size=1, max_size=S.n, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    with pytest.MonkeyPatch.context() as mp:
        no_dense_build(mp)
        for sub in (S, S.restrict(idx)):
            ctrl = ControlSpec(rng.uniform(0.05, 5.0, sub.n), np.zeros(sub.n),
                               np.full(sub.n, -np.inf), np.full(sub.n, np.inf))
            rep = dynamics.condition_report(sub, ctrl)
            assert rep.sigma_anticipating < rep.sigma_taking
        assert "X" not in vars(S)


@pytest.mark.parametrize("ac", [False, True], ids=["linear", "ac"])
def test_alpha_sweep_builds_nothing_dense(tmp_path, monkeypatch, ac):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "alpha", "alphas": [4.0, 30.0], "delta": 0.02,
                                "ac": ac}))
    out = tmp_path / "sweep.csv"
    no_dense_build(monkeypatch)
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 6  # schema, header and two laws at each slope


def test_chain_of_100k_buses_runs_matrix_free(monkeypatch):
    n = 100_000
    rng = np.random.default_rng(0)
    xs = 1e-7 * rng.uniform(0.5, 1.5, n)
    net = chain_feeder(xs, rs=0.5 * xs, buses=tuple(BusData(p_c=1e-4, q_c=5e-5)
                                                     for _ in range(n)))
    no_dense_build(monkeypatch)
    S, vt, _ = restricted_model(net)
    # alpha_i = c / (X 1)_i makes every row of diag(alpha) X sum to c, so the
    # taking iteration contracts at rate c (Perron-Frobenius)
    ctrl = ControlSpec(0.5 / S.matvec(np.ones(n)), np.zeros(n), np.full(n, -np.inf),
                       np.full(n, np.inf))
    trace = dynamics.run(dynamics.taking_stepper(S, ctrl, vt), np.zeros(n), tol=1e-10)
    assert trace.converged
    assert np.all(np.isfinite(trace.q_final))
