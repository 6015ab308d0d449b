"""The tree-sparse PoSA report, posa_report, against the dense oracle oracles.posa_report."""

import json

from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from voltgame import cli, equilibrium
from voltgame.controls import ControlSpec
from voltgame.dynamics import OperatingConstants
from voltgame.equilibrium import (
    BoundOrderingError,
    _bounds_report,
    posa_report,
    solve_iterative,
)
from strategies import feeders
from voltgame.experiments import SweepSpec, load_sce42, run_sweep
from voltgame.sensitivity import SensitivitySet, build_sensitivity
from voltgame.topology import (
    BusData,
    DegreeDistribution,
    Line,
    RadialNetwork,
    _TreeFactor,
    chain_network,
    random_instance,
    tree_laplacian,
)

BOUND_FIELDS = ("posa_max", "upper", "refined_upper", "lower", "lower_clamped",
                "gap_bound", "d", "y")
RTOL = 1e-9   # PosaReport.ordering_ok's tolerance


def trees():
    return feeders(st.just(0.0), st.floats(1e-2, 200.0))


def costs(n):
    return st.lists(st.floats(1e-2, 100.0), min_size=n, max_size=n).map(np.array)


def assert_close(got, want, names):
    for name in names:
        g, w = getattr(got, name), getattr(want, name)
        assert abs(g - w) <= RTOL * max(1.0, abs(w)), (name, g, w)


def whole_feeder_report(net, y):
    return posa_report(build_sensitivity(net), y, want_direction=False)


def assert_matches_dense(net, y):
    got = whole_feeder_report(net, y)
    assert_close(got, oracles.posa_report(build_sensitivity(net), y, want_direction=False),
                 BOUND_FIELDS)
    assert got.posa is None and got.worst_direction is None


def pi_top_gap(S, y):
    """(lambda_1 - lambda_2) / lambda_1 of the dense PoSA kernel."""
    w = np.linalg.eigvalsh(oracles.pi_matrix(S, y))
    return 1.0 if w.size == 1 else (w[-1] - w[-2]) / w[-1]


def assert_restricted_matches_dense(net, idx, y, dv):
    S = build_sensitivity(net).restrict(idx)
    vt = OperatingConstants(1.0 + dv, dv)
    got = posa_report(S, y, vt=vt)
    want = oracles.posa_report(S, y, vt=vt)
    assert_close(got, want, BOUND_FIELDS + ("posa",))
    e = got.worst_direction
    assert np.linalg.norm(e) == pytest.approx(1.0, rel=1e-12)
    assert e[np.argmax(np.abs(e))] > 0
    if pi_top_gap(S, y) >= 1e-6:
        assert abs(float(e @ want.worst_direction)) >= 1.0 - 1e-9


class TestMatchesDense:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_trees(self, data):
        net = data.draw(trees())
        assert_matches_dense(net, data.draw(costs(net.n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 300])
    def test_uniform_chain(self, n):
        assert_matches_dense(chain_network([1.0] * n), np.ones(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 300])
    def test_random_chain(self, n):
        rng = np.random.default_rng(n)
        assert_matches_dense(chain_network(rng.uniform(1e-2, 200.0, n)),
                             rng.uniform(1e-2, 100.0, n))

    def test_rejects_bad_costs(self):
        net = chain_network([1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            whole_feeder_report(net, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="per bus"):
            whole_feeder_report(net, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_costs(self, bad):
        net = chain_network([1.0, 2.0, 0.5])
        y = np.array([1.0, bad, bad])
        with pytest.raises(ValueError, match="bus 2 has"):
            whole_feeder_report(net, y)

    def test_repeats_to_the_bit(self):
        rng = np.random.default_rng(4)
        net = chain_network(rng.uniform(1e-2, 200.0, 400))
        y = rng.uniform(1e-2, 100.0, 400)
        assert whole_feeder_report(net, y) == whole_feeder_report(net, y)

    def test_repeats_on_a_star_with_a_rounding_noise_lower_bound(self):
        # the top eigenvalue of M^-1 - 2 N^-1 is 0 up to rounding here, and
        # Lanczos finds an invariant subspace and restarts from a random vector
        lines = tuple(Line(0 if k == 1 else 1, k, 0.0, 0.5) for k in range(1, 6))
        net = RadialNetwork(n=5, lines=lines, buses=tuple(BusData() for _ in range(5)))
        y = np.full(5, 0.5)
        reports = [whole_feeder_report(net, y) for _ in range(20)]
        for name in BOUND_FIELDS:
            assert len({getattr(r, name) for r in reports}) == 1, name


class TestActuatorSubsets:
    """Restricted reports, realized gaps and worst directions against the dense oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_trees(self, data):
        net = data.draw(trees())
        n = net.n
        idx = np.array(data.draw(st.one_of(
            st.just(list(range(n))),
            st.integers(0, n - 1).map(lambda i: [i]),
            st.sets(st.integers(0, n - 1), min_size=1).map(sorted),
        )))
        k = idx.size
        dv = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k).map(np.array))
        assert_restricted_matches_dense(net, idx, data.draw(costs(k)), dv)

    @pytest.mark.parametrize("y", [0.01, 0.1, 1.0, 10.0])
    def test_sce42_actuators(self, y):
        net = load_sce42().net
        idx = net.actuator_indices()
        dv = np.random.default_rng(7).uniform(-0.1, 0.1, idx.size)
        assert_restricted_matches_dense(net, idx, np.full(idx.size, y), dv)

    def test_all_buses_is_the_whole_feeder(self):
        rng = np.random.default_rng(3)
        net = chain_network(rng.uniform(1e-2, 200.0, 60))
        y = rng.uniform(1e-2, 100.0, 60)
        every_bus = SensitivitySet(net=net, idx=np.arange(60))
        assert posa_report(every_bus, y, want_direction=False) == whole_feeder_report(net, y)

    @pytest.mark.parametrize("idx", [[], [0, 0], [-1], [3], [[0, 1]]])
    def test_rejects_bad_actuator_sets(self, idx):
        # the empty set reaches the report; the others fail to form a set
        S = build_sensitivity(chain_network([1.0, 2.0, 0.5]))
        with pytest.raises(ValueError, match="actuators" if idx == [] else
                           r"distinct matrix indices in 0\.\.2$"):
            posa_report(S.restrict(idx), np.ones(1))

    def test_bad_cost_names_the_bus(self):
        S = build_sensitivity(chain_network([1.0, 2.0, 0.5])).restrict([0, 2])
        with pytest.raises(ValueError, match="bus 3 has"):
            posa_report(S, np.array([1.0, -1.0]))

    def test_rejects_offsets_of_the_wrong_length(self):
        vt = OperatingConstants(np.ones(3), np.zeros(3))
        S = build_sensitivity(chain_network([1.0, 2.0, 0.5])).restrict([0, 2])
        with pytest.raises(ValueError, match="voltage offset"):
            posa_report(S, np.ones(2), vt=vt)

    def test_factors_m_and_n_once_each(self):
        import scipy.sparse.linalg as sla

        S = build_sensitivity(chain_network([1.0, 2.0, 0.5, 0.3])).restrict([1, 3])
        vt = OperatingConstants(np.ones(2), np.array([0.1, -0.2]))
        with mock.patch.object(sla, "splu", wraps=sla.splu) as factor:
            r = posa_report(S, np.ones(2), vt=vt)
        assert factor.call_count == 2
        assert r.posa is not None and r.worst_direction is not None


def _no_dense(*args, **kwargs):
    raise AssertionError("dense PoSA path called")


class TestNoDensePath:
    """The restricted PoSA commands run with every dense solver patched to raise."""

    @pytest.fixture(autouse=True)
    def dense_raises(self, monkeypatch):
        for name in ("scipy.linalg.cho_factor", "numpy.linalg.eigh",
                     "numpy.linalg.eigvalsh", "voltgame.sensitivity._dense_block"):
            monkeypatch.setattr(name, _no_dense)

    def test_cli_posa(self, capsys):
        assert cli.main(["posa", "sce42", "--y", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["posa"] > 0 and len(doc["worst_direction"]) == 5

    def test_cost_coefficient_sweep(self):
        rows = run_sweep(SweepSpec(kind="cost-coefficient", y_values=[0.05, 0.2]))
        assert [r["y"] for r in rows] == [0.05, 0.2]


class TestOneFactorPerFeeder:
    """The leaf-first part of a feeder's tree factor is built once and shared."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = _TreeFactor.leaf_first.func

        def counted(tree):
            built.append(tree)
            return build(tree)

        prop = cached_property(counted)
        prop.__set_name__(_TreeFactor, "leaf_first")
        monkeypatch.setattr(_TreeFactor, "leaf_first", prop)
        return built

    def test_report_and_solves_on_restrictions(self, builds):
        net, y = random_instance(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=6), 3)
        S = build_sensitivity(net)
        posa_report(S, y)
        rng = np.random.default_rng(0)
        for T in (S, S.restrict(np.arange(0, S.n, 2))):
            dv = rng.uniform(-0.1, 0.1, T.n)
            vt = OperatingConstants(1.0 + dv, dv)
            ctrl = ControlSpec(1.0 / y[T.idx], np.full(T.n, 0.02), np.full(T.n, -0.05),
                               np.full(T.n, 0.05))
            for objective in ("F", "W"):
                solve_iterative(objective, T, ctrl, vt)
        assert len(builds) == 1

    def test_cost_coefficient_sweep(self, builds):
        run_sweep(SweepSpec(kind="cost-coefficient", y_values=[0.05, 0.2]))
        assert len(builds) == 1


class TestInertiaCount:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_dense_eigenvalue_count(self, data):
        net = data.draw(trees())
        n = net.n
        # g = 0 is the reactance matrix X itself
        g = data.draw(st.one_of(st.just(np.zeros(n)), costs(n)))
        eig = np.linalg.eigvalsh(build_sensitivity(net).X + np.diag(g))
        sigma = data.draw(st.floats(0.5 * eig[0], 1.5 * eig[-1]))
        assume(np.min(np.abs(eig - sigma)) > 1e-9 * eig[-1])   # no eigenvalue within rounding
        tree = net.traversal.factor
        assert tree.count_below(np.arange(n), g, sigma) == np.count_nonzero(eig < sigma)

    def test_shift_on_a_cost_coefficient(self):
        # sigma equal to some g_i makes diag(1/(g - sigma)) singular
        net = chain_network([1.0, 0.5, 2.0])
        g = np.array([0.3, 0.7, 1.1])
        eig = np.linalg.eigvalsh(build_sensitivity(net).X + np.diag(g))
        assert (net.traversal.factor.count_below(np.arange(3), g, 0.7)
                == np.count_nonzero(eig < 0.7))


def smallest_eigenvalues(net, y):
    """lambda_min of X, M and N as posa_report passes them on."""
    with mock.patch.object(equilibrium, "_bounds_report", wraps=_bounds_report) as spy:
        whole_feeder_report(net, y)
    args = spy.call_args.args
    return args[3], args[1], args[2]


def full_bracket_bisection(net, y):
    """lambda_min of X, M and N by bisection of the whole Weyl/Gershgorin brackets."""
    tree = net.traversal.factor
    d = net.traversal.d
    act = np.arange(net.n)
    lam_x = tree.lambda_min(act, np.zeros(net.n), *tree.leaf_first.x_bracket)
    return (lam_x,) + tuple(
        tree.lambda_min(act, g, lam_x + np.min(g), min(np.min(d + g), lam_x + np.max(g)))
        for g in (y, d + y))


class TestLambdaMinEstimate:
    """The estimate only narrows the bisection bracket; it never moves a bit."""

    ESTIMATES = {
        "as_is": lambda est: est,
        "10% low": lambda est: None if est is None else 0.9 * est,
        "10% high": lambda est: None if est is None else 1.1 * est,
        "unavailable": lambda est: None,
    }

    def assert_bit_for_bit(self, net, y):
        want = full_bracket_bisection(net, y)
        estimate = equilibrium._lambda_min_estimate
        for name, skew in self.ESTIMATES.items():
            with mock.patch.object(equilibrium, "_lambda_min_estimate",
                                   lambda inverse, n: skew(estimate(inverse, n))):
                assert smallest_eigenvalues(net, y) == want, name

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_trees(self, data):
        net = data.draw(trees())
        self.assert_bit_for_bit(net, data.draw(costs(net.n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 300])
    def test_uniform_chain(self, n):
        self.assert_bit_for_bit(chain_network([1.0] * n), np.ones(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 300])
    def test_random_chain(self, n):
        rng = np.random.default_rng(n)
        self.assert_bit_for_bit(chain_network(rng.uniform(1e-2, 200.0, n)),
                                rng.uniform(1e-2, 100.0, n))

    def test_depth15_tree_needs_few_counts(self):
        # the seed-42 binary tree of depth 15 (1 199 buses); bisecting the
        # three whole brackets takes about 160 counts
        net, y = random_instance(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=15), 42)
        assert net.n == 1199
        with mock.patch.object(_TreeFactor, "count_below", autospec=True,
                               side_effect=_TreeFactor.count_below) as count:
            whole_feeder_report(net, y)
        assert 6 <= count.call_count <= 40


class TestSparseInverse:
    @settings(max_examples=30, deadline=None)
    @given(trees())
    def test_inverts_x_and_d_is_its_diagonal(self, net):
        X = build_sensitivity(net).X
        err = np.abs(tree_laplacian(net) @ X - np.eye(net.n))
        assert np.max(err) < 1e-9
        np.testing.assert_allclose(net.traversal.d, np.diag(X), rtol=1e-13)


class TestBoundOrderingError:
    # posa_max 0.2, upper = gap_bound 5e6, refined_upper 1.25e6, lower 0.1
    ORDERED = dict(lam_pi=0.4, lam_min_M=1e-7, lam_min_N=2e-7, lam_min_X=1.0,
                   lam_lower=0.2, d=2.0, y=1.0)

    def test_ordered_report_passes(self):
        report = _bounds_report(**self.ORDERED)
        assert report.ordering_ok()
        assert (report.posa_max, report.upper, report.lower) == (0.2, 5e6, 0.1)

    @pytest.mark.parametrize("spectral", [
        {"lam_lower": 0.5},         # lower above posa_max
        {"lam_pi": 3e6},            # posa_max above refined_upper
        {"lam_min_X": -2.5},        # refined_upper above upper
        {"lam_min_N": 1e-6},        # gap_bound below upper - lower
    ])
    def test_violation_is_typed(self, spectral):
        values = {**self.ORDERED, **spectral}
        with pytest.raises(BoundOrderingError) as info:
            _bounds_report(**values)
        err = info.value
        assert not isinstance(err, AssertionError)
        assert not err.report.ordering_ok()
        assert err.report.posa_max == 0.5 * values["lam_pi"]
        assert (err.lam_min_M, err.lam_min_N) == (values["lam_min_M"], values["lam_min_N"])
        assert "lambda_min(M)=1.000e-07" in str(err)
