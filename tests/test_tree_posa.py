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
from voltgame.experiments import SweepSpec, load_sce42, restricted_model, run_sweep
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
    size = np.abs(e)  # the first entry within 1e-9 of the largest magnitude is positive
    assert e[np.argmax(size >= (1.0 - 1e-9) * size.max())] > 0
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
        S = build_sensitivity(net)
        assert len({posa_report(S, y).worst_direction.tobytes() for _ in range(20)}) == 1


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

    # each takes and gives an (estimate, Ritz vector) pair
    ESTIMATES = {
        "as_is": lambda est, vec: (est, vec),
        "10% low": lambda est, vec: (None if est is None else 0.9 * est, vec),
        "10% high": lambda est, vec: (None if est is None else 1.1 * est, vec),
        "unavailable": lambda est, vec: (None, None),
    }

    def assert_bit_for_bit(self, net, y):
        want = full_bracket_bisection(net, y)
        estimate = equilibrium._lambda_min_estimate
        for name, skew in self.ESTIMATES.items():
            with mock.patch.object(equilibrium, "_lambda_min_estimate",
                                   lambda inverse, n, v0=None: skew(*estimate(inverse, n, v0))):
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


class TestLambdaMinIsTheLastFloat:
    """lambda_min returns the largest float whose inertia count is 0, clamped
    to its bracket, whatever the estimate: no estimate, the Lanczos estimate
    or one 1e-6 relative too high.  From posa_report's bracket, or one ten
    times wider at each end, that is the same float, except where rounding
    puts posa_report's bracket past it: a uniform g makes that bracket the
    one float lambda_min(X_AA) + g, which is returned as it is."""

    @staticmethod
    def assert_last_float(tree, act, g, lo, hi, inverse):
        """Check lambda_min(X_AA + diag(g)) on [lo, hi] and the wider bracket,
        and return the largest float whose count is 0."""
        want = tree.lambda_min(act, g, lo / 10.0, hi * 10.0)
        assert tree.count_below(act, g, want) == 0
        assert tree.count_below(act, g, np.nextafter(want, np.inf)) > 0
        estimate = equilibrium._lambda_min_estimate(inverse, act.size)[0]
        for a, b in ((lo, hi), (lo / 10.0, hi * 10.0)):
            # bisection never counts the bracket's ends
            clamped = min(max(want, a), max(a, np.nextafter(b, 0.0)))
            for guess in (None, estimate, want * (1.0 + 1e-6)):
                assert tree.lambda_min(act, g, a, b, guess) == clamped, (a, b, guess)
        return want

    def assert_each_diagonal(self, S, y):
        """g = 0, y and d + y, on posa_report's brackets."""
        tree, act, d = S.net.traversal.factor, S.idx, S.d
        lo, hi = tree.leaf_first.x_bracket
        if np.array_equal(act, np.arange(S.net.n)):
            inverse = tree.leaf_first.L.dot
        else:  # X_AA^{-1} has no sparse form; a small set's is dense
            hi, inverse = float(np.min(d)), np.linalg.inv(S.X).dot
        lam_x = self.assert_last_float(tree, act, np.zeros(S.n), lo, hi, inverse)
        for g in (y, d + y):
            self.assert_last_float(tree, act, g, lam_x + float(np.min(g)),
                                   min(float(np.min(d + g)), lam_x + float(np.max(g))),
                                   tree.inverse(act, g))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_trees(self, data):
        net = data.draw(trees())
        assume(net.n >= 2)
        self.assert_each_diagonal(build_sensitivity(net), data.draw(costs(net.n)))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_chains(self, data):
        n = data.draw(st.integers(2, 100))
        xs = data.draw(st.lists(st.floats(1e-2, 200.0), min_size=n, max_size=n))
        self.assert_each_diagonal(build_sensitivity(chain_network(xs)), data.draw(costs(n)))

    @pytest.mark.parametrize("y", [[1e-2] * 5, [1.0] * 5, [100.0] * 5, [0.1, 3.0, 0.5, 80.0, 2.0]])
    def test_sce42_actuators(self, y):
        S, _, _ = restricted_model(load_sce42().net)
        self.assert_each_diagonal(S, np.array(y))


# posa_max and lower against the random-start oracle, relative to max(1, |upper|);
# the worst seen was 1.3e-13 (lower on the depth-15 tree of seed 9245), and
# ORDERING_RTOL is 1e-9
WARM_RTOL = 1e-12
# fields that come from bisection and solves alone: the start vectors never move a bit
CERTIFIED_FIELDS = ("upper", "refined_upper", "gap_bound", "d", "y", "posa")


def published_depth15_tree(seed):
    dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=15, x_range=(0.0, 200.0),
                              y_range=(0.0, 100.0))
    return random_instance(dist, seed)


def assert_matches_random_start(S, y, vt=None):
    """posa_report against oracles.posa_report_random_start; returns both reports.

    The worst direction is held to WARM_RTOL over the relative top gap of the
    PoSA kernel, by which an eigenvector's error exceeds its eigenvalue's.
    """
    got = posa_report(S, y, vt=vt)
    want = oracles.posa_report_random_start(S, y, vt=vt)
    for name in CERTIFIED_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    slack = WARM_RTOL * max(1.0, abs(want.upper))
    for name in ("posa_max", "lower"):
        assert abs(getattr(got, name) - getattr(want, name)) <= slack, name
    assert got.lower_clamped == max(0.0, got.lower)
    gap = pi_top_gap(S, y)
    if gap > 0.0:
        # signed: the sign rule does not depend on rounding where two entries tie
        err = np.max(np.abs(got.worst_direction - want.worst_direction))
        assert err <= WARM_RTOL / gap, (err, gap)
    return got, want


def mirrored_feeder(seed):
    """A chain of 1-5 buses with x ~ U(0.2, 2), two x = 1 leaves under its last
    bus, and one cost y of 0.5, 1 or 2 at every bus.  The leaves mirror each
    other, so the worst direction can have two entries of one magnitude."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    net = RadialNetwork(n=m + 2, from_node=list(range(m)) + [m, m], to_node=range(1, m + 3),
                        r=np.zeros(m + 2), x=list(rng.uniform(0.2, 2.0, m)) + [1.0, 1.0])
    return net, np.full(m + 2, float(rng.choice([0.5, 1.0, 2.0])))


class TestWarmStart:
    """Runs started from the Ritz vector of the lambda_min(M) estimate agree with
    random starts; the certified fields keep their bits."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_trees(self, data):
        net = data.draw(trees())
        assert_matches_random_start(build_sensitivity(net), data.draw(costs(net.n)))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_chains(self, data):
        n = data.draw(st.integers(1, 100))
        xs = data.draw(st.lists(st.floats(1e-2, 200.0), min_size=n, max_size=n))
        assert_matches_random_start(build_sensitivity(chain_network(xs)), data.draw(costs(n)))

    def test_mirrored_leaves(self):
        # signed directions agree on every feeder; making the largest-magnitude
        # entry positive gave opposite signs on 3 of these 300
        for seed in range(300):
            net, y = mirrored_feeder(seed)
            assert_matches_random_start(build_sensitivity(net), y)

    @pytest.mark.parametrize("seed, y_min", [(1326, 1.5e-3), (9245, 6.9e-4)])
    def test_depth15_trees_with_tiny_costs(self, seed, y_min):
        # the Woodbury solves lose digits when min y << lambda_min(X)
        net, y = published_depth15_tree(seed)
        assert np.min(y) == pytest.approx(y_min, rel=0.05)
        assert_matches_random_start(build_sensitivity(net), y)

    def test_uniform_chain_where_the_estimate_fails(self):
        # a clustered top spectrum: the estimate does not converge, so every
        # run starts from the seeded random vector and nothing moves
        got, want = assert_matches_random_start(build_sensitivity(chain_network([1.0] * 300)),
                                                np.ones(300))
        for name in BOUND_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        assert np.array_equal(got.worst_direction, want.worst_direction)

    @pytest.mark.parametrize("depth, level_costs", [(5, True), (6, False)])
    def test_mirrored_branches(self, depth, level_costs):
        # a complete binary tree with every x 0.5: its mirror-image branches
        # split the eigenvectors into symmetry classes, and a start vector of
        # one class alone missed the top of another (posa_max 1.8e-5 low at
        # depth 5) or stalled (no convergence at depth 6)
        n = 2 ** depth - 1
        net = RadialNetwork(n=n, from_node=[0] + [k // 2 for k in range(2, n + 1)],
                            to_node=list(range(1, n + 1)), r=np.zeros(n), x=np.full(n, 0.5))
        y = 1.0 + net.traversal.d if level_costs else np.full(n, 0.5)
        S = build_sensitivity(net)
        got, _ = assert_matches_random_start(S, y)
        assert_close(got, oracles.posa_report(S, y), BOUND_FIELDS)

    @pytest.mark.parametrize("y", [0.02, 0.1, 0.32])
    def test_sce42_cost_coefficient_instance(self, y):
        S, vt, _ = restricted_model(load_sce42().net)
        assert S.n == 5
        assert_matches_random_start(S, np.full(5, y), vt)

    def test_depth15_tree_needs_few_lanczos_steps(self):
        # the seed-42 tree of TestLambdaMinEstimate; from seeded random
        # vectors its five runs took 175 operator applications
        net, y = random_instance(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=15), 42)
        top = equilibrium._top_eigenpair
        applied = []

        def counted(matvec, n, *args, **kwargs):
            def apply(v):
                applied.append(1)
                return matvec(v)
            return top(apply, n, *args, **kwargs)

        with mock.patch.object(equilibrium, "_top_eigenpair", counted):
            whole_feeder_report(net, y)
        assert len(applied) <= 160


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
