import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltgame.equilibrium import posa_report
from voltgame.sensitivity import (
    IndexOutOfRangeError,
    SensitivitySet,
    build_sensitivity,
    chain_eigen_bounds,
)
from voltgame.topology import (
    BusData,
    DegreeDistribution,
    Line,
    RadialNetwork,
    chain_network,
    random_tree,
    tree_laplacian,
)

from oracles import (
    EmptyChainError,
    chain_feeder,
    chain_x_inverse,
    path_to_root,
    self_sensitivities,
    sensitivity_by_paths,
    shared_path_sums,
    uniform_chain_eigenvalues,
)
from strategies import feeders


def fig_tree(a=2.0, b=3.0, c=5.0, d=7.0, rs=(0.1, 0.2, 0.3, 0.4)):
    lines = (Line(0, 1, rs[0], a), Line(1, 2, rs[1], b), Line(2, 3, rs[2], c), Line(1, 4, rs[3], d))
    return RadialNetwork(n=4, lines=lines, buses=tuple(BusData() for _ in range(4)))


def random_tree_for(seed, depth=6, x_range=(0.1, 2.0)):
    dist = DegreeDistribution({1: 0.4, 2: 0.4, 3: 0.2}, max_depth=depth, x_range=x_range)
    return random_tree(dist, seed)


def star(xs, rs):
    """Root line to node 1, then lines from node 1 to nodes 2..n."""
    lines = tuple(Line(0 if k == 1 else 1, k, rs[k - 1], xs[k - 1]) for k in range(1, len(xs) + 1))
    return RadialNetwork(n=len(xs), lines=lines, buses=tuple(BusData() for _ in xs))


def assert_exact_build(net):
    """X and R match the path oracle, equal the level build to the bit, are exactly
    symmetric, and diag(X) is traversal.d."""
    S = build_sensitivity(net)
    np.testing.assert_allclose(S.X, sensitivity_by_paths(net, "x"), rtol=0, atol=1e-12)
    np.testing.assert_allclose(S.R, sensitivity_by_paths(net, "r"), rtol=0, atol=1e-12)
    assert np.array_equal(S.X, shared_path_sums(net, "x"))
    assert np.array_equal(S.R, shared_path_sums(net, "r"))
    assert np.array_equal(S.X, S.X.T) and np.array_equal(S.R, S.R.T)
    assert np.array_equal(np.diag(S.X), net.traversal.d)
    return S


class TestBuild:
    def test_chain(self):
        a, b = 1.5, 2.5
        S = assert_exact_build(chain_feeder([a, b], rs=[0.5, 0.25]))
        np.testing.assert_allclose(S.X, [[a, a], [a, a + b]])
        assert S.R.tolist() == [[0.5, 0.5], [0.5, 0.75]]

    def test_fig_tree_printed_matrix(self):
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        S = build_sensitivity(fig_tree(a, b, c, d))
        expected = np.array([
            [a, a, a, a],
            [a, a + b, a + b, a],
            [a, a + b, a + b + c, a],
            [a, a, a, a + d],
        ])
        np.testing.assert_allclose(S.X, expected)

    def test_single_bus(self):
        S = assert_exact_build(chain_feeder([3.0], rs=[0.25]))
        np.testing.assert_allclose(S.X, [[3.0]])
        assert S.R.tolist() == [[0.25]]

    def test_against_path_oracle(self):
        for seed in range(5):
            net = random_tree_for(seed)
            S = build_sensitivity(net)
            np.testing.assert_allclose(S.X, sensitivity_by_paths(net, "x"), atol=1e-12)
            np.testing.assert_allclose(S.R, sensitivity_by_paths(net, "r"), atol=1e-12)

    def test_r_matrix_uses_resistances(self):
        net = fig_tree()
        S = build_sensitivity(net)
        np.testing.assert_allclose(S.R, sensitivity_by_paths(net, "r"), atol=1e-14)

    def test_positive_definite(self):
        for seed in range(5):
            S = build_sensitivity(random_tree_for(seed))
            w = np.linalg.eigvalsh(S.X)
            assert w[0] > 1e-12 * w[-1]

    def test_diag_is_root_path_reactance(self):
        net = random_tree_for(2)
        S = build_sensitivity(net)
        for i in range(1, net.n + 1):
            total = sum(ln.x for ln in path_to_root(net, i))
            assert S.X[i - 1, i - 1] == pytest.approx(total, rel=1e-12)

    def test_mutual_below_self(self):
        S = build_sensitivity(random_tree_for(4))
        d = np.diag(S.X)
        assert np.all(S.X <= np.minimum.outer(d, d) + 1e-12)

    def test_decomposition_identity(self):
        S = build_sensitivity(random_tree_for(1))
        np.testing.assert_array_equal(np.diag(self_sensitivities(S)) + (S.X - np.diag(S.d)), S.X)

    def test_restriction_matches_direct_submatrix(self):
        net = random_tree_for(3)
        S = build_sensitivity(net)
        idx = np.array([0, 2, min(5, net.n - 1)])
        sub = S.restrict(idx)
        Xo = sensitivity_by_paths(net, "x")
        np.testing.assert_allclose(sub.X, Xo[np.ix_(idx, idx)], atol=1e-12)

    def test_restriction_records_feeder_and_composes_indices(self):
        net = random_tree_for(3)
        S = build_sensitivity(net)
        assert S.net is net
        np.testing.assert_array_equal(S.idx, np.arange(net.n))
        assert S.restrict(np.arange(net.n)) is S
        sub = S.restrict([5, 0, 2, 7]).restrict([3, 1])
        assert sub.net is net
        np.testing.assert_array_equal(sub.idx, [7, 0])
        np.testing.assert_array_equal(sub.X, S.X[np.ix_([7, 0], [7, 0])])

    @pytest.mark.parametrize("idx", [[0, 0], [-1], [4], [[0, 1]]],
                             ids=["duplicate", "negative", "too-large", "2-D"])
    def test_restriction_rejects_bad_indices(self, idx):
        S = build_sensitivity(chain_network([1.0] * 4))
        with pytest.raises(ValueError, match=r"distinct matrix indices in 0\.\.3$"):
            S.restrict(idx)
        with pytest.raises(ValueError, match=r"distinct matrix indices in 0\.\.3$"):
            SensitivitySet(net=S.net, idx=np.array(idx))
        # indices of a restricted set address that set, not the feeder
        with pytest.raises(ValueError, match=r"distinct matrix indices in 0\.\.1$"):
            S.restrict([3, 1]).restrict([2])

    @pytest.mark.parametrize("idx", [[True, False], [2.7], np.array([3.0, 1.0])],
                             ids=["mask", "fraction", "whole-floats"])
    def test_non_integer_indices_are_rejected(self, idx):
        # a mask used to be read as the indices [1, 0], and 2.7 as 2
        net = chain_network([1.0] * 4)
        with pytest.raises(ValueError, match="integers"):
            build_sensitivity(net).restrict(idx)
        with pytest.raises(ValueError, match="integers"):
            SensitivitySet(net=net, idx=idx)

    def test_any_integer_dtype_and_the_empty_list_are_indices(self):
        net = chain_network([1.0, 2.0, 0.5, 0.3])
        S = build_sensitivity(net)
        idx = np.array([3, 1], dtype=np.int32)
        np.testing.assert_array_equal(S.restrict(idx).idx, [3, 1])
        assert posa_report(S.restrict(idx), np.ones(2), want_direction=False) == posa_report(
            S.restrict([3, 1]), np.ones(2), want_direction=False)
        assert S.restrict([]).n == 0

    def test_small_restriction_of_a_long_chain_builds_a_small_block(self):
        net = chain_network(np.ones(3000))
        idx = [0, 1000, 2999]
        sub = build_sensitivity(net).restrict(idx)
        sub.matvec(np.ones(3))  # builds the tree factor, outside the trace
        tracemalloc.start()
        try:
            X = sub.X
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # a whole 3 001 x 3 001 level build is 72 MB
        assert np.array_equal(X, shared_path_sums(net, "x", idx))


class TestLevelBuild:
    # shuffled node labels and line order, so traversal order differs from node order
    @settings(max_examples=80, deadline=None)
    @given(feeders(st.floats(0.0, 1.0), st.floats(1e-3, 2.0)), st.data())
    def test_random_feeders(self, net, data):
        S = assert_exact_build(net)
        idx = data.draw(st.lists(st.integers(0, net.n - 1), min_size=1, max_size=net.n,
                                 unique=True))
        sub = build_sensitivity(net).restrict(idx)  # a fresh set, so its X is built anew
        assert np.array_equal(sub.X, shared_path_sums(net, "x", idx))
        assert np.array_equal(sub.R, shared_path_sums(net, "r", idx))
        assert np.array_equal(sub.X, S.X[np.ix_(idx, idx)])

    def test_star(self):
        rng = np.random.default_rng(5)
        xs, rs = rng.uniform(0.1, 2.0, 12), rng.uniform(0.0, 1.0, 12)
        S = assert_exact_build(star(xs, rs))
        # leaves share only the root line: every off-diagonal entry is x01
        off = ~np.eye(12, dtype=bool)
        assert np.all(S.X[off] == xs[0]) and np.all(S.R[off] == rs[0])

    def test_chain_300(self):
        rng = np.random.default_rng(6)
        xs, rs = rng.uniform(0.1, 2.0, 300), rng.uniform(0.0, 1.0, 300)
        S = build_sensitivity(chain_feeder(xs, rs=rs))
        # on a chain the shared path of i and j is the root path of min(i, j)
        shallower = np.minimum.outer(np.arange(300), np.arange(300))
        assert np.array_equal(S.X, np.cumsum(xs)[shallower])
        assert np.array_equal(S.R, np.cumsum(rs)[shallower])

    def test_restrict_to_all_returns_same_arrays(self):
        S = build_sensitivity(random_tree_for(3))
        full = S.restrict(np.arange(S.n))
        assert full is S
        assert np.array_equal(full.X, S.X) and np.array_equal(full.R, S.R)

    def test_restrict_proper_subset_is_principal_submatrix(self):
        S = build_sensitivity(random_tree_for(3))
        for idx in (np.arange(S.n - 1), np.arange(1, S.n), np.array([4, 0, 2]),
                    np.arange(S.n)[::-1]):
            sub = S.restrict(idx)
            assert sub is not S
            assert np.array_equal(sub.X, S.X[np.ix_(idx, idx)])
            assert np.array_equal(sub.R, S.R[np.ix_(idx, idx)])


class TestAnalyticInverse:
    def test_fig_tree_printed_inverse(self):
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        Xinv = tree_laplacian(fig_tree(a, b, c, d)).toarray()
        assert Xinv[0, 0] == pytest.approx((b + d) / (b * d) + 1 / a)
        expected = np.array([
            [(b + d) / (b * d) + 1 / a, -1 / b, 0, -1 / d],
            [-1 / b, (b + c) / (b * c), -1 / c, 0],
            [0, -1 / c, 1 / c, 0],
            [-1 / d, 0, 0, 1 / d],
        ])
        np.testing.assert_allclose(Xinv, expected, atol=1e-15)

    def test_two_bus_chain_hand_inverse(self):
        a, b = 1.3, 0.7
        Xinv = tree_laplacian(chain_network([a, b])).toarray()
        np.testing.assert_allclose(Xinv, [[1 / a + 1 / b, -1 / b], [-1 / b, 1 / b]], atol=1e-14)

    def test_identity_on_random_trees(self):
        for seed in range(8):
            net = random_tree_for(seed)
            S = build_sensitivity(net)
            P = tree_laplacian(net).toarray() @ S.X
            err = np.linalg.norm(P - np.eye(net.n)) / np.sqrt(net.n)
            assert err < 1e-10

    def test_row_sums_single_nonzero_at_root_child(self):
        net = random_tree_for(6)
        Xinv = tree_laplacian(net).toarray()
        sums = Xinv @ np.ones(net.n)
        x01 = [ln.x for ln in net.lines if ln.from_node == 0][0]
        assert sums[0] == pytest.approx(1.0 / x01, rel=1e-12)
        np.testing.assert_allclose(sums[1:], 0.0, atol=1e-12)

    def test_sparsity_is_tree_adjacency(self):
        net = random_tree_for(7)
        Xinv = tree_laplacian(net).toarray()
        adjacent = set()
        for ln in net.lines:
            if ln.from_node != 0:
                adjacent.add((ln.from_node - 1, ln.to_node - 1))
                adjacent.add((ln.to_node - 1, ln.from_node - 1))
        nz = set(zip(*np.nonzero(Xinv)))
        off_diag = {(i, j) for i, j in nz if i != j}
        assert off_diag == adjacent


class TestChainInverse:
    def test_matches_analytic_on_chain(self):
        xs = [1.1, 0.4, 2.2]
        np.testing.assert_allclose(chain_x_inverse(xs),
                                   tree_laplacian(chain_network(xs)).toarray(), atol=1e-14)

    def test_printed_uniform_matrix(self):
        np.testing.assert_allclose(chain_x_inverse([1.0, 1.0, 1.0]),
                                   [[2, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_single_line(self):
        np.testing.assert_allclose(chain_x_inverse([4.0]), [[0.25]])

    def test_empty_chain(self):
        with pytest.raises(EmptyChainError):
            chain_x_inverse([])


class TestChainEigen:
    def test_n1_forced_value(self):
        lam = uniform_chain_eigenvalues(1, 1.0)
        assert lam[0] == pytest.approx(2 + 2 * np.cos(2 * np.pi / 3))
        assert lam[0] == pytest.approx(1.0)

    def test_matches_numeric_eigensolver(self):
        for n, a in [(3, 1.0), (7, 0.3), (40, 2.5)]:
            lam = uniform_chain_eigenvalues(n, a)
            num = np.linalg.eigvalsh(chain_x_inverse([a] * n))[::-1]
            np.testing.assert_allclose(lam, num, rtol=1e-12)

    def test_lambda_min_of_X(self):
        n, a = 9, 1.4
        lam_min_X = a / (2 + 2 * np.cos(2 * np.pi / (2 * n + 1)))
        num = np.linalg.eigvalsh(np.linalg.inv(chain_x_inverse([a] * n)))[0]
        assert lam_min_X == pytest.approx(num, rel=1e-10)

    def test_descending(self):
        lam = uniform_chain_eigenvalues(25, 0.7)
        assert np.all(np.diff(lam) < 0)


class TestChainEigenBounds:
    def test_interval_collapse(self):
        n, a = 6, 1.2
        lam_X = np.sort(1.0 / uniform_chain_eigenvalues(n, a))[::-1]
        for k in range(1, n + 1):
            lo, hi = chain_eigen_bounds(n, a, a, k)
            assert lo == pytest.approx(hi)
            assert lo == pytest.approx(lam_X[k - 1], rel=1e-12)

    def test_brackets_random_chains(self):
        rng = np.random.default_rng(0)
        n, a, b = 5, 1.0, 2.0
        for _ in range(50):
            xs = rng.uniform(a, b, size=n)
            lam = np.linalg.eigvalsh(np.linalg.inv(chain_x_inverse(xs)))[::-1]
            for k in range(1, n + 1):
                lo, hi = chain_eigen_bounds(n, a, b, k)
                assert lo - 1e-12 <= lam[k - 1] <= hi + 1e-12

    def test_monotone_in_each_reactance(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.5, 1.5, size=6)
        base = np.linalg.eigvalsh(np.linalg.inv(chain_x_inverse(xs)))
        for i in range(6):
            bumped = xs.copy()
            bumped[i] += 0.3
            lam = np.linalg.eigvalsh(np.linalg.inv(chain_x_inverse(bumped)))
            assert np.all(lam >= base - 1e-10)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            chain_eigen_bounds(4, 1.0, 2.0, 5)
        with pytest.raises(ValueError):
            chain_eigen_bounds(4, 2.0, 1.0, 2)
