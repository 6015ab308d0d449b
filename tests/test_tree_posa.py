"""The tree-sparse PoSA report against the dense oracle posa_report."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voltgame.equilibrium import (
    BoundOrderingError,
    _bounds_report,
    _LeafFirst,
    posa_report,
    tree_posa_report,
)
from strategies import feeders
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import chain_network, tree_laplacian

BOUND_FIELDS = ("posa_max", "upper", "refined_upper", "lower", "lower_clamped",
                "gap_bound", "d", "y")
RTOL = 1e-9   # PosaReport.ordering_ok's tolerance


def trees():
    return feeders(st.just(0.0), st.floats(1e-2, 200.0))


def costs(n):
    return st.lists(st.floats(1e-2, 100.0), min_size=n, max_size=n).map(np.array)


def assert_matches_dense(net, y):
    got = tree_posa_report(net, y)
    want = posa_report(build_sensitivity(net), y, want_direction=False)
    for name in BOUND_FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert abs(g - w) <= RTOL * max(1.0, abs(w)), (name, g, w)
    assert got.posa is None and got.worst_direction is None


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
            tree_posa_report(net, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="per bus"):
            tree_posa_report(net, np.ones(3))

    def test_repeats_to_the_bit(self):
        rng = np.random.default_rng(4)
        net = chain_network(rng.uniform(1e-2, 200.0, 400))
        y = rng.uniform(1e-2, 100.0, 400)
        assert tree_posa_report(net, y) == tree_posa_report(net, y)


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
        assert _LeafFirst(net).count_below(g, sigma) == np.count_nonzero(eig < sigma)

    def test_shift_on_a_cost_coefficient(self):
        # sigma equal to some g_i makes diag(1/(g - sigma)) singular
        net = chain_network([1.0, 0.5, 2.0])
        g = np.array([0.3, 0.7, 1.1])
        eig = np.linalg.eigvalsh(build_sensitivity(net).X + np.diag(g))
        assert _LeafFirst(net).count_below(g, 0.7) == np.count_nonzero(eig < 0.7)


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
