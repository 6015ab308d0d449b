"""Voltage-to-injection sensitivity matrices for radial feeders.

X[i,j] (R[i,j]) is the total reactance (resistance) on the lines shared by
the root paths of buses i+1 and j+1, i.e. the root-path sum of their lowest
common ancestor.  :func:`build_sensitivity` fills both matrices from the
network's cached traversal, one depth level at a time, by copying parent
rows, in O(n^2).  X is symmetric positive definite for any valid feeder; its
inverse is sparse with tree-adjacency structure and has a closed form built
from the reciprocal-weight Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .topology import RadialNetwork, Traversal, tree_laplacian


class IndexOutOfRangeError(IndexError):
    pass


@dataclass(frozen=True)
class SensitivitySet:
    """Dense sensitivity matrices of a feeder's actuator set (immutable, share freely).

    net is the feeder the matrices were built from and idx the matrix
    indices (bus k -> k-1) of the buses they cover, in matrix order: X is
    the principal submatrix of the feeder's reactance matrix on idx.  The
    sparse routines, such as :func:`voltgame.equilibrium.tree_posa_report`,
    work from net and idx alone.
    """

    X: np.ndarray
    R: np.ndarray
    net: RadialNetwork = field(repr=False)
    idx: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def Xbar(self) -> np.ndarray:
        """X with its diagonal zeroed (mutual sensitivities only)."""
        Xb = self.X.copy()
        np.fill_diagonal(Xb, 0.0)
        return Xb

    def restrict(self, idx) -> "SensitivitySet":
        """Principal submatrix on the given matrix indices (actuator subset).

        Indices 0..n-1 in order select the whole set, which is returned as is.
        """
        idx = np.asarray(idx, dtype=int)
        if np.array_equal(idx, np.arange(self.n)):
            return self
        return SensitivitySet(X=self.X[np.ix_(idx, idx)], R=self.R[np.ix_(idx, idx)],
                              net=self.net, idx=self.idx[idx])


def _shared_path_sums(tr: Traversal, w: np.ndarray) -> np.ndarray:
    """M[i, j] = total weight w on the lines shared by the root paths of i+1 and j+1.

    The shared path of two nodes ends at their lowest common ancestor, so a
    node's entry with a shallower node is its parent's, its entry with
    another node of its own level is that of the two parents, and only the
    diagonal, its own root-path sum, is new; entries with deeper nodes come
    from their rows by symmetry.  Filled one depth level at a time in
    traversal order, with a zero row and column at position n for the root,
    then permuted back to node order.  Every off-diagonal entry is copied,
    never recomputed, so M is exactly symmetric.
    """
    n = tr.order.size
    up = tr.up
    s = np.zeros(n + 1)  # root-path sums in traversal order; s[n] is the root's 0
    M = np.zeros((n + 1, n + 1))
    for lv in tr.levels:
        a = lv.start
        u = up[lv]
        s[lv] = s[u] + w[tr.order[lv] - 1]
        M[lv, :a] = M[u, :a]
        M[:a, lv] = M[lv, :a].T
        block = M[np.ix_(u, u)]
        np.fill_diagonal(block, s[lv])
        M[lv, lv] = block
    node = np.empty(n, dtype=int)
    node[tr.order - 1] = np.arange(n)  # node[i]: traversal position of node i+1
    return M[np.ix_(node, node)]


def build_sensitivity(net: RadialNetwork) -> SensitivitySet:
    """Assemble X and R from shared root-path sums.

    X[i, j] (R[i, j]) is the root-path reactance (resistance) of the lowest
    common ancestor of buses i+1 and j+1.  Each depth level copies its
    parents' rows and sets its own root-path sums on the diagonal, so the
    build is O(n^2) and diag(X) equals ``net.traversal.d``.
    """
    tr = net.traversal  # validates the network on first use
    return SensitivitySet(X=_shared_path_sums(tr, tr.x), R=_shared_path_sums(tr, tr.r),
                          net=net, idx=np.arange(net.n))


def x_inverse_analytic(net: RadialNetwork) -> np.ndarray:
    """Closed-form inverse of the reactance matrix, dense.

    Equals the reciprocal-weight tree Laplacian (root line excluded) plus
    1/x01 added at the entry of the root's child.  Nonzeros only at
    tree-adjacent pairs and the diagonal; :func:`tree_laplacian` gives the
    same matrix in sparse form.
    """
    return tree_laplacian(net).toarray()


def uniform_chain_eigenvalues(n: int, a: float) -> np.ndarray:
    """Eigenvalues of the inverse reactance matrix of a uniform chain.

    Returns (2/a)(1 + cos(2 k pi / (2n+1))) for k = 1..n, which is
    descending; the reciprocal of the last entry is the largest eigenvalue
    of X itself.
    """
    if n < 1:
        raise IndexOutOfRangeError("n must be >= 1")
    if a <= 0:
        raise ValueError("reactance must be positive")
    k = np.arange(1, n + 1)
    return (2.0 / a) * (1.0 + np.cos(2.0 * k * np.pi / (2 * n + 1)))


def chain_eigen_bounds(n: int, a: float, b: float, k: int) -> tuple[float, float]:
    """Bracket the k-th largest eigenvalue of X for a chain with x in [a, b].

    Raising any line reactance cannot decrease any eigenvalue of X, so the
    uniform-a and uniform-b chains bound every eigenvalue from below and
    above; both ends come from the closed form.
    """
    if not 0 < a <= b:
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    if not 1 <= k <= n:
        raise IndexOutOfRangeError(f"k={k} not in 1..{n}")
    angle = 2.0 * (n - k + 1) * np.pi / (2 * n + 1)
    denom = 2.0 + 2.0 * np.cos(angle)
    return a / denom, b / denom
