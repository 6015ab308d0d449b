"""Voltage-to-injection sensitivities of radial feeders.

X[i,j] (R[i,j]) is the total reactance (resistance) on the lines shared by
the root paths of buses i+1 and j+1.  So X = A^T diag(x) A and R = A^T
diag(r) A for the path incidence A (A[e, i] = 1 when the line into e is on
the root path of i): X q is a subtree sum, a scaling by x and a root-path
sum, in O(n).  X is symmetric positive definite; its inverse is the sparse
reciprocal-weight tree Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .topology import RadialNetwork, Traversal, tree_laplacian


class IndexOutOfRangeError(IndexError):
    pass


def _is_index_set(idx: np.ndarray, n: int) -> bool:
    """True when idx is a 1-D array of distinct matrix indices in 0..n-1."""
    return (idx.ndim == 1 and np.unique(idx).size == idx.size
            and (idx.size == 0 or (idx.min() >= 0 and idx.max() < n)))


class _PathProducts:
    """v -> A^T diag(w) A v for the path incidence A of a feeder.

    A = C^{-T} for C = I - Par (Par[k, up[k]] = 1), which is unit lower
    triangular in traversal order, so splu factors it with no fill.  pos[i]
    is the traversal position of node i+1; x and r are in traversal order.
    """

    def __init__(self, tr: Traversal):
        from scipy.sparse import csc_array, identity
        from scipy.sparse.linalg import splu

        n = tr.order.size
        k = np.flatnonzero(tr.up < n)
        C = identity(n, format="csc") - csc_array((np.ones(k.size), (k, tr.up[k])), shape=(n, n))
        self.lu = splu(C, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        self.pos = np.empty(n, dtype=int)
        self.pos[tr.order - 1] = np.arange(n)
        self.x, self.r = tr.x[tr.order - 1], tr.r[tr.order - 1]

    def apply(self, w: np.ndarray, at: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The product's rows and columns at traversal positions ``at``, applied to v."""
        b = np.zeros(self.pos.size)
        b[at] = v
        return self.lu.solve(w * self.lu.solve(b, trans="T"))[at]


@dataclass(frozen=True)
class SensitivitySet:
    """X and R of a feeder's actuator set (immutable, share freely).

    idx holds the set's matrix indices (bus k -> k-1) in matrix order; X and
    R are the feeder's matrices on idx.  No n x n array is stored: matvec and
    r_matvec are O(n) tree passes, d = diag(X) comes from the traversal, and
    the dense X and R are built, in O(n^2), on first access only.
    """

    net: RadialNetwork = field(repr=False)
    idx: np.ndarray
    _paths: _PathProducts = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.idx.size

    @cached_property
    def d(self) -> np.ndarray:
        return self.net.traversal.d[self.idx]

    @cached_property
    def _at(self) -> np.ndarray:
        return self._paths.pos[self.idx]

    def matvec(self, q: np.ndarray) -> np.ndarray:
        """X q."""
        return self._paths.apply(self._paths.x, self._at, q)

    def r_matvec(self, p: np.ndarray) -> np.ndarray:
        """R p."""
        return self._paths.apply(self._paths.r, self._at, p)

    @cached_property
    def X(self) -> np.ndarray:
        return _shared_path_sums(self.net.traversal, self.net.traversal.x, self.idx)

    @cached_property
    def R(self) -> np.ndarray:
        return _shared_path_sums(self.net.traversal, self.net.traversal.r, self.idx)

    def restrict(self, idx) -> "SensitivitySet":
        """The set on the given matrix indices, copying nothing; 0..n-1 in order gives self.

        Raises ValueError unless idx is a 1-D array of distinct indices in 0..n-1.
        """
        idx = np.asarray(idx, dtype=int)
        if not _is_index_set(idx, self.n):
            raise ValueError(f"restrict needs distinct matrix indices in 0..{self.n - 1}")
        if np.array_equal(idx, np.arange(self.n)):
            return self
        return SensitivitySet(net=self.net, idx=self.idx[idx], _paths=self._paths)


def _shared_path_sums(tr: Traversal, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """M[a, b] = total weight w on the lines shared by the root paths of idx[a]+1 and idx[b]+1.

    The shared path of two nodes ends at their lowest common ancestor, so a
    node's entry with a shallower node is its parent's, its entry with
    another node of its own level is that of the two parents, and only the
    diagonal, its own root-path sum, is new; entries with deeper nodes come
    from their rows by symmetry.  Filled one depth level at a time in
    traversal order, with a zero row and column at position n for the root,
    then the rows and columns of idx are taken.  Every off-diagonal entry is
    copied, never recomputed, so M is exactly symmetric.
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
    return M[np.ix_(node[idx], node[idx])]


def build_sensitivity(net: RadialNetwork) -> SensitivitySet:
    """The sensitivity set of the whole feeder: one O(n) factorization, no dense matrix."""
    return SensitivitySet(net=net, idx=np.arange(net.n), _paths=_PathProducts(net.traversal))


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
