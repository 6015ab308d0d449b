"""Voltage-to-injection sensitivity matrices for radial feeders.

X[i,j] (R[i,j]) is the total reactance (resistance) on the lines shared by
the root paths of buses i+1 and j+1.  X is symmetric positive definite for
any valid feeder; its inverse is sparse with tree-adjacency structure and
has a closed form built from the reciprocal-weight Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import RadialNetwork, inverse_tree_laplacian, validate_tree


class EmptyChainError(ValueError):
    pass


class IndexOutOfRangeError(IndexError):
    pass


@dataclass(frozen=True)
class SensitivitySet:
    """Dense sensitivity matrices of a feeder (immutable, share freely)."""

    X: np.ndarray
    R: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def D(self) -> np.ndarray:
        """Diagonal of X as a vector (root-path total reactance per bus)."""
        return np.diag(self.X).copy()

    @property
    def Xbar(self) -> np.ndarray:
        """X with its diagonal zeroed (mutual sensitivities only)."""
        Xb = self.X.copy()
        np.fill_diagonal(Xb, 0.0)
        return Xb

    def restrict(self, idx) -> "SensitivitySet":
        """Principal submatrix on the given matrix indices (actuator subset)."""
        idx = np.asarray(idx, dtype=int)
        return SensitivitySet(X=self.X[np.ix_(idx, idx)], R=self.R[np.ix_(idx, idx)])


def _path_incidence(net: RadialNetwork) -> np.ndarray:
    """A[e, i] = 1 iff line e (child node e+1) lies on the root path of bus i+1."""
    n = net.n
    A = np.zeros((n, n))
    parent = net.parent
    # Parents precede children in the traversal order, so each column copies
    # its parent column plus its own line.
    for k in net.traversal.order.tolist():
        p = parent[k - 1]
        if p != 0:
            A[:, k - 1] = A[:, p - 1]
        A[k - 1, k - 1] = 1.0
    return A


def build_sensitivity(net: RadialNetwork) -> SensitivitySet:
    """Assemble X and R from shared root-path sums.

    Uses the path-incidence factorization X = A^T diag(x) A, which is the
    path-intersection definition written as a matrix product.
    """
    validate_tree(net)
    A = _path_incidence(net)
    xs = net.reactances()
    rs = net.resistances()
    X = A.T @ (xs[:, None] * A)
    R = A.T @ (rs[:, None] * A)
    # enforce exact symmetry against BLAS rounding
    X = 0.5 * (X + X.T)
    R = 0.5 * (R + R.T)
    return SensitivitySet(X=X, R=R)


def x_inverse_analytic(net: RadialNetwork) -> np.ndarray:
    """Closed-form inverse of the reactance matrix.

    Equals the reciprocal-weight tree Laplacian (root line excluded) plus
    1/x01 added at the entry of the root's child.  Nonzeros only at
    tree-adjacent pairs and the diagonal.
    """
    L = inverse_tree_laplacian(net)
    root_lines = [ln for ln in net.lines if ln.from_node == 0]
    child = root_lines[0].to_node
    L[child - 1, child - 1] += 1.0 / root_lines[0].x
    return L


def chain_x_inverse(xs) -> np.ndarray:
    """Tridiagonal inverse reactance matrix of a linear feeder.

    Diagonal entry i is 1/x(i-1,i) + 1/x(i,i+1) (just 1/x(n-1,n) for the
    leaf), off-diagonals are -1/x(i,i+1).
    """
    xs = np.asarray(list(xs), dtype=float)
    n = xs.size
    if n == 0:
        raise EmptyChainError("chain must have at least one line")
    if np.any(xs <= 0):
        raise ValueError("chain reactances must be positive")
    T = np.zeros((n, n))
    for i in range(n):
        T[i, i] += 1.0 / xs[i]
        if i + 1 < n:
            w = 1.0 / xs[i + 1]
            T[i, i] += w
            T[i, i + 1] = T[i + 1, i] = -w
    return T


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
