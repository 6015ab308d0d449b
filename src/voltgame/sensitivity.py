"""Voltage-to-injection sensitivities of radial feeders.

X[i,j] (R[i,j]) is the total reactance (resistance) on the lines shared by
the root paths of buses i+1 and j+1.  So X = A^T diag(x) A and R = A^T
diag(r) A for the path incidence A (A[e, i] = 1 when the line into e is on
the root path of i): X q is a subtree sum, a scaling by x and a root-path
sum, in O(n).  X is symmetric positive definite; its inverse is the sparse
reciprocal-weight tree Laplacian.

Both products are passes of the feeder's one tree factor,
``net.traversal.factor``.  A :class:`SensitivitySet` is a feeder and an
index set; its dense X and R are the same passes on the identity columns of
the set, in O(n k) for k buses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .topology import RadialNetwork, validate_tree


class IndexOutOfRangeError(IndexError):
    pass


def _is_index_set(idx: np.ndarray, n: int) -> bool:
    """True when idx is a 1-D array of distinct matrix indices in 0..n-1."""
    return (idx.ndim == 1 and np.unique(idx).size == idx.size
            and (idx.size == 0 or (idx.min() >= 0 and idx.max() < n)))


def _index_array(idx) -> np.ndarray:
    """idx as an integer array; ValueError for a boolean mask or non-integer numbers.

    An empty list, which numpy reads as float, is an empty index array.
    """
    arr = np.asarray(idx)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"indices must be integers, got dtype {arr.dtype}")
    return arr.astype(int, copy=False)


@dataclass(frozen=True)
class SensitivitySet:
    """X and R of a feeder's actuator set (immutable, share freely).

    idx holds the set's distinct matrix indices (bus k -> k-1), checked on
    construction; X and R are the feeder's matrices on idx, in its order.
    No n x n array is stored: matvec and r_matvec are O(n) passes of the
    feeder's tree factor, d = diag(X) comes from the traversal, and the
    dense X and R are built on first access only, by the same passes on the
    identity columns of idx, in O(n k) for k buses.
    """

    net: RadialNetwork = field(repr=False)
    idx: np.ndarray

    def __post_init__(self):
        idx = _index_array(self.idx)
        if not _is_index_set(idx, self.net.n):
            raise ValueError(f"a SensitivitySet needs distinct matrix indices "
                             f"in 0..{self.net.n - 1}")
        object.__setattr__(self, "idx", idx)

    @property
    def n(self) -> int:
        return self.idx.size

    @cached_property
    def d(self) -> np.ndarray:
        return self.net.traversal.d[self.idx]

    @cached_property
    def _at(self) -> np.ndarray:
        return self.net.traversal.factor.pos[self.idx]

    def matvec(self, q: np.ndarray) -> np.ndarray:
        """X q."""
        tree = self.net.traversal.factor
        return tree.path_sums(tree.x, self._at, q)

    def r_matvec(self, p: np.ndarray) -> np.ndarray:
        """R p."""
        tree = self.net.traversal.factor
        return tree.path_sums(tree.r, self._at, p)

    @cached_property
    def _shared(self) -> tuple[np.ndarray, np.ndarray]:
        # x on the lines whose subtree holds two or more buses of the set, 0
        # elsewhere, and its root-path sums at the set's buses
        tree = self.net.traversal.factor
        count = tree.subtree_sums(np.bincount(self._at, minlength=tree.n).astype(float))
        w = np.where(count >= 2.0, tree.x, 0.0)
        return w, tree.root_path_sums(w)[self._at]

    def mutual_matvec(self, q: np.ndarray) -> np.ndarray:
        """(X - diag(d)) q, the mutual sensitivities applied to q.

        A line whose subtree holds bus i alone of the set adds x q_i to
        (X q)_i and x to d_i, terms that cancel in X q - d q.  The pass leaves
        such lines out of both, so a small shared part of i's root path keeps
        its digits next to a large d_i.
        """
        tree = self.net.traversal.factor
        w, d_shared = self._shared
        return tree.path_sums(w, self._at, q) - d_shared * q

    @cached_property
    def X(self) -> np.ndarray:
        return _dense_block(self, self.net.traversal.factor.x)

    @cached_property
    def R(self) -> np.ndarray:
        return _dense_block(self, self.net.traversal.factor.r)

    def restrict(self, idx) -> "SensitivitySet":
        """The set on the given matrix indices, copying nothing; 0..n-1 in order gives self.

        Raises ValueError unless idx is a 1-D array of distinct integer indices in 0..n-1.
        """
        idx = _index_array(idx)
        if not _is_index_set(idx, self.n):
            raise ValueError(f"restrict needs distinct matrix indices in 0..{self.n - 1}")
        if np.array_equal(idx, np.arange(self.n)):
            return self
        return SensitivitySet(net=self.net, idx=self.idx[idx])


def _dense_block(S: SensitivitySet, w: np.ndarray) -> np.ndarray:
    """S's k x k matrix of shared-path sums of w (in traversal order), dense.

    S.matvec's two triangular solves on the k identity columns of S's buses,
    in O(n k) time and memory.  The first gives 0/1 root-path indicators and
    the second adds w from the root down one line at a time, so entry (a, b)
    is the root-path sum at the lowest common ancestor of a and b, with the
    same roundings from either side: the matrix is exactly symmetric.
    """
    # a boolean identity takes one byte per entry; placing it casts it to 0.0/1.0
    return S.net.traversal.factor.path_sums(w[:, None], S._at, np.eye(S.n, dtype=bool))


_V0_SEED = 0  # seeds ARPACK's start and restart vectors, so a result repeats to the bit
_WARM_NCV = 12  # Lanczos basis of a run started from a given vector
# share of the seeded random vector in a warm start.  On a feeder with
# mirror-image branches each eigenvector is symmetric or antisymmetric between
# them; a start vector of one kind hides the other kind from Lanczos, which can
# then settle on the top of its own kind (27 of 1 000 mirrored random trees
# gave a wrong posa_max or lower with no share).  With the share, an eigenvalue
# above the result stays hidden only within about eps / (share * |r.u|) of it,
# for r the random unit vector and u that eigenvalue's eigenvector.
_WARM_RANDOM = 1e-3
# entries of an eigenvector within this relative distance of its largest
# magnitude tie for its sign: on mirror-image branches two entries are equal
# in magnitude, and rounding alone would pick between them
_SIGN_TIE_RTOL = 1e-9


def _top_eigenpair(matvec, n: int, maxiter: int | None = None, vector: bool = False,
                   tol: float = 0.0, v0: np.ndarray | None = None):
    """Largest eigenvalue of the symmetric operator v -> matvec(v), and with
    ``vector`` also its unit eigenvector, signed so that the lowest-index
    entry within a relative _SIGN_TIE_RTOL of its largest magnitude is
    positive; so the sign does not depend on rounding where two entries tie.

    ARPACK's implicitly restarted Lanczos (Lehoucq & Sorensen, SIAM J.
    Matrix Anal. Appl. 17(4), 1996) with seeded restart vectors, so a rerun
    gives the same bits.  Without v0 it starts from a seeded random vector r
    on ARPACK's default basis of min(n, 20) vectors.  A given v0 is a warm
    start, a vector near the wanted one (the Ritz vector of a related
    operator): the run starts from v0/|v0| + _WARM_RANDOM r/|r| on a basis of
    min(n, _WARM_NCV) vectors, since few restarts are left to do and a short
    basis makes each one cheap.  The run stops at ARPACK's relative accuracy
    ``tol`` (0, the default, is machine precision), and with maxiter set it
    raises ArpackNoConvergence after that many restarts.  ARPACK needs n > 1;
    a 1 x 1 operator is its own eigenvalue.
    """
    if n == 1:
        lam = float(matvec(np.ones(1))[0])
        return (lam, np.ones(1)) if vector else lam
    from scipy.sparse.linalg import LinearOperator, eigsh

    rand = np.random.default_rng(_V0_SEED).uniform(-1.0, 1.0, n)
    if v0 is None:
        v0, ncv = rand, None
    else:
        v0 = v0 / np.linalg.norm(v0) + _WARM_RANDOM * rand / np.linalg.norm(rand)
        ncv = min(n, _WARM_NCV)
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    out = eigsh(op, k=1, which="LA", tol=tol, v0=v0, ncv=ncv, maxiter=maxiter,
                return_eigenvectors=vector, rng=np.random.default_rng(_V0_SEED))
    if not vector:
        return float(out[0])
    e = out[1][:, 0]
    size = np.abs(e)
    lead = np.argmax(size >= (1.0 - _SIGN_TIE_RTOL) * size.max())
    return float(out[0][0]), (e if e[lead] > 0.0 else -e)


def build_sensitivity(net: RadialNetwork) -> SensitivitySet:
    """The sensitivity set of the whole feeder, which is validated; builds no matrix."""
    validate_tree(net)
    return SensitivitySet(net=net, idx=np.arange(net.n))


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
