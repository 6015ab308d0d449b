"""Radial feeder topology: rooted trees, root paths, random generation.

Node 0 is the substation (fixed voltage) and must have exactly one direct
child; every other node has exactly one parent line.  All matrix-facing
code indexes node k at row/column k-1.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np


class TopologyError(ValueError):
    """Base class for structural problems in a feeder description."""


class CycleError(TopologyError):
    pass


class DisconnectedError(TopologyError):
    pass


class MultiRootChildError(TopologyError):
    pass


class NonpositiveReactanceError(TopologyError):
    pass


class UnknownNodeError(TopologyError):
    pass


class InvalidDistributionError(ValueError):
    pass


@dataclass(frozen=True)
class Line:
    """Distribution line from a parent bus to its child bus (per-unit r, x)."""

    from_node: int
    to_node: int
    r: float
    x: float


@dataclass(frozen=True)
class BusData:
    """Per-bus loading, limits and controller flag (per-unit).

    q_min/q_max bound the controllable reactive injection; non-actuator
    buses keep their reactive injection fixed at zero.
    """

    p_c: float = 0.0
    p_g: float = 0.0
    q_c: float = 0.0
    v_nom: float = 1.0
    q_min: float = -math.inf
    q_max: float = math.inf
    is_actuator: bool = True


@dataclass(frozen=True)
class Traversal:
    """Root-outward structure of a validated feeder, built once per network.

    ``order`` lists the non-root nodes level by level from the root, the
    children of each node in :meth:`RadialNetwork.children` order, so the
    nodes d+1 lines below the root are the contiguous run ``order[levels[d]]``.
    ``up[k]`` is the position in ``order`` of the parent of ``order[k]``, and
    n when that parent is the root.  ``parent``, ``r``, ``x``, ``d`` and
    ``lines`` are indexed by child node: entry i-1 belongs to node i and the
    line into it.  ``d`` is the total reactance of the root path of each
    node, the diagonal of the reactance matrix X.  The arrays are read-only.
    """

    parent: np.ndarray
    order: np.ndarray
    up: np.ndarray
    levels: tuple[slice, ...]
    r: np.ndarray
    x: np.ndarray
    d: np.ndarray
    lines: tuple[Line, ...]


def _read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _build_traversal(net: RadialNetwork) -> Traversal:
    n = net.n
    lines = [None] * n
    for ln in net.lines:
        lines[ln.to_node - 1] = ln
    children = net.children()
    pos = [n] * (n + 1)  # pos[k]: position of node k in the order; the root maps to n
    order: list[int] = []
    levels = []
    level = children[0]
    while level:
        start = len(order)
        for k in level:
            pos[k] = len(order)
            order.append(k)
        levels.append(slice(start, len(order)))
        level = [c for j in level for c in children[j]]
    d = [0.0] * (n + 1)  # d[k]: root-path reactance of node k; the root's is 0
    for k in order:
        ln = lines[k - 1]
        d[k] = d[ln.from_node] + ln.x
    return Traversal(
        parent=_read_only([ln.from_node for ln in lines], int),
        order=_read_only(order, int),
        up=_read_only([pos[lines[k - 1].from_node] for k in order], int),
        levels=tuple(levels),
        r=_read_only([ln.r for ln in lines], float),
        x=_read_only([ln.x for ln in lines], float),
        d=_read_only(d[1:], float),
        lines=tuple(lines),
    )


@dataclass(frozen=True)
class RadialNetwork:
    """A rooted radial feeder with n non-root buses.

    ``lines`` must form a spanning tree over nodes {0..n} rooted at 0;
    ``buses[i]`` describes node i+1.  Instances are immutable; parents,
    line arrays and root paths come from :attr:`traversal`, which validates
    the network on first use.
    """

    n: int
    lines: tuple[Line, ...]
    buses: tuple[BusData, ...]
    v0: float = 1.0

    # -- derived state, filled on first use -----------------------------------
    _validated: bool = field(default=False, repr=False, compare=False)
    _traversal: Traversal | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_validated", False)
        object.__setattr__(self, "_traversal", None)

    @property
    def traversal(self) -> Traversal:
        """The cached :class:`Traversal`; validates the network first."""
        if self._traversal is None:
            validate_tree(self)
            object.__setattr__(self, "_traversal", _build_traversal(self))
        return self._traversal

    @property
    def parent(self) -> np.ndarray:
        """parent[i] is the parent node of node i+1 (0 means the root)."""
        return self.traversal.parent

    def line_to(self, i: int) -> Line:
        """The unique line whose child end is node i."""
        if not 1 <= i <= self.n:
            raise UnknownNodeError(f"node {i} not in 1..{self.n}")
        return self.traversal.lines[i - 1]

    def children(self) -> list[list[int]]:
        """children[k] lists direct children of node k (k = 0..n)."""
        ch: list[list[int]] = [[] for _ in range(self.n + 1)]
        for ln in self.lines:
            ch[ln.from_node].append(ln.to_node)
        return ch

    def depth(self, i: int) -> int:
        return len(path_to_root(self, i))

    def reactances(self) -> np.ndarray:
        """Per-line x ordered by child node (entry i-1 is the line into node i)."""
        return self.traversal.x.copy()

    def resistances(self) -> np.ndarray:
        return self.traversal.r.copy()

    def actuator_indices(self) -> np.ndarray:
        """Matrix indices (0-based, node k -> k-1) of the actuator buses."""
        return np.array([i for i, b in enumerate(self.buses) if b.is_actuator], dtype=int)


def chain_network(xs, rs=None, buses=None, v0: float = 1.0) -> RadialNetwork:
    """Build the linear feeder 0-1-2-...-n with the given line reactances."""
    xs = list(xs)
    n = len(xs)
    rs = list(rs) if rs is not None else [0.0] * n
    lines = tuple(Line(i, i + 1, rs[i], xs[i]) for i in range(n))
    if buses is None:
        buses = tuple(BusData() for _ in range(n))
    net = RadialNetwork(n=n, lines=lines, buses=tuple(buses), v0=v0)
    validate_tree(net)
    return net


def validate_tree(net: RadialNetwork) -> None:
    """Check that ``net`` is a valid rooted radial feeder.

    Raises a :class:`TopologyError` subclass naming the offending node or
    line: NonpositiveReactanceError (x <= 0, r < 0, or either non-finite),
    MultiRootChildError (root degree != 1), CycleError, DisconnectedError.
    Success is recorded on the network, so a repeat call returns at once;
    a failure is not, so an invalid network raises on every call.
    """
    if net._validated:
        return
    n = net.n
    if len(net.buses) != n:
        raise DisconnectedError(f"expected {n} bus records, got {len(net.buses)}")
    if len(net.lines) != n:
        raise DisconnectedError(f"expected {n} lines for {n} non-root nodes, got {len(net.lines)}")

    for ln in net.lines:
        if not (math.isfinite(ln.x) and math.isfinite(ln.r)):
            raise NonpositiveReactanceError(
                f"line ({ln.from_node},{ln.to_node}) has non-finite r={ln.r} or x={ln.x}"
            )
        if ln.x <= 0:
            raise NonpositiveReactanceError(f"line ({ln.from_node},{ln.to_node}) has x={ln.x}")
        if ln.r < 0:
            raise NonpositiveReactanceError(f"line ({ln.from_node},{ln.to_node}) has r={ln.r} < 0")
        if not (0 <= ln.from_node <= n):
            raise UnknownNodeError(f"line references unknown node {ln.from_node}")
        if not (1 <= ln.to_node <= n):
            raise UnknownNodeError(
                f"line ({ln.from_node},{ln.to_node}): child end must be a non-root node"
            )

    root_children = [ln.to_node for ln in net.lines if ln.from_node == 0]
    if len(root_children) > 1:
        raise MultiRootChildError(f"root has children {sorted(root_children)}; exactly one allowed")
    if n > 0 and not root_children:
        raise DisconnectedError("no line leaves the root")

    parent = {}
    for ln in net.lines:
        if ln.to_node in parent:
            raise CycleError(f"node {ln.to_node} has two parent lines")
        parent[ln.to_node] = ln.from_node

    # Walk up from every node; a repeat before reaching the root is a cycle.
    for start in range(1, n + 1):
        seen = set()
        k = start
        while k != 0:
            if k in seen:
                raise CycleError(f"cycle through node {k}")
            seen.add(k)
            if k not in parent:
                raise DisconnectedError(f"node {k} has no path to the root")
            k = parent[k]

    for b in net.buses:
        if b.is_actuator and not (b.q_min <= 0.0 <= b.q_max):
            raise TopologyError(
                f"actuator box [{b.q_min},{b.q_max}] must contain 0 (zero injection always feasible)"
            )
    object.__setattr__(net, "_validated", True)


def path_to_root(net: RadialNetwork, i: int) -> list[Line]:
    """Lines on the unique path from the root to node i, root end first."""
    if not 1 <= i <= net.n:
        raise UnknownNodeError(f"node {i} not in 1..{net.n}")
    lines = net.traversal.lines
    path = []
    k = i
    while k != 0:
        ln = lines[k - 1]
        path.append(ln)
        k = ln.from_node
    path.reverse()
    return path


def path_intersection(net: RadialNetwork, i: int, j: int) -> list[Line]:
    """Shared lines of the root paths of i and j (a root-anchored prefix of both)."""
    pi = path_to_root(net, i)
    pj = path_to_root(net, j)
    common = []
    for a, b in zip(pi, pj):
        if a is b or (a.from_node, a.to_node) == (b.from_node, b.to_node):
            common.append(a)
        else:
            break
    return common


@dataclass(frozen=True)
class DegreeDistribution:
    """Child-count distribution for random feeder generation.

    ``probabilities`` maps a child count to its probability (must sum to 1).
    Lines draw reactance uniformly from (x_range[0], x_range[1]]; cost
    coefficients for :func:`random_instance` draw from (y_range[0], y_range[1]].
    Nodes at ``max_depth`` get no children regardless of the distribution.
    """

    probabilities: dict[int, float]
    max_depth: int
    x_range: tuple[float, float] = (0.0, 200.0)
    y_range: tuple[float, float] = (0.0, 100.0)

    def __post_init__(self):
        if not self.probabilities:
            raise InvalidDistributionError("empty child-count distribution")
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > 1e-9:
            raise InvalidDistributionError(f"probabilities sum to {total}, need 1")
        if any(p < 0 for p in self.probabilities.values()):
            raise InvalidDistributionError("negative probability")
        if any(k < 0 or k != int(k) for k in self.probabilities):
            raise InvalidDistributionError("child counts must be nonnegative integers")
        if self.max_depth < 1:
            raise InvalidDistributionError("max_depth must be >= 1")
        for lo, hi in (self.x_range, self.y_range):
            if not (hi > 0 and hi > lo >= 0):
                raise InvalidDistributionError(f"bad half-open range ({lo},{hi}]")


def _uniform_half_open(rng: np.random.Generator, lo: float, hi: float, size=None):
    # uniform on (lo, hi]: rng.random() is [0,1), so hi - (hi-lo)*U is (lo, hi]
    return hi - (hi - lo) * rng.random(size)


def random_tree(dist: DegreeDistribution, seed: int) -> RadialNetwork:
    """Generate a random feeder; deterministic for a fixed seed.

    The root gets exactly one child; every other node draws its child count
    from ``dist`` until ``max_depth``.
    """
    rng = np.random.default_rng(seed)
    counts = sorted(dist.probabilities)
    probs = np.array([dist.probabilities[k] for k in counts])

    lines: list[tuple[int, int]] = [(0, 1)]
    depth_of = {1: 1}
    frontier = deque([1])
    next_id = 2
    while frontier:
        node = frontier.popleft()
        if depth_of[node] >= dist.max_depth:
            continue
        k = int(rng.choice(counts, p=probs))
        for _ in range(k):
            lines.append((node, next_id))
            depth_of[next_id] = depth_of[node] + 1
            frontier.append(next_id)
            next_id += 1

    n = next_id - 1
    xs = _uniform_half_open(rng, *dist.x_range, size=n)
    net = RadialNetwork(
        n=n,
        lines=tuple(Line(f, t, 0.0, float(xs[t - 1])) for f, t in lines),
        buses=tuple(BusData() for _ in range(n)),
    )
    validate_tree(net)
    return net


def random_instance(dist: DegreeDistribution, seed: int) -> tuple[RadialNetwork, np.ndarray]:
    """Random feeder plus per-bus cost coefficients drawn from dist.y_range.

    BusData carries no cost coefficient, so the provisioning-cost draw lives
    here; the pair is deterministic for a fixed seed.
    """
    net = random_tree(dist, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    y = _uniform_half_open(rng, *dist.y_range, size=net.n)
    return net, np.asarray(y)


def tree_laplacian(net: RadialNetwork):
    """The inverse of the reactance matrix X as a sparse matrix.

    It is the weighted Laplacian of the feeder with every line weight 1/x,
    restricted to the non-root nodes (row and column k-1 belong to node k),
    plus 1/x01 of the root line on the diagonal entry of the root's child.
    Off the diagonal it is nonzero only at tree-adjacent pairs.
    """
    from scipy.sparse import csr_array

    tr = net.traversal
    n = net.n
    w = 1.0 / tr.x
    child = np.arange(n)
    parent = tr.parent - 1
    inner = parent >= 0
    diag = w + np.bincount(parent[inner], weights=w[inner], minlength=n)
    rows = np.concatenate([child, child[inner], parent[inner]])
    cols = np.concatenate([child, parent[inner], child[inner]])
    vals = np.concatenate([diag, -w[inner], -w[inner]])
    return csr_array((vals, (rows, cols)), shape=(n, n))


def inverse_tree_laplacian(net: RadialNetwork) -> np.ndarray:
    """Dense :func:`tree_laplacian` without the root line: every row sums to zero.

    Adding 1/x01 to the entry of the root's child yields the exact inverse of
    the reactance matrix (see :func:`voltgame.sensitivity.x_inverse_analytic`).
    """
    L = tree_laplacian(net).toarray()
    k = np.flatnonzero(net.traversal.parent == 0)[0]
    L[k, k] -= 1.0 / net.traversal.x[k]
    return L
