"""Radial feeder topology: rooted trees, their traversal, random generation,
and the tree algebra of the reactance matrix X.

Each validated feeder has one tree factor, kept with its traversal and
built in two parts on first use: the triangular factor of C = I - Par in
traversal order, which gives X and R products, their dense blocks and the
passes of the AC branch-flow sweep, and the leaf-first elimination of the
sparse X^{-1}, which gives the Woodbury solves and inertia counts that the
equilibrium solvers and the PoSA report share.

A feeder keeps its lines as arrays in line order and its bus data as
columns in bus order, and its validation and traversal are array passes:
O(log depth) passes of ancestor doubling, with no Python loop over the
lines or the buses, so generating and validating a feeder of a million
buses takes a fraction of a second.  Both parts of the tree factor are
built from the traversal arrays too.

Node 0 is the substation (fixed voltage) and must have exactly one direct
child; every other node has exactly one parent line.  All matrix-facing
code indexes node k at row/column k-1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from types import SimpleNamespace

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


_LINE_FIELDS = ("from_node", "to_node", "r", "x")


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


# each bus column, six float and then is_actuator, with its value at a bus that does not set it
_BUS_DEFAULTS = asdict(BusData())
_BUS_FIELDS = tuple(_BUS_DEFAULTS)


@dataclass(frozen=True)
class Traversal:
    """Root-outward structure of a validated feeder, built once per network.

    ``order`` lists the non-root nodes level by level from the root, the
    children of each node in line order.  ``up[k]`` is the position in
    ``order`` of the parent of ``order[k]``, and n when that parent is the
    root.  ``parent``, ``r``, ``x`` and ``d`` are indexed by child node:
    entry i-1 belongs to node i and the line into it.  ``d`` is the total
    reactance of the root path of each node, the diagonal of the reactance
    matrix X.  The arrays are read-only.
    """

    parent: np.ndarray
    order: np.ndarray
    up: np.ndarray
    r: np.ndarray
    x: np.ndarray
    d: np.ndarray

    @cached_property
    def factor(self) -> "_TreeFactor":
        """The feeder's one :class:`_TreeFactor`; its parts are built on first use."""
        return _TreeFactor(self)


def _read_only(values, dtype) -> np.ndarray:
    """values as a read-only array; an array of this dtype that nothing can
    write, as a column of a network is, is kept as it is."""
    base = values
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base  # None once no array it views is writeable
    if base is None and values.dtype == dtype:
        return values
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _node_ids(values) -> np.ndarray:
    """A node-id column as a read-only int array; an id that is not a whole
    number (1.5, NaN) raises UnknownNodeError rather than being truncated."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN has no int; the test below names it
        ids = _read_only(raw, int)
    if raw.dtype.kind not in "iu":
        wrong = ids != raw
        if wrong.any():
            raise UnknownNodeError(f"line references unknown node {raw[wrong.argmax()]}")
    return ids


@dataclass(frozen=True, init=False, eq=False)
class RadialNetwork:
    """A rooted radial feeder with n non-root buses.

    The lines must form a spanning tree over nodes {0..n} rooted at 0.  The
    fields are the feeder's read-only columns: the lines in line order,
    ``from_node``, ``to_node``, ``r`` and ``x``, and the buses in bus order,
    entry i for node i+1, ``p_c``, ``p_g``, ``q_c``, ``v_nom``, ``q_min`` and
    ``q_max`` (float) and ``is_actuator`` (bool); a bus column left out is
    its default seen n times, which holds no memory per bus.  :class:`Line`
    and :class:`BusData` records are an adapter at the edge, taken in
    ``lines`` and ``buses`` and built by :attr:`lines` and :attr:`buses`.
    ``dataclasses.replace(net, q_c=...)`` replaces that column and shares
    the others; like every new network it is validated on first use, when
    :attr:`traversal` is built and cached.
    """

    n: int
    from_node: np.ndarray
    to_node: np.ndarray
    r: np.ndarray
    x: np.ndarray
    p_c: np.ndarray
    p_g: np.ndarray
    q_c: np.ndarray
    v_nom: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    is_actuator: np.ndarray
    v0: float = 1.0

    def __init__(self, n: int, lines=None, buses=None, v0: float = 1.0, *,
                 from_node=None, to_node=None, r=None, x=None,
                 p_c=None, p_g=None, q_c=None, v_nom=None, q_min=None, q_max=None,
                 is_actuator=None):
        columns = (from_node, to_node, r, x)
        if lines is not None:
            if any(c is not None for c in columns):
                raise TypeError("give the lines as Line records or as arrays, not both")
            lines = tuple(lines)
            columns = [list(map(operator.attrgetter(name), lines)) for name in _LINE_FIELDS]
        elif any(c is None for c in columns):
            raise TypeError("give the lines as Line records or as from_node, to_node, r and x")
        arrays = [_node_ids(c) for c in columns[:2]] + [_read_only(c, float) for c in columns[2:]]
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError("from_node, to_node, r and x must be 1-d and of one length")
        for name, value in zip(_LINE_FIELDS, arrays):
            object.__setattr__(self, name, value)

        columns = (p_c, p_g, q_c, v_nom, q_min, q_max, is_actuator)
        if buses is not None:
            if any(c is not None for c in columns):
                raise TypeError("give the buses as BusData records or as columns, not both")
            buses = tuple(buses)
            columns = [list(map(operator.attrgetter(name), buses)) for name in _BUS_FIELDS]
        defaults = _BUS_DEFAULTS.values()
        arrays = [c if c is None else _read_only(c, type(d)) for c, d in zip(columns, defaults)]
        size = next((a.shape for a in arrays if a is not None), (n,))
        # a default column is read-only, and holds no memory per bus
        arrays = [np.broadcast_to(_read_only(d, type(d)), size) if a is None else a
                  for a, d in zip(arrays, defaults)]
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError("the bus columns must be 1-d and of one length")
        for name, value in zip(_BUS_FIELDS, arrays):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "_traversal", None)  # set by validate_tree

    @property
    def lines(self) -> tuple[Line, ...]:
        """The lines as :class:`Line` records, in line order; built on each call."""
        return tuple(map(Line, self.from_node.tolist(), self.to_node.tolist(),
                         self.r.tolist(), self.x.tolist()))

    @property
    def buses(self) -> tuple[BusData, ...]:
        """The buses as :class:`BusData` records, in bus order; built on each call."""
        return tuple(map(BusData, *(getattr(self, name).tolist() for name in _BUS_FIELDS)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def traversal(self) -> Traversal:
        """The cached :class:`Traversal`; validates the network on first use."""
        if self._traversal is None:
            validate_tree(self)
        return self._traversal

    @property
    def parent(self) -> np.ndarray:
        """parent[i] is the parent node of node i+1 (0 means the root)."""
        return self.traversal.parent

    @cached_property
    def _actuators(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.is_actuator), int)

    def actuator_indices(self) -> np.ndarray:
        """Matrix indices (0-based, node k -> k-1) of the actuator buses, as a
        read-only array built once per network."""
        return self._actuators


def chain_network(xs) -> RadialNetwork:
    """Build the linear feeder 0-1-2-...-n with the given line reactances and
    no resistance; every bus takes the ``BusData()`` defaults, as columns
    that hold no memory per bus.
    """
    x = np.array(xs, dtype=float)
    n = x.size
    net = RadialNetwork(n=n, from_node=np.arange(n), to_node=np.arange(1, n + 1),
                        r=np.zeros(n), x=x)
    validate_tree(net)
    return net


def validate_tree(net: RadialNetwork) -> None:
    """Check that ``net`` is a valid rooted radial feeder and cache its traversal.

    Raises a :class:`TopologyError` subclass naming the offending node or
    line: NonpositiveReactanceError (x <= 0, r < 0, or either non-finite),
    MultiRootChildError (root degree != 1), CycleError, DisconnectedError;
    and a TopologyError for a non-finite root voltage v0, naming the bus and
    field for a non-finite load, generation or nominal voltage or a NaN box
    limit, or naming the bus of an actuator box that excludes 0.  Where
    several lines are at fault, the first in line order is named, and where
    several buses are, the first in bus order.  The line and bus checks are
    array checks, and :func:`_breadth_first` orders the :class:`Traversal`
    and checks that every node reaches the root.  Success is recorded on the network as its
    traversal, so a repeat call returns at once; a failure is not, so an
    invalid network raises on every call.
    """
    if net._traversal is not None:
        return
    n = net.n
    frm, to, r, x = net.from_node, net.to_node, net.r, net.x
    if net.p_c.size != n:
        raise DisconnectedError(f"expected {n} bus records, got {net.p_c.size}")
    if to.size != n:
        raise DisconnectedError(f"expected {n} lines for {n} non-root nodes, got {to.size}")

    bad = ~(np.isfinite(x) & np.isfinite(r)) | (x <= 0) | (r < 0)
    bad |= (frm < 0) | (frm > n) | (to < 1) | (to > n)
    if bad.any():
        k = int(bad.argmax())
        f, t, rk, xk = int(frm[k]), int(to[k]), float(r[k]), float(x[k])
        if not (math.isfinite(xk) and math.isfinite(rk)):
            raise NonpositiveReactanceError(f"line ({f},{t}) has non-finite r={rk} or x={xk}")
        if xk <= 0:
            raise NonpositiveReactanceError(f"line ({f},{t}) has x={xk}")
        if rk < 0:
            raise NonpositiveReactanceError(f"line ({f},{t}) has r={rk} < 0")
        if not 0 <= f <= n:
            raise UnknownNodeError(f"line references unknown node {f}")
        raise UnknownNodeError(f"line ({f},{t}): child end must be a non-root node")

    root_children = to[frm == 0]
    if root_children.size > 1:
        raise MultiRootChildError(f"root has children {sorted(root_children.tolist())}; "
                                  "exactly one allowed")
    if n > 0 and not root_children.size:
        raise DisconnectedError("no line leaves the root")

    if np.bincount(to, minlength=n + 1).max() > 1:
        # name the child end of the first line whose child already has a line
        by_child = np.argsort(to, kind="stable")
        repeats = by_child[1:][to[by_child[1:]] == to[by_child[:-1]]]
        raise CycleError(f"node {to[repeats.min()]} has two parent lines")

    # Every node now has exactly one parent line: parent[k] is node k's parent.
    parent = np.zeros(n + 1, dtype=int)
    parent[to] = frm
    x_by_child = np.empty(n)
    x_by_child[to - 1] = x
    order, up, d = _breadth_first(parent, frm, to, x_by_child)

    if not math.isfinite(net.v0):
        raise TopologyError(f"the root voltage v0={net.v0} is not finite")
    _check_buses(net)

    r_by_child = np.empty(n)
    r_by_child[to - 1] = r
    object.__setattr__(net, "_traversal", Traversal(
        parent=_read_only(parent[1:], int),
        order=_read_only(order, int),
        up=_read_only(up, int),
        r=_read_only(r_by_child, float),
        x=_read_only(x_by_child, float),
        d=_read_only(d, float),
    ))


def _check_buses(net: RadialNetwork) -> None:
    """Raise the TopologyError of the first bus whose data is at fault.

    A bus is checked for a non-finite p_c, p_g, q_c or v_nom, in that order,
    then for a NaN q_min or q_max, then, if it is an actuator, for a box
    that excludes 0.  The checks are array passes over the columns.
    """
    cols = [getattr(net, name) for name in _BUS_FIELDS]
    p_c, p_g, q_c, v_nom, q_min, q_max, act = cols
    bad = ~(np.isfinite(p_c) & np.isfinite(p_g) & np.isfinite(q_c) & np.isfinite(v_nom))
    bad |= np.isnan(q_min) | np.isnan(q_max)
    bad |= act & ~((q_min <= 0.0) & (0.0 <= q_max))
    if not bad.any():
        return
    i = int(bad.argmax())
    b = {name: c[i].item() for name, c in zip(_BUS_FIELDS, cols)}
    for name in ("p_c", "p_g", "q_c", "v_nom"):
        if not math.isfinite(b[name]):
            raise TopologyError(f"bus {i + 1} has non-finite {name}={b[name]}")
    for name in ("q_min", "q_max"):
        if math.isnan(b[name]):
            raise TopologyError(f"bus {i + 1} has NaN {name}={b[name]}")
    raise TopologyError(f"bus {i + 1}: actuator box [{b['q_min']},{b['q_max']}] must contain 0 "
                        "(zero injection always feasible)")


def _breadth_first(parent: np.ndarray, frm: np.ndarray, to: np.ndarray, x: np.ndarray):
    """The traversal of the tree given by ``parent``; raises CycleError
    where some node does not reach the root.

    Returns ``order``, the non-root nodes breadth first from the root with
    the children of each node in line order (lines ``frm`` -> ``to``);
    ``up``, the position in ``order`` of each node's parent (n for the
    root); and ``d``, the root-path sums of the reactances ``x`` (entry i-1
    for node i), each added from the root down as d(parent) + x.

    The order sorts the nodes by depth and then by preorder, the
    depth-first order with children in line order: nodes at one depth are
    in the preorder of their root paths, which is the breadth-first order.
    The sort key depth * (n+1) + preorder rank is a root-path sum, of n+1
    plus 1 plus the subtree sizes of the earlier siblings, by ancestor
    doubling; it is also the reachability check.  Where some node has two
    children, subtree sizes come from doubling too: the sizes at a
    distance below 2^k, added over the descendants 2^k lines away.  So
    both take O(log depth) array passes.  The sums d take one array pass
    per depth, and one cumulative sum for each run of depths that hold one
    node each, a path; a chain takes one pass.
    """
    n = parent.size - 1
    rounds = n.bit_length() + 1  # 2^rounds > n + 1, the length of any root path
    kids = np.argsort(frm, kind="stable")  # the lines grouped by parent, in line order
    fk = frm[kids]
    first = np.where(fk != np.r_[-1, fk[:-1]], np.arange(n), 0)
    np.maximum.accumulate(first, out=first)  # first[j]: the first line of the parent of line j
    key = np.zeros(n + 1, dtype=int)
    key[to[kids]] = n + 2  # n+1 for the depth and 1 for the node
    if not np.array_equal(first, np.arange(n)):  # some node has two children
        size = np.ones(n + 1)
        anc = parent
        for _ in range(rounds):
            if not anc.any():
                break
            size += np.bincount(anc, weights=size, minlength=n + 1)
            anc = anc[anc]
        below = size[to[kids]].astype(int)
        before = np.cumsum(below) - below  # subtree sizes of all earlier lines
        key[to[kids]] += before - before[first]
    anc = parent
    for _ in range(rounds):
        if not anc.any():
            break
        key += key[anc]
        anc = anc[anc]
    else:
        # Walk up from the lowest-numbered node that does not reach the root;
        # the walk repeats a node, as every node has a parent line.
        k = int(np.flatnonzero(anc[1:])[0]) + 1
        seen = set()
        while k not in seen:
            seen.add(k)
            k = int(parent[k])
        raise CycleError(f"cycle through node {k}")
    order = np.argsort(key[1:]) + 1

    pos = np.empty(n + 1, dtype=int)  # pos[k]: position of node k in order; the root's is n
    pos[order] = np.arange(n)
    pos[0] = n
    up = pos[parent[order]]

    xo = x[order - 1]
    d = np.zeros(n + 1)  # by position in order; d[n] is the root's 0
    width = np.bincount(key[1:] // (n + 1))[1:]  # width[j]: the nodes j+1 lines below the root
    ends = np.cumsum(width)
    path = width == 1
    runs = np.flatnonzero(np.r_[True, ~(path[1:] & path[:-1])][:width.size]).tolist()
    runs.append(width.size)
    for a, b in zip(runs, runs[1:]):
        s, e = int(ends[a] - width[a]), int(ends[b - 1])
        if b - a == 1:
            d[s:e] = d[up[s:e]] + xo[s:e]
        else:  # depths a..b-1 hold one node each: a path below d[up[s]]
            d[s:e] = np.cumsum(np.r_[d[up[s]], xo[s:e]])[1:]
    d_by_child = np.empty(n)
    d_by_child[order - 1] = d[:n]
    return order, up, d_by_child


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
    from ``dist`` until ``max_depth``.  Nodes are numbered breadth first, and
    one depth level draws all its child counts at once: one rng.random()
    per node through the cumulative distribution, which is the draw
    ``rng.choice(counts, p=probs)`` makes, so the trees do not depend on how
    the draws are batched.  Every bus takes the ``BusData()`` defaults, as
    columns that hold no memory per bus.
    """
    rng = np.random.default_rng(seed)
    keys = sorted(dist.probabilities)
    counts = np.array(keys).astype(np.int64)
    cdf = np.array([dist.probabilities[k] for k in keys], dtype=float).cumsum()
    cdf /= cdf[-1]

    parents = [np.zeros(1, dtype=np.int64)]    # the parent of node 1
    level = np.ones(1, dtype=np.int64)         # the nodes at depth 1
    for _ in range(dist.max_depth - 1):
        k = counts[cdf.searchsorted(rng.random(level.size), side="right")]
        child_parents = np.repeat(level, k)
        parents.append(child_parents)
        level = np.arange(level[-1] + 1, level[-1] + 1 + child_parents.size)
        if not level.size:
            break

    parent = np.concatenate(parents)
    n = parent.size
    net = RadialNetwork(n=n, from_node=parent,
                        to_node=np.arange(1, n + 1), r=np.zeros(n),
                        x=_uniform_half_open(rng, *dist.x_range, size=n))
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
    tr = net.traversal
    return _laplacian(tr.x, tr.parent)


def _laplacian(x: np.ndarray, parent: np.ndarray):
    from scipy.sparse import csr_array

    rows, cols, vals = _laplacian_entries(x, parent)
    return csr_array((vals, (rows, cols)), shape=(x.size, x.size))


def _laplacian_entries(x: np.ndarray, parent: np.ndarray):
    """Row and column indices and values of the entries of X^{-1}: the
    diagonal, in matrix index order, then the two entries of each line
    that does not leave the root."""
    n = x.size
    w = 1.0 / x
    child = np.arange(n)
    parent = parent - 1
    inner = parent >= 0
    diag = w + np.bincount(parent[inner], weights=w[inner], minlength=n)
    rows = np.concatenate([child, child[inner], parent[inner]])
    cols = np.concatenate([child, parent[inner], child[inner]])
    vals = np.concatenate([diag, -w[inner], -w[inner]])
    return rows, cols, vals


def _compressed(major, minor, vals, n: int):
    """(data, indices, indptr) of the n x n compressed sparse matrix with these
    distinct entries, indices ascending along each major line."""
    at = np.argsort(major * n + minor)
    return vals[at], minor[at], np.r_[0, np.cumsum(np.bincount(major, minlength=n))]


_CERTIFY_ULPS = 2  # first half-width of the bracket certified around an estimate


class _TreeFactor:
    """The tree algebra of X for one validated feeder, as ``net.traversal.factor``.

    It has two parts, each built on first use and then kept:

    - traversal order: C = I - Par (Par[k, up[k]] = 1) is unit lower
      triangular, so splu factors it with no fill, and the path incidence A
      (A[e, i] = 1 when the line into e is on the root path of i) is
      C^{-T}.  So X = A^T diag(x) A and R = A^T diag(r) A are a subtree sum
      (:meth:`subtree_sums`), a scaling and a root-path sum
      (:meth:`root_path_sums`), as are the passes of the AC branch-flow sweep.
    - leaf-first order, the traversal order reversed: every bus comes after
      all its children, so Gaussian elimination of X^{-1} plus a diagonal
      creates no fill.  The pivot of bus i is a_i + s_i - sum_c w_c^2 / p_c
      over its children c, for a = diag(X^{-1}) and w_c = 1/x_c the weight of
      the line into c.  It gives Woodbury solves and inertia counts on X_AA
      for an actuator set A, which the methods take as matrix indices
      ``act`` (bus k -> k-1); vectors indexed by A (g, h, v) follow ``act``.
    """

    def __init__(self, tr: Traversal):
        # the arrays it needs, and no reference back to tr, which holds the factor
        self._parent, self._x = tr.parent, tr.x
        self.up = tr.up  # up[k]: traversal position of the parent of position k, n for the root
        self.n = n = tr.order.size
        self.idx = tr.order - 1  # idx[k]: matrix index at traversal position k
        self.pos = np.empty(n, dtype=int)  # pos[i]: traversal position of matrix index i
        self.pos[self.idx] = np.arange(n)
        self.x, self.r = tr.x[self.idx], tr.r[self.idx]  # in traversal order

    @cached_property
    def z2(self) -> np.ndarray:
        """Squared line impedances r^2 + x^2 in traversal order.

        float_power squares as the scalar ``r ** 2`` does (libm pow); the
        array ``r ** 2`` is r * r, which differs from it in the last bit on
        some inputs.
        """
        return np.float_power(self.r, 2) + np.float_power(self.x, 2)

    @cached_property
    def _paths(self):
        from scipy.sparse import csc_array, identity
        from scipy.sparse.linalg import splu

        n, up = self.n, self.up
        k = np.flatnonzero(up < n)
        C = identity(n, format="csc") - csc_array((np.ones(k.size), (k, up[k])), shape=(n, n))
        return splu(C, permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def subtree_sums(self, b: np.ndarray) -> np.ndarray:
        """C^{-T} b: entry k sums b over the subtree of traversal position k."""
        return self._paths.solve(b, trans="T")

    def root_path_sums(self, b: np.ndarray) -> np.ndarray:
        """C^{-1} b: entry k sums b over the root path of traversal position k."""
        return self._paths.solve(b)

    def path_sums(self, w: np.ndarray, at: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Rows and columns at traversal positions ``at`` of A^T diag(w) A, applied to v.

        w is in traversal order; v is a vector, or a block of columns with w
        as a column.  Two triangular solves with C, in O(n) per column.
        """
        b = np.zeros((self.n,) + v.shape[1:])
        b[at] = v
        b = self.subtree_sums(b)
        b *= w
        return self.root_path_sums(b)[at]

    @cached_property
    def leaf_first(self) -> SimpleNamespace:
        """X^{-1} in leaf-first order as CSC ``L`` with diagonal ``a``; ``up``, the
        leaf-first position of each bus's parent (n for the root, a dummy slot),
        ``w2`` = 1/x^2 and the pivot guard ``pivmin`` for the elimination; and
        ``x_bracket``, the Gershgorin bracket of lambda_min(X)."""
        from scipy.sparse import csc_array

        n = self.n
        perm = self.idx[::-1]  # leaf-first position k holds matrix index perm[k]
        rows, cols, vals = _laplacian_entries(self._x, self._parent)
        lf = n - 1 - self.pos  # lf[i]: leaf-first position of matrix index i
        a = vals[:n][perm]
        w2 = (1.0 / self._x[perm]) ** 2
        up = self.up[::-1]
        # the absolute row sums add each row's entries in column order, as
        # scipy sums the rows of the CSR form
        data, _, indptr = _compressed(rows, cols, np.abs(vals), n)
        row_sums = np.add.reduceat(data, indptr[:-1])
        return SimpleNamespace(
            L=csc_array(_compressed(lf[cols], lf[rows], vals, n), shape=(n, n)), a=a,
            up=np.where(up < n, n - 1 - up, n).tolist(),
            w2=w2.tolist(), pivmin=np.finfo(float).tiny * max(1.0, float(np.max(w2))),
            # lambda_max(X^{-1}) lies between its largest diagonal entry and its
            # largest absolute row sum; 1/lambda_max(X^{-1}) = lambda_min(X)
            x_bracket=(1.0 / float(np.max(row_sums)), 1.0 / float(np.max(a))),
        )

    def _padded_diagonal(self, act: np.ndarray, s: np.ndarray) -> np.ndarray:
        """diag(X^{-1} + P^T diag(s) P) in leaf-first order, for P selecting A."""
        diag = self.leaf_first.a.copy()
        diag[self.n - 1 - self.pos[act]] += s
        return diag

    def count_below(self, act: np.ndarray, g: np.ndarray, sigma: float) -> int:
        """Number of eigenvalues of X_AA + diag(g) below sigma.

        With h = g - sigma, the inertia of [[diag(h), P], [P^T, -X^{-1}]]
        taken through either Schur complement (Haynsworth) makes it
        #{h_i < 0} minus the number of negative eigenvalues of
        X^{-1} + P^T diag(1/h) P, which are the negative pivots of its
        leaf-first elimination.  A pivot smaller in magnitude than the
        underflow guard counts as negative, as in LAPACK's dlaebz.
        """
        h = g - sigma
        if not h.all():     # sigma is some g_i: count below the next float instead
            h = g - np.nextafter(sigma, np.inf)
        piv = self._padded_diagonal(act, 1.0 / h).tolist()
        piv.append(0.0)
        lf = self.leaf_first
        up, w2, pivmin = lf.up, lf.w2, lf.pivmin
        neg = 0
        for k in range(self.n):
            p = piv[k]
            if p < pivmin:
                if p > -pivmin:
                    p = -pivmin
                neg += 1
            piv[up[k]] -= w2[k] / p
        return int(np.count_nonzero(h < 0.0)) - neg

    def lambda_min(self, act: np.ndarray, g: np.ndarray, lo: float, hi: float,
                   estimate: float | None = None) -> float:
        """Smallest eigenvalue of X_AA + diag(g), given 0 < lo <= it <= hi.

        Bisection on :meth:`count_below` to the last bit, on a log scale
        while the bracket spans more than a factor of two; returns the lower
        end of the final bracket.  An estimate strictly inside the bracket
        first narrows it to estimate -/+ w: the count must be 0 at the lower
        end and positive at the upper one.  w starts at a few ulps of the
        estimate and grows 16-fold at an end that fails the test, until that
        end leaves the bracket.  A failed end still narrows the bracket from
        the other side, so each count keeps the bracket valid, and the
        result is the one bisection of [lo, hi] finds.
        """
        if estimate is not None and lo < estimate < hi:
            w0 = _CERTIFY_ULPS * math.ulp(estimate)
            w = w0
            while lo < estimate - w:
                if not self.count_below(act, g, estimate - w):
                    lo = estimate - w
                    break
                hi = estimate - w
                w *= 16.0
            w = w0
            while estimate + w < hi:
                if self.count_below(act, g, estimate + w):
                    hi = estimate + w
                    break
                lo = estimate + w
                w *= 16.0
        while True:
            mid = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lo
            if self.count_below(act, g, mid):
                hi = mid
            else:
                lo = mid

    def inverse(self, act: np.ndarray, g: np.ndarray):
        """v -> (X_AA + diag(g))^{-1} v, for g > 0, by the Woodbury identity

            (P X P^T + G)^{-1} v = G^{-1} v - G^{-1} P z,
            (X^{-1} + P^T G^{-1} P) z = P^T G^{-1} v,

        with X^{-1} + P^T G^{-1} P factored once, leaf first and without
        pivoting.  An infinite g_i drops bus i: the result is zero there and
        solves the system on the other buses of A (a face of the set).
        """
        from scipy.sparse.linalg import splu

        ginv = 1.0 / g
        K = self.leaf_first.L.copy()
        K.setdiag(self._padded_diagonal(act, ginv))
        lu = splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        at, n = self.n - 1 - self.pos[act], self.n

        def solve(v: np.ndarray) -> np.ndarray:
            u = ginv * v
            b = np.zeros(n)
            b[at] = u
            return u - ginv * lu.solve(b)[at]

        return solve
