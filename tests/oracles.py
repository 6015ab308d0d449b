"""Independent brute-force implementations used as test oracles.

Everything here recomputes quantities from first principles (explicit path
intersections, scalar bisection, product-grid minimization, dense
factorizations and eigen-solves) without calling the library code paths
under test.  Scalar and dense APIs that only the tests need live here too.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve


def root_path_lines(net, i):
    """Root path of node i as a set of (from, to) pairs, walked explicitly."""
    by_child = {ln.to_node: ln for ln in net.lines}
    path = []
    k = i
    while k != 0:
        ln = by_child[k]
        path.append((ln.from_node, ln.to_node))
        k = ln.from_node
    return set(path)


def child_lines(net):
    """The lines of net, entry i-1 the line into node i."""
    by_child = {ln.to_node: ln for ln in net.lines}
    return tuple(by_child[k] for k in range(1, net.n + 1))


def traversal_by_walk(net):
    """The feeder's traversal by the per-line checks and one breadth-first
    walk over children lists, each in line order, with root paths summed
    node by node from the root.

    Raises the TopologyError that validate_tree raises for a malformed set
    of lines; a node that does not reach the root is named by walking up
    from the lowest-numbered one.  Returns parent, order, up, r, x and d
    as in Traversal.  The bus records are not checked.
    """
    from types import SimpleNamespace

    from voltgame.topology import (CycleError, DisconnectedError, MultiRootChildError,
                                   NonpositiveReactanceError, UnknownNodeError)

    n = net.n
    if len(net.buses) != n:
        raise DisconnectedError(f"expected {n} bus records, got {len(net.buses)}")
    lines_in = net.lines
    if len(lines_in) != n:
        raise DisconnectedError(f"expected {n} lines for {n} non-root nodes, got {len(lines_in)}")
    for ln in lines_in:
        if not (math.isfinite(ln.x) and math.isfinite(ln.r)):
            raise NonpositiveReactanceError(
                f"line ({ln.from_node},{ln.to_node}) has non-finite r={ln.r} or x={ln.x}")
        if ln.x <= 0:
            raise NonpositiveReactanceError(f"line ({ln.from_node},{ln.to_node}) has x={ln.x}")
        if ln.r < 0:
            raise NonpositiveReactanceError(f"line ({ln.from_node},{ln.to_node}) has r={ln.r} < 0")
        if not (0 <= ln.from_node <= n):
            raise UnknownNodeError(f"line references unknown node {ln.from_node}")
        if not (1 <= ln.to_node <= n):
            raise UnknownNodeError(
                f"line ({ln.from_node},{ln.to_node}): child end must be a non-root node")
    root_children = [ln.to_node for ln in lines_in if ln.from_node == 0]
    if len(root_children) > 1:
        raise MultiRootChildError(f"root has children {sorted(root_children)}; exactly one allowed")
    if n > 0 and not root_children:
        raise DisconnectedError("no line leaves the root")
    lines = [None] * n  # lines[k-1]: the line into node k
    for ln in lines_in:
        if lines[ln.to_node - 1] is not None:
            raise CycleError(f"node {ln.to_node} has two parent lines")
        lines[ln.to_node - 1] = ln

    children = [[] for _ in range(n + 1)]
    for ln in lines_in:
        children[ln.from_node].append(ln.to_node)
    pos = [n] * (n + 1)  # pos[k]: position of node k in the order; the root maps to n
    order = []
    level = children[0]
    while level:
        for k in level:
            pos[k] = len(order)
            order.append(k)
        level = [c for j in level for c in children[j]]
    if len(order) != n:
        seen = set()
        k = pos.index(n, 1)
        while k != 0:
            if k in seen:
                raise CycleError(f"cycle through node {k}")
            seen.add(k)
            if lines[k - 1] is None:
                raise DisconnectedError(f"node {k} has no path to the root")
            k = lines[k - 1].from_node

    d = [0.0] * (n + 1)  # d[k]: root-path reactance of node k; the root's is 0
    for k in order:
        ln = lines[k - 1]
        d[k] = d[ln.from_node] + ln.x
    return SimpleNamespace(
        parent=np.array([ln.from_node for ln in lines], dtype=int),
        order=np.array(order, dtype=int),
        up=np.array([pos[lines[k - 1].from_node] for k in order], dtype=int),
        r=np.array([ln.r for ln in lines], dtype=float),
        x=np.array([ln.x for ln in lines], dtype=float),
        d=np.array(d[1:], dtype=float),
    )


def leaf_first_by_permutation(net):
    """X^{-1} in leaf-first order and its Gershgorin bound, from the CSR form
    of X^{-1} by two sparse permutations: (the CSC matrix, its diagonal,
    1 / the largest absolute row sum of X^{-1})."""
    from voltgame.topology import tree_laplacian

    t = net.traversal
    perm = t.order[::-1] - 1  # leaf-first position k holds matrix index perm[k]
    L = tree_laplacian(net)
    return (L[perm][:, perm].tocsc(), L.diagonal()[perm],
            1.0 / float(np.max(abs(L).sum(axis=1))))


def traversal_levels(t):
    """The depth levels of a Traversal as slices of its order, from ``order``
    and ``up``: the nodes d+1 lines below the root are ``order[levels[d]]``."""
    n, up = t.order.size, t.up.tolist()
    depth = [0] * n + [-1]  # depth[n] belongs to the root
    for k in range(n):
        depth[k] = depth[up[k]] + 1  # parents come before their children in order
    starts = [k for k in range(n) if k == 0 or depth[k] != depth[k - 1]]
    return tuple(slice(a, b) for a, b in zip(starts, starts[1:] + [n]))


def sensitivity_by_paths(net, weight="x"):
    """X (or R) entry by entry from the shared-path definition."""
    by_pair = {(ln.from_node, ln.to_node): getattr(ln, weight) for ln in net.lines}
    paths = [root_path_lines(net, i) for i in range(1, net.n + 1)]
    M = np.zeros((net.n, net.n))
    for i in range(net.n):
        for j in range(net.n):
            M[i, j] = sum(by_pair[e] for e in paths[i] & paths[j])
    return M


def droop_scalar(alpha, delta, u):
    """Piecewise droop evaluated arm by arm."""
    if u > delta / 2:
        return -alpha * (u - delta / 2)
    if u < -delta / 2:
        return alpha * (-u - delta / 2)
    return 0.0


def bisect_response(alpha, delta, xii, c, tol=1e-14):
    """Solve q = f(2*xii*q + c) by plain bisection on q - f(...)."""
    def phi(q):
        return q - droop_scalar(alpha, delta, 2 * xii * q + c)

    lo, hi = -1.0, 1.0
    while phi(lo) > 0:
        lo *= 2
    while phi(hi) < 0:
        hi *= 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if phi(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def cost_scalar(y, delta, q):
    return 0.5 * y * q * q + 0.5 * delta * abs(q)


def objective_F_direct(X, y, delta, dv, q):
    q = np.asarray(q, dtype=float)
    return (
        sum(cost_scalar(y[i], delta[i], q[i]) for i in range(len(q)))
        + 0.5 * float(q @ X @ q)
        + float(q @ dv)
    )


def objective_W_direct(X, y, delta, dv, q):
    return objective_F_direct(X, y, delta, dv, q) + 0.5 * float(
        np.sum(np.diag(X) * np.asarray(q) ** 2)
    )


def objective_F_batch(X, y, delta, dv, Q):
    """objective_F_direct at each row of Q, one numpy call per term."""
    Q = np.asarray(Q, dtype=float)
    return (0.5 * (Q * Q) @ y + 0.5 * np.abs(Q) @ delta
            + 0.5 * np.einsum("pi,ij,pj->p", Q, X, Q) + Q @ dv)


def grid_minimize(fn, lo, hi, rounds=8, points=13):
    """Product-grid minimization with interval refinement, n <= 4.

    fn maps the grid, an (m, n) array of points in itertools.product order,
    to their m values; the best point so far is the first of the smallest.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    n = lo.size
    best = None
    best_val = math.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(n)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        vals = fn(grid)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best = grid[j]
        span = (hi - lo) * (2.0 / (points - 1))
        lo = np.maximum(lo, best - span)
        hi = np.minimum(hi, best + span)
    return best, best_val


def grid_best_response_nash(X, y, delta, dv, qmin, qmax, sweeps=300, tol=1e-9):
    """Nash point by per-node scalar grid refinement (no closed forms)."""
    n = X.shape[0]
    q = np.zeros(n)

    def h_i(i, qi, qvec):
        others = float(sum(X[i, j] * qvec[j] for j in range(n) if j != i))
        return cost_scalar(y[i], delta[i], qi) + qi * (X[i, i] * qi + others + dv[i])

    for _ in range(sweeps):
        moved = 0.0
        for i in range(n):
            lo = max(qmin[i], -50.0)
            hi = min(qmax[i], 50.0)
            for _ in range(10):
                grid = np.linspace(lo, hi, 25)
                vals = [h_i(i, g, q) for g in grid]
                k = int(np.argmin(vals))
                step = (hi - lo) / 24
                lo = max(qmin[i], grid[k] - step)
                hi = min(qmax[i], grid[k] + step)
            new = (lo + hi) / 2
            moved = max(moved, abs(new - q[i]))
            q[i] = new
        if moved < tol:
            break
    return q


def chain_feeder(xs, rs=None, buses=None, v0=1.0):
    """The validated linear feeder 0-1-...-n with line reactances xs and
    resistances rs (zero when None), BusData records buses (the defaults
    when None) and root voltage v0, built from its columns."""
    from voltgame.topology import RadialNetwork, validate_tree

    x = np.array(xs, dtype=float)
    n = x.size
    net = RadialNetwork(n, from_node=np.arange(n), to_node=np.arange(1, n + 1),
                        r=np.zeros(n) if rs is None else rs, x=x, buses=buses, v0=v0)
    validate_tree(net)
    return net


def _line_arrays(net):
    """children lists, parent tuple and r/x arrays read straight off net.lines."""
    by_child = {ln.to_node: ln for ln in net.lines}
    children = [[] for _ in range(net.n + 1)]
    for ln in net.lines:
        children[ln.from_node].append(ln.to_node)
    parent = tuple(by_child[i].from_node for i in range(1, net.n + 1))
    r = np.array([by_child[i].r for i in range(1, net.n + 1)])
    x = np.array([by_child[i].x for i in range(1, net.n + 1)])
    return children, parent, r, x


def _sweep_order(children):
    """Nodes ordered root-outward (parents come before children)."""
    order = []
    stack = list(children[0])
    while stack:
        k = stack.pop()
        order.append(k)
        stack.extend(children[k])
    return order


def equation_residuals_by_bus(net, p_inj, q_inj, state):
    """Max absolute branch-flow equation violation, one bus at a time."""
    children, parent, r, x = _line_arrays(net)
    P, Q, ell, v_sq = state.P, state.Q, state.ell, state.v_sq
    res = 0.0
    for j in range(1, net.n + 1):
        i = parent[j - 1]
        e = j - 1
        sum_P = sum(P[k - 1] for k in children[j])
        sum_Q = sum(Q[k - 1] for k in children[j])
        res = max(res, abs(P[e] - (-p_inj[e] + sum_P + r[e] * ell[e])))
        res = max(res, abs(Q[e] - (-q_inj[e] + sum_Q + x[e] * ell[e])))
        res = max(res, abs(v_sq[j] - (v_sq[i] - 2.0 * (r[e] * P[e] + x[e] * Q[e])
                                      + (r[e] ** 2 + x[e] ** 2) * ell[e])))
        res = max(res, abs(ell[e] * v_sq[i] - (P[e] * P[e] + Q[e] * Q[e])))
    return res


def sweep_solve_by_bus(net, p_inj, q_inj, tol=1e-8, max_iter=200):
    """Backward/forward sweep walking the buses one at a time in depth-first order."""
    from voltgame.acflow import BranchFlowState, NoConvergenceError, VoltageCollapseError

    n = net.n
    p_inj = np.asarray(p_inj, dtype=float)
    q_inj = np.asarray(q_inj, dtype=float)
    children, parent, r, x = _line_arrays(net)
    order = _sweep_order(children)

    P = np.zeros(n)
    Q = np.zeros(n)
    ell = np.zeros(n)
    v_sq = np.full(n + 1, net.v0 ** 2)

    state = BranchFlowState(P, Q, ell, v_sq, residual=np.inf, iterations=0)
    for it in range(1, max_iter + 1):
        # backward: accumulate flows leaf-to-root with frozen currents
        for j in reversed(order):
            e = j - 1
            P[e] = -p_inj[e] + sum(P[k - 1] for k in children[j]) + r[e] * ell[e]
            Q[e] = -q_inj[e] + sum(Q[k - 1] for k in children[j]) + x[e] * ell[e]
        # forward: propagate voltages root-to-leaf, refresh currents
        for j in order:
            e = j - 1
            i = parent[e]
            v_sq[j] = v_sq[i] - 2.0 * (r[e] * P[e] + x[e] * Q[e]) + (r[e] ** 2 + x[e] ** 2) * ell[e]
            if v_sq[j] <= 0:
                raise VoltageCollapseError(f"squared voltage {v_sq[j]:.3e} at bus {j}")
            ell[e] = (P[e] * P[e] + Q[e] * Q[e]) / v_sq[i]

        state = BranchFlowState(P, Q, ell, v_sq, residual=np.inf, iterations=it)
        state.residual = equation_residuals_by_bus(net, p_inj, q_inj, state)
        if state.residual < tol:
            return state
    raise NoConvergenceError(state.residual, max_iter)


def sweep_solve_by_level(net, p_inj, q_inj, tol=1e-8, max_iter=200):
    """Backward/forward sweep from a flat start, one set of numpy calls per depth level.

    Child sums are added in sibling order, as sweep_solve_by_bus adds them,
    so the two agree bit for bit.
    """
    from voltgame.acflow import (NoConvergenceError, VoltageCollapseError, _residual,
                                 _squares, _to_state)

    n = net.n
    t = net.traversal
    f = t.factor
    idx, r, x = f.idx, f.r, f.x
    p = np.asarray(p_inj, dtype=float)[idx]
    q = np.asarray(q_inj, dtype=float)[idx]
    levels = traversal_levels(t)
    below = levels[1:] + (slice(n, n),)  # each level's children; none under the deepest

    P = np.zeros(n)
    Q = np.zeros(n)
    ell = np.zeros(n)
    v = np.full(n + 1, net.v0 ** 2)  # v[k] belongs to order[k]; v[n] is the root's

    residual = np.inf
    for it in range(1, max_iter + 1):
        r_ell = r * ell
        x_ell = x * ell
        for s, c in zip(reversed(levels), reversed(below)):
            P[s] = -p[s] + np.bincount(t.up[c], P[c], s.stop)[s] + r_ell[s]
            Q[s] = -q[s] + np.bincount(t.up[c], Q[c], s.stop)[s] + x_ell[s]
        drop = 2.0 * (r * P + x * Q)
        rise = f.z2 * ell
        for s in levels:
            v[s] = v[t.up[s]] - drop[s] + rise[s]
        collapsed = v[:n] <= 0
        if collapsed.any():
            k = int(np.argmax(collapsed))
            raise VoltageCollapseError(f"squared voltage {v[k]:.3e} at bus {t.order[k]}")
        PQ2 = _squares(P, Q)
        ell = PQ2 / v[t.up]

        residual = _residual(f, p, q, P, Q, ell, v, PQ2)
        if residual < tol:
            return _to_state(f.pos, P, Q, ell, v, residual, it)
    raise NoConvergenceError(residual, max_iter)


def random_tree_by_node(dist, seed):
    """Random feeder drawing each node's child count with its own rng.choice."""
    from collections import deque

    from voltgame.topology import BusData, Line, RadialNetwork, _uniform_half_open

    rng = np.random.default_rng(seed)
    counts = sorted(dist.probabilities)
    probs = np.array([dist.probabilities[k] for k in counts])
    lines = [(0, 1)]
    depth_of = {1: 1}
    frontier = deque([1])
    next_id = 2
    while frontier:
        node = frontier.popleft()
        if depth_of[node] >= dist.max_depth:
            continue
        for _ in range(int(rng.choice(counts, p=probs))):
            lines.append((node, next_id))
            depth_of[next_id] = depth_of[node] + 1
            frontier.append(next_id)
            next_id += 1
    n = next_id - 1
    xs = _uniform_half_open(rng, *dist.x_range, size=n)
    return RadialNetwork(
        n=n,
        lines=tuple(Line(f, t, 0.0, float(xs[t - 1])) for f, t in lines),
        buses=tuple(BusData() for _ in range(n)),
    )


def bus_error_by_record(net):
    """The message of the TopologyError that validate_tree raises for the
    bus data of net, by the per-record loop its array checks replaced;
    None when no bus is at fault."""
    for k, b in enumerate(net.buses, start=1):
        # a non-finite field makes the sum non-finite
        if not math.isfinite(b.p_c + b.p_g + b.q_c + b.v_nom):
            for name in ("p_c", "p_g", "q_c", "v_nom"):
                value = getattr(b, name)
                if not math.isfinite(value):
                    return f"bus {k} has non-finite {name}={value}"
        # a NaN limit fails the comparison, as does an empty box
        if not b.q_min <= b.q_max:
            for name in ("q_min", "q_max"):
                value = getattr(b, name)
                if math.isnan(value):
                    return f"bus {k} has NaN {name}={value}"
        if b.is_actuator and not (b.q_min <= 0.0 <= b.q_max):
            return (f"bus {k}: actuator box [{b.q_min},{b.q_max}] must contain 0 "
                    "(zero injection always feasible)")
    return None


def topology_hash_by_parts(net):
    """topology_hash with one sha256 update per line and per asdict(bus) dump."""
    import hashlib
    import json
    from dataclasses import asdict

    h = hashlib.sha256()
    h.update(f"v0={net.v0:.12g};n={net.n}".encode())
    for ln in net.lines:
        h.update(f"L{ln.from_node},{ln.to_node},{ln.r:.12g},{ln.x:.12g}".encode())
    for b in net.buses:
        h.update(json.dumps(asdict(b), sort_keys=True).encode())
    return h.hexdigest()[:16]


def network_error_by_rows(doc):
    """The message of the ParseError that parse_network_json raises for the
    parsed network document doc, found by walking the document row by row
    and field by field; None when the reader names no fault.

    The order of checks: the document is an object; it has 'buses' and
    'lines'; 'v0'; both tables are lists of objects; each bus id (missing,
    not a label, or a repeat); each line's ends are labels; the root; each
    non-root bus row ('actuator', then the six number fields, then
    'control'); each line row (a missing 'from', 'to', 'r' or 'x', then 'r'
    and 'x' are numbers, then each end names a bus); the control block.
    Within a check, the first row at fault is named, and its first field at
    fault.  validate_tree, which runs between the line rows and the control
    block, is not walked: a valid feeder never reaches it here.
    """
    import json

    def number(v):
        if type(v) is int:  # a JSON integer too large for a float is no number
            try:
                float(v)
            except OverflowError:
                return False
            return True
        return type(v) is float

    def label(v):
        return type(v) in (int, float, str)

    def kind(v):
        return type(v).__name__

    if not isinstance(doc, dict):
        return f"the network must be an object, not {kind(doc)}"
    for key in ("buses", "lines"):
        if key not in doc:
            return f"missing top-level key {key!r}"
    if doc.get("v0") is not None and not number(doc["v0"]):
        return f"the network: 'v0' must be a number, not {json.dumps(doc['v0'])}"
    for name in ("buses", "lines"):
        if not isinstance(doc[name], list):
            return f"{name!r} must be a list of objects, not {kind(doc[name])}"
        for k, row in enumerate(doc[name]):
            if not isinstance(row, dict):
                return f"{name}[{k}] must be an object, not {kind(row)}"
    buses, lines = doc["buses"], doc["lines"]

    row_of = {}  # bus id -> the index of its row
    for k, row in enumerate(buses):
        if "id" not in row:
            return f"buses[{k}] has no 'id'"
        if not label(row["id"]):
            return f"buses[{k}]: 'id' must be a number or a string, not {json.dumps(row['id'])}"
        if row["id"] in row_of:
            return f"buses[{k}] repeats bus id {row['id']!r} of buses[{row_of[row['id']]}]"
        row_of[row["id"]] = k
    for k, row in enumerate(lines):
        for key in ("from", "to"):
            if key not in row:
                return f"lines[{k}] has no {key!r}"
        for key in ("from", "to"):
            if not label(row[key]):
                return (f"lines[{k}]: {key!r} must be a number or a string, "
                        f"not {json.dumps(row[key])}")

    children = {row["to"] for row in lines}
    if 0 in row_of or "0" in row_of:
        root = row_of[0] if 0 in row_of else row_of["0"]
    else:
        candidates = [b for b in row_of if b not in children]
        if len(candidates) != 1:
            return f"cannot identify a unique root bus (candidates: {candidates})"
        root = row_of[candidates[0]]

    for k, row in enumerate(buses):
        if k == root:
            continue
        if type(row.get("actuator", True)) is not bool:
            return (f"buses[{k}]: 'actuator' must be true or false, "
                    f"not {json.dumps(row.get('actuator'))}")
        for key in ("p_c", "p_g", "q_c", "v_nom", "q_min", "q_max"):
            if row.get(key) is not None and not number(row[key]):
                return f"buses[{k}]: {key!r} must be a number, not {json.dumps(row[key])}"
        if row.get("control") is not None and not isinstance(row["control"], dict):
            return f"buses[{k}]['control'] must be an object, not {kind(row['control'])}"

    for k, row in enumerate(lines):
        for key in ("from", "to", "r", "x"):
            if key not in row:
                return f"lines[{k}] has no {key!r}"
        for key in ("r", "x"):
            if not number(row[key]):
                return f"lines[{k}]: {key!r} must be a number, not {json.dumps(row[key])}"
        for key in ("from", "to"):
            if row[key] not in row_of:
                return f"line {row!r} references unknown bus {row[key]!r}"

    base = doc.get("control")
    if base is None and all(row.get("control") is None
                            for k, row in enumerate(buses) if k != root):
        return None
    if base is not None and not isinstance(base, dict):
        return f"'control' must be an object, not {kind(base)}"
    for k, row in enumerate(buses):
        if k == root or not row.get("actuator", True):
            continue
        over = row.get("control") or {}
        for key in ("alpha", "delta", "q_min", "q_max"):
            value = over[key] if key in over else (base or {}).get(key)
            if value is not None and not number(value):
                return (f"the control of buses[{k}]: {key!r} must be a number, "
                        f"not {json.dumps(value)}")
    return None


def format_rows_by_value(rows, end):
    """Rows of floats as text, each value printed by "%.17g" % v on its own,
    joined by "," and each row ended by end."""
    return "".join(",".join("%.17g" % v for v in row) + end
                   for row in np.asarray(rows, dtype=float).tolist())


def dump_trace_csv_by_writer(trace, with_voltages=False):
    """Trace CSV formatted float by float and written through csv.writer."""
    import csv
    import io

    k = trace.q_hist.shape[1]
    buf = io.StringIO()
    w = csv.writer(buf)
    header = ["t", "residual"] + [f"q_{i}" for i in range(1, k + 1)]
    if with_voltages and trace.v_hist is not None:
        header += [f"v_{i}" for i in range(1, trace.v_hist.shape[1] + 1)]
    w.writerow(header)
    for t in range(trace.q_hist.shape[0]):
        row = [t, "" if t == 0 else f"{trace.residuals[t - 1]:.17g}"]
        row += [f"{v:.17g}" for v in trace.q_hist[t]]
        if with_voltages and trace.v_hist is not None and t < trace.v_hist.shape[0]:
            row += [f"{v:.17g}" for v in trace.v_hist[t]]
        w.writerow(row)
    return buf.getvalue()


# -- scalar and dense APIs that only the tests use ---------------------------------


def reactances(net):
    """Per-line x ordered by child node (entry i-1 is the line into node i), a copy."""
    return net.traversal.x.copy()


def path_to_root(net, i):
    """Lines on the unique path from the root to node i, root end first."""
    from voltgame.topology import UnknownNodeError

    if not 1 <= i <= net.n:
        raise UnknownNodeError(f"node {i} not in 1..{net.n}")
    lines = child_lines(net)
    path = []
    k = i
    while k != 0:
        ln = lines[k - 1]
        path.append(ln)
        k = ln.from_node
    path.reverse()
    return path


def depth(net, i):
    """Number of lines on the root path of node i."""
    return len(path_to_root(net, i))


def path_intersection(net, i, j):
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


def uniform_chain_eigenvalues(n, a):
    """Eigenvalues of the inverse reactance matrix of a uniform chain.

    Returns (2/a)(1 + cos(2 k pi / (2n+1))) for k = 1..n, which is
    descending; the reciprocal of the last entry is the largest eigenvalue
    of X itself.
    """
    from voltgame.sensitivity import IndexOutOfRangeError

    if n < 1:
        raise IndexOutOfRangeError("n must be >= 1")
    if a <= 0:
        raise ValueError("reactance must be positive")
    k = np.arange(1, n + 1)
    return (2.0 / a) * (1.0 + np.cos(2.0 * k * np.pi / (2 * n + 1)))


def shared_path_sums(net, weight="x", idx=None):
    """X (or R) on the matrix indices idx (every bus when None), built level by level.

    M[a, b] is the total weight on the lines shared by the root paths of
    idx[a]+1 and idx[b]+1.  The shared path of two nodes ends at their
    lowest common ancestor, so a node's entry with a shallower node is its
    parent's, its entry with another node of its own level is that of the
    two parents, and only the diagonal, its own root-path sum, is new;
    entries with deeper nodes come from their rows by symmetry.  Filled one
    depth level at a time in traversal order, with a zero row and column at
    position n for the root, then the rows and columns of idx are taken.
    Every off-diagonal entry is copied, never recomputed, so M is exactly
    symmetric.
    """
    tr = net.traversal
    w = getattr(tr, weight)
    idx = np.arange(net.n) if idx is None else np.asarray(idx)
    n = tr.order.size
    up = tr.up
    s = np.zeros(n + 1)  # root-path sums in traversal order; s[n] is the root's 0
    M = np.zeros((n + 1, n + 1))
    for lv in traversal_levels(tr):
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


def optimality_residual(objective, S, ctrl, vt, q):
    """Stationarity measure of F or W: sup-norm distance to the coordinate minimizers.

    Coordinate i of the objective, the others fixed, is
    (y_i + c d_i) q_i^2 / 2 + b_i q_i + delta_i |q_i| / 2 on the box, with
    c = 1 for F and 2 for W and b = X q - d q + dv; its minimizer is the
    soft-thresholded stationary point, projected.
    """
    q = np.asarray(q, dtype=float)
    b = S.matvec(q) - S.d * q + vt.delta_v_tilde
    curv = ctrl.y + (S.d if objective == "F" else 2.0 * S.d)
    shrunk = np.sign(b) * np.maximum(np.abs(b) - 0.5 * ctrl.delta, 0.0)
    t = np.clip(-shrunk / curv, ctrl.q_min, ctrl.q_max)
    return float(np.max(np.abs(q - t)))


def inverse_tree_laplacian(net):
    """Dense tree_laplacian without the root line: every row sums to zero.

    Adding 1/x01 to the entry of the root's child yields the exact inverse of
    the reactance matrix, which is tree_laplacian itself.
    """
    from voltgame.topology import tree_laplacian

    L = tree_laplacian(net).toarray()
    k = np.flatnonzero(net.traversal.parent == 0)[0]
    L[k, k] -= 1.0 / net.traversal.x[k]
    return L


class EmptyChainError(ValueError):
    pass


def chain_x_inverse(xs):
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


def self_sensitivities(S):
    """Diagonal of X as a vector (root-path total reactance per bus)."""
    return np.diag(S.X).copy()


# -- dense equilibrium solvers -----------------------------------------------------


def solve_quadratic_cholesky(S, Y, vt, which):
    """Closed-form equilibrium for pure quadratic costs by dense Cholesky.

    which="equilibrium" solves (X+Y) q = -dv, which="nash" (X+D+Y) q = -dv.
    """
    from voltgame.equilibrium import EquilibriumResult, NashResult

    Yd = _cost_diagonal(Y)
    dv = vt.delta_v_tilde
    M = S.X + np.diag(Yd)
    if which == "equilibrium":
        q = -cho_solve(_spd_factor(M), dv)
        F = 0.5 * float(q @ M @ q) + float(q @ dv)
        return EquilibriumResult(q_star=q, v_star=S.X @ q + vt.v_tilde, F_value=F,
                                 solver="closed_form")
    N = M + np.diag(np.diag(S.X))
    q = -cho_solve(_spd_factor(N), dv)
    W = 0.5 * float(q @ N @ q) + float(q @ dv)
    F = 0.5 * float(q @ M @ q) + float(q @ dv)
    return NashResult(q_a=q, W_value=W, F_at_qa=F, solver="closed_form")


def solve_coordinate_descent(objective, S, ctrl, vt, q0=None, tol=1e-10, max_iter=200_000):
    """Projected cyclic coordinate descent on F or W with exact line minimization.

    Handles deadband costs and reactive boxes.  Stops when the stationarity
    residual max_i |q_i - argmin_i| drops below tol; this residual is zero
    exactly at the unique optimum because both objectives are strictly
    convex with separable nonsmooth parts.
    """
    from voltgame.equilibrium import (
        EquilibriumResult,
        MaxIterError,
        NashResult,
        _coordinate_minimizers,
        objective_F,
        objective_W,
    )

    if objective not in ("F", "W"):
        raise ValueError("objective must be 'F' or 'W'")
    n = S.n
    dv = vt.delta_v_tilde
    xii = S.d
    curv = ctrl.y + (xii if objective == "F" else 2.0 * xii)
    half_delta = 0.5 * ctrl.delta
    q = np.zeros(n) if q0 is None else np.asarray(q0, dtype=float).copy()
    s = S.matvec(q)

    residual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        for i in range(n):
            c = s[i] - xii[i] * q[i] + dv[i]
            if c > half_delta[i]:
                target = -(c - half_delta[i]) / curv[i]
            elif c < -half_delta[i]:
                target = -(c + half_delta[i]) / curv[i]
            else:
                target = 0.0
            target = min(ctrl.q_max[i], max(ctrl.q_min[i], target))
            dq = target - q[i]
            if dq != 0.0:
                s += S.X[:, i] * dq  # dense X, one column per step
                q[i] = target
        residual = float(np.max(np.abs(q - _coordinate_minimizers(objective, S, ctrl, s, q, dv))))
        if residual < tol:
            break
    else:
        raise MaxIterError(it, residual, "coordinate descent stalled")

    if objective == "F":
        return EquilibriumResult(
            q_star=q, v_star=S.matvec(q) + vt.v_tilde, F_value=objective_F(S, ctrl, vt, q),
            solver="iterative", iterations=it, residual=residual,
        )
    return NashResult(
        q_a=q, W_value=objective_W(S, ctrl, vt, q), F_at_qa=objective_F(S, ctrl, vt, q),
        solver="iterative", iterations=it, residual=residual,
    )


# -- the dense PoSA report ----------------------------------------------------------


def _spd_factor(M):
    return cho_factor(M, lower=True)


def _cost_diagonal(Y):
    Y = np.asarray(Y, dtype=float)
    return np.diag(Y) if Y.ndim == 2 else Y


def pi_matrix(S, Y):
    """Kernel of the quadratic PoSA form:

        (X+D+Y)^{-1} D (X+Y)^{-1} D (X+D+Y)^{-1},

    symmetric and positive definite whenever every bus has positive
    self-sensitivity.  Valid for pure quadratic costs without boxes.
    """
    d = np.diag(S.X)
    M = S.X + np.diag(_cost_diagonal(Y))
    N = M + np.diag(d)
    return _pi_kernel(_spd_factor(M), _spd_factor(N), d)


def _pi_kernel(cM, cN, d):
    """pi_matrix from the Cholesky factors of M = X+Y and N = X+D+Y."""
    Z = cho_solve(cN, np.diag(d))          # (X+D+Y)^{-1} D
    Pi = Z @ cho_solve(cM, Z.T)
    return 0.5 * (Pi + Pi.T)


def posa_report(S, Y, vt=None, want_direction=True):
    """Every PoSA bound of a SensitivitySet from its dense matrices.

    M = X+Y and N = X+D+Y are factored once each; the PoSA kernel, M^{-1},
    N^{-1} and the realized gap share the two factors, and the extreme
    eigenvalues come from dense eigvalsh/eigh.  The gap is evaluated as
    F = q.M.q / 2 + q.dv at both closed-form points, as
    solve_quadratic_cholesky does.
    """
    from voltgame.equilibrium import _bounds_report

    Yd = _cost_diagonal(Y)
    if np.any(Yd <= 0):
        raise ValueError("cost coefficients must be positive")
    d_vec = np.diag(S.X)
    M = S.X + np.diag(Yd)
    N = M + np.diag(d_vec)
    cM, cN = _spd_factor(M), _spd_factor(N)   # the only two factorizations

    Pi = _pi_kernel(cM, cN, d_vec)
    if want_direction:
        w, V = np.linalg.eigh(Pi)
        lam_pi = float(w[-1])
        direction = V[:, -1]
    else:
        lam_pi = float(np.linalg.eigvalsh(Pi)[-1])
        direction = None

    lam_min_M = float(np.linalg.eigvalsh(M)[0])
    lam_min_N = float(np.linalg.eigvalsh(N)[0])
    lam_min_X = float(np.linalg.eigvalsh(S.X)[0])

    Minv = cho_solve(cM, np.eye(S.n))
    Ninv = cho_solve(cN, np.eye(S.n))
    lower_mat = 0.5 * ((Minv - 2.0 * Ninv) + (Minv - 2.0 * Ninv).T)
    lam_lower = float(np.linalg.eigvalsh(lower_mat)[-1])

    posa = None
    if vt is not None:
        dv = vt.delta_v_tilde
        q_e = -cho_solve(cM, dv)
        q_n = -cho_solve(cN, dv)
        F_e = 0.5 * float(q_e @ M @ q_e) + float(q_e @ dv)
        F_n = 0.5 * float(q_n @ M @ q_n) + float(q_n @ dv)
        posa = F_n - F_e

    return _bounds_report(lam_pi, lam_min_M, lam_min_N, lam_min_X, lam_lower,
                          d=float(np.max(d_vec)), y=float(np.min(Yd)), posa=posa,
                          direction=direction)


def posa_report_random_start(S, Y, vt=None, want_direction=True):
    """posa_report with every Lanczos run started from the seeded random vector.

    The largest eigenvalues of the PoSA kernel and of M^{-1} - 2 N^{-1} come
    from Lanczos on the same Woodbury solves as posa_report, each run from
    the seeded random vector on ARPACK's default basis.  The smallest
    eigenvalues of X_AA, M and N are bisected on inertia counts from their
    whole brackets, with no estimate, so they carry posa_report's certified
    bits.
    """
    from voltgame.equilibrium import _bounds_report
    from voltgame.sensitivity import _top_eigenpair

    tree = S.net.traversal.factor
    act, k, d = S.idx, S.n, S.d
    y = np.asarray(Y, dtype=float)
    Minv, Ninv = tree.inverse(act, y), tree.inverse(act, d + y)
    lam_x = tree.lambda_min(act, np.zeros(k), tree.leaf_first.x_bracket[0], float(np.min(d)))
    lam_M, lam_N = (tree.lambda_min(act, g, lam_x + np.min(g),
                                    min(np.min(d + g), lam_x + np.max(g)))
                    for g in (y, d + y))

    def pi(v):
        return Ninv(d * Minv(d * Ninv(v)))

    lam_pi, direction = (_top_eigenpair(pi, k, vector=True) if want_direction
                         else (_top_eigenpair(pi, k), None))
    lam_lower = _top_eigenpair(lambda v: Minv(v) - 2.0 * Ninv(v), k)
    posa = None
    if vt is not None:
        dv = np.asarray(vt.delta_v_tilde, dtype=float)
        q_e, q_n = -Minv(dv), -Ninv(dv)
        posa = (0.5 * float(q_n @ dv) - 0.5 * float(np.sum(d * q_n * q_n))
                - 0.5 * float(q_e @ dv))
    return _bounds_report(lam_pi, lam_M, lam_N, lam_x, lam_lower, d=float(np.max(d)),
                          y=float(np.min(y)), posa=posa, direction=direction)


def _sigma_max(M):
    # sqrt of the top eigenvalue of M^T M; M itself is not symmetric.
    w = np.linalg.eigvalsh(M.T @ M)
    return float(np.sqrt(max(w[-1], 0.0)))


def condition_report_dense(S, ctrl):
    """Both spectral certificates and the row-sum test from the dense X.

    sigma_max(diag(alpha) X) and sigma_max(diag(beta) Xbar) come from dense
    eigvalsh of the k x k M^T M, and the row sums of Xbar entry by entry.
    Raises CertificateOrderingError as the library report does.
    """
    from voltgame.controls import beta
    from voltgame.dynamics import (CertificateOrderingError, ConditionReport,
                                   DimensionMismatchError)

    if ctrl.n != S.n:
        raise DimensionMismatchError(f"{ctrl.n} controllers for {S.n} buses")
    alpha = ctrl.alpha
    b = beta(alpha, S.d)
    Xbar = S.X - np.diag(S.d)  # mutual sensitivities only
    sigma_t = _sigma_max(alpha[:, None] * S.X)
    sigma_a = _sigma_max(b[:, None] * Xbar)
    sufficient = float(np.max(b) * np.max(np.sum(Xbar, axis=1)))

    if not sigma_a < sigma_t + 1e-15:
        raise CertificateOrderingError(
            f"certificate ordering violated: {sigma_a} >= {sigma_t}", sigma_t, sigma_a, sufficient)
    if sufficient < 1.0 and not sigma_a < 1.0:
        raise CertificateOrderingError(
            f"sufficient row-sum test held ({sufficient} < 1) but the spectral test "
            f"failed ({sigma_a} >= 1)", sigma_t, sigma_a, sufficient)

    return ConditionReport(
        sigma_taking=sigma_t,
        sigma_anticipating=sigma_a,
        sufficient_lhs=sufficient,
        taking_converges=sigma_t < 1.0,
        anticipating_converges=sigma_a < 1.0,
        sufficient_holds=sufficient < 1.0,
    )


def search_alpha_window(S, margin=0.05, bisect_tol=1e-10):
    """Find a uniform droop slope where only the anticipating law converges.

    Bisects the global slope scale on the dense certificates: below
    1/lambda_max(X) both hold, so the taking threshold is crossed first.
    Returns a slope alpha with sigma(taking) > 1 > sigma(anticipating);
    raises if the anticipating certificate margin at the taking threshold is
    too thin.
    """
    from voltgame.controls import beta

    Xbar = S.X - np.diag(S.d)

    def sig_t(a):
        return _sigma_max(a * S.X)

    def sig_a(a):
        b = beta(np.full(S.n, a), S.d)
        return _sigma_max(b[:, None] * Xbar)

    lo, hi = 1e-9, 1.0
    while sig_t(hi) < 1.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("taking certificate never crosses 1")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sig_t(mid) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < bisect_tol * hi:
            break
    alpha = hi * (1.0 + margin)
    if not (sig_t(alpha) > 1.0 and sig_a(alpha) < 1.0):
        raise RuntimeError(
            f"no slope window found: sigma_taking={sig_t(alpha):.6f}, "
            f"sigma_anticipating={sig_a(alpha):.6f} at alpha={alpha:.6g}"
        )
    return float(alpha)
