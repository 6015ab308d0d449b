"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from voltgame.topology import BusData, Line, RadialNetwork


@st.composite
def feeders(draw, r, x, max_depth=6, max_children=4, max_buses=60):
    """Random radial feeder with shuffled line order and node labels.

    Each line draws its resistance from ``r`` and its reactance from ``x``.
    """
    edges = [(0, 1)]
    frontier = [(1, 1)]
    while frontier and len(edges) < max_buses:
        node, depth = frontier.pop(0)
        if depth == max_depth:
            continue
        for _ in range(draw(st.integers(0, max_children))):
            if len(edges) == max_buses:
                break
            edges.append((node, len(edges) + 1))
            frontier.append((len(edges), depth + 1))
    n = len(edges)
    label = [0] + draw(st.permutations(range(1, n + 1)))
    lines = tuple(Line(label[a], label[b], draw(r), draw(x))
                  for a, b in draw(st.permutations(edges)))
    return RadialNetwork(n=n, lines=lines, buses=tuple(BusData() for _ in range(n)))
