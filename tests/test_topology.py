import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bus_error_by_record,
    chain_feeder,
    child_lines,
    depth,
    inverse_tree_laplacian,
    leaf_first_by_permutation,
    path_intersection,
    path_to_root,
    random_tree_by_node,
    reactances,
    traversal_by_walk,
    traversal_levels,
)
from strategies import feeders
from voltgame import topology
from voltgame.acflow import sweep_solve
from voltgame.sensitivity import build_sensitivity
from voltgame.experiments import load_sce42
from voltgame.netio import topology_hash
from voltgame.topology import (
    BusData,
    CycleError,
    DegreeDistribution,
    DisconnectedError,
    InvalidDistributionError,
    Line,
    MultiRootChildError,
    NonpositiveReactanceError,
    RadialNetwork,
    TopologyError,
    UnknownNodeError,
    chain_network,
    random_instance,
    random_tree,
    validate_tree,
)

BUS_FIELDS = ("p_c", "p_g", "q_c", "v_nom", "q_min", "q_max", "is_actuator")
COLUMNS = ("from_node", "to_node", "r", "x") + BUS_FIELDS


def fig_tree(a=2.0, b=3.0, c=5.0, d=7.0):
    # 0-1 (a), 1-2 (b), 2-3 (c), 1-4 (d)
    lines = (Line(0, 1, 0.0, a), Line(1, 2, 0.0, b), Line(2, 3, 0.0, c), Line(1, 4, 0.0, d))
    return RadialNetwork(n=4, lines=lines, buses=tuple(BusData() for _ in range(4)))


class TestValidate:
    def test_minimal_chain_ok(self):
        validate_tree(chain_network([1.0, 1.0]))

    def test_two_root_children_rejected(self):
        lines = (Line(0, 1, 0, 1.0), Line(0, 2, 0, 1.0))
        net = RadialNetwork(n=2, lines=lines, buses=(BusData(), BusData()))
        with pytest.raises(MultiRootChildError):
            validate_tree(net)

    def test_zero_reactance_rejected(self):
        lines = (Line(0, 1, 0, 1.0), Line(1, 2, 0, 0.0))
        net = RadialNetwork(n=2, lines=lines, buses=(BusData(), BusData()))
        with pytest.raises(NonpositiveReactanceError):
            validate_tree(net)

    def test_cycle_rejected(self):
        lines = (Line(0, 1, 0, 1.0), Line(2, 3, 0, 1.0), Line(3, 2, 0, 1.0))
        net = RadialNetwork(n=3, lines=lines, buses=(BusData(),) * 3)
        with pytest.raises(CycleError):
            validate_tree(net)

    def test_disconnected_rejected(self):
        lines = (Line(0, 1, 0, 1.0), Line(1, 2, 0, 1.0), Line(1, 2, 0, 1.0))
        net = RadialNetwork(n=3, lines=lines, buses=(BusData(),) * 3)
        with pytest.raises((DisconnectedError, CycleError)):
            validate_tree(net)
        net = RadialNetwork(n=2, lines=(Line(0, 1, 0, 1.0),), buses=(BusData(), BusData()))
        with pytest.raises(DisconnectedError):
            validate_tree(net)

    def test_cycle_named_from_lowest_unreached_node(self):
        # node 1 reaches the root; node 2 hangs below the cycle 3 <-> 4
        lines = (Line(0, 1, 0, 1.0), Line(3, 2, 0, 1.0), Line(4, 3, 0, 1.0), Line(3, 4, 0, 1.0))
        net = RadialNetwork(n=4, lines=lines, buses=(BusData(),) * 4)
        with pytest.raises(CycleError, match="cycle through node 3$"):
            validate_tree(net)

    @pytest.mark.parametrize("line, node", [
        (Line(1.5, 2, 0.0, 1.0), "1.5"),
        (Line(1, 2.5, 0.0, 1.0), "2.5"),
        (Line(float("nan"), 2, 0.0, 1.0), "nan"),
    ])
    def test_non_integer_node_id_rejected(self, line, node):
        # the id is named, not truncated to a node that exists
        with pytest.raises(UnknownNodeError, match=f"^line references unknown node {node}$"):
            RadialNetwork(n=2, lines=(Line(0, 1, 0.0, 1.0), line), buses=(BusData(),) * 2)
        with pytest.raises(UnknownNodeError):
            RadialNetwork(n=2, buses=(BusData(),) * 2, from_node=[0, line.from_node],
                          to_node=[1, line.to_node], r=[0.0, 0.0], x=[1.0, 1.0])

    def test_whole_float_node_ids_accepted(self):
        net = RadialNetwork(n=2, lines=(Line(0.0, 1.0, 0.0, 1.0), Line(1.0, 2.0, 0.0, 1.0)),
                            buses=(BusData(),) * 2)
        assert net == chain_network([1.0, 1.0])

    def test_deep_chain(self):
        net = RadialNetwork(n=20_000, lines=tuple(Line(k, k + 1, 0.0, 1.0) for k in range(20_000)),
                            buses=(BusData(),) * 20_000)
        validate_tree(net)
        assert net._traversal is not None

    def test_actuator_box_must_contain_zero(self):
        net = RadialNetwork(n=1, lines=(Line(0, 1, 0, 1.0),),
                            buses=(BusData(q_min=0.5, q_max=1.0),))
        with pytest.raises(Exception):
            validate_tree(net)

    @pytest.mark.parametrize("field", ["p_c", "p_g", "q_c", "v_nom"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_bus_data_names_bus_and_field(self, field, value):
        buses = (BusData(),) * 2 + (BusData(**{field: value}),)
        net = RadialNetwork(n=3, lines=tuple(Line(k, k + 1, 0.0, 1.0) for k in range(3)),
                            buses=buses)
        with pytest.raises(TopologyError, match=f"^bus 3 has non-finite {field}={value}$"):
            validate_tree(net)
        assert net._traversal is None

    @pytest.mark.parametrize("v0", [np.nan, np.inf])
    def test_non_finite_root_voltage(self, v0):
        net = RadialNetwork(n=1, lines=(Line(0, 1, 0.0, 1.0),), buses=(BusData(),), v0=v0)
        with pytest.raises(TopologyError, match=f"^the root voltage v0={v0} is not finite$"):
            validate_tree(net)

    def test_huge_finite_bus_data_passes(self):
        # the fields' sum overflows, but each field is finite
        net = chain_feeder([1.0], buses=[BusData(p_c=-1e308, p_g=1e308, q_c=1e308)])
        assert net.traversal.d.tolist() == [1.0]


BUS_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e308, -1e308, math.inf, -math.inf, math.nan])


class TestBusChecksMatchRecords:
    # the bus checks are array passes; the per-record loop they replaced is
    # the oracle, message for message
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        *[st.lists(BUS_VALUES, min_size=n, max_size=n)] * 6,
        st.lists(st.booleans(), min_size=n, max_size=n))))
    def test_columns(self, columns):
        n = len(columns[0])
        net = RadialNetwork(n=n, from_node=range(n), to_node=range(1, n + 1), r=[0.0] * n,
                            x=[1.0] * n, **dict(zip(BUS_FIELDS, columns)))
        want = bus_error_by_record(net)
        if want is None:
            validate_tree(net)
        else:
            with pytest.raises(TopologyError) as got:
                validate_tree(net)
            assert type(got.value) is TopologyError and str(got.value) == want
            assert net._traversal is None


class TestValidateOnce:
    # success is cached on the network; failure is not
    @pytest.mark.parametrize("lines, error", [
        ((Line(0, 1, 0, 1.0), Line(2, 3, 0, 1.0), Line(3, 2, 0, 1.0)), CycleError),
        ((Line(0, 1, 0, 1.0), Line(0, 2, 0, 1.0), Line(1, 3, 0, 1.0)), MultiRootChildError),
    ])
    def test_invalid_network_raises_every_time(self, lines, error):
        net = RadialNetwork(n=3, lines=lines, buses=(BusData(),) * 3)
        for _ in range(2):
            with pytest.raises(error):
                validate_tree(net)
            with pytest.raises(error):
                sweep_solve(net, np.zeros(3), np.zeros(3))
            with pytest.raises(error):
                build_sensitivity(net)
        assert net._traversal is None

    def test_success_is_recorded(self):
        net = fig_tree()
        assert net._traversal is None
        validate_tree(net)
        assert net._traversal is not None

    def test_replace_starts_unvalidated(self):
        net = fig_tree()
        validate_tree(net)
        assert dataclasses.replace(net)._traversal is None
        # the last line, (1, 4), moved to the root: (0, 4)
        bad = dataclasses.replace(net, from_node=[0, 1, 2, 0], to_node=[1, 2, 3, 4],
                                  r=[0.0] * 4, x=[2.0, 3.0, 5.0, 7.0])
        with pytest.raises(MultiRootChildError):
            validate_tree(bad)
        assert dataclasses.replace(net) == net


class TestTraversal:
    def test_levels_in_sibling_order(self):
        # lines listed out of order: node 1's children come 4 then 2
        lines = (Line(1, 4, 0.0, 7.0), Line(2, 3, 0.0, 5.0), Line(0, 1, 0.0, 2.0),
                 Line(1, 2, 0.0, 3.0))
        net = RadialNetwork(n=4, lines=lines, buses=tuple(BusData() for _ in range(4)))
        t = net.traversal
        assert [t.order[s].tolist() for s in traversal_levels(t)] == [[1], [4, 2], [3]]
        assert t.up.tolist() == [4, 0, 0, 2]
        assert t.parent.tolist() == [0, 1, 2, 1]
        np.testing.assert_array_equal(t.x, [2.0, 3.0, 5.0, 7.0])
        assert [ln.to_node for ln in child_lines(net)] == [1, 2, 3, 4]

    def test_cached_and_read_only(self):
        net = fig_tree()
        assert net.traversal is net.traversal
        with pytest.raises(ValueError):
            net.traversal.x[0] = 1.0
        xs = reactances(net)
        xs[0] = 1.0  # a copy: the cache is unchanged
        assert net.traversal.x[0] == 2.0


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def broom(handle: int, bristles: int, xs) -> RadialNetwork:
    """A path of `handle` lines from the root, then `bristles` paths of two
    lines from its end, lines listed bottom up; x from xs."""
    edges = [(k, k + 1) for k in range(handle)]
    for b in range(bristles):
        mid = handle + 1 + 2 * b
        edges += [(handle, mid), (mid, mid + 1)]
    lines = tuple(Line(f, t, 0.0, float(x)) for (f, t), x in zip(edges[::-1], xs))
    return RadialNetwork(n=len(edges), lines=lines, buses=(BusData(),) * len(edges))


@st.composite
def malformed_feeders(draw):
    """A feeder from `feeders` with one to three of its lines broken."""
    net = draw(feeders(st.floats(0.0, 1.0), st.floats(1e-3, 2.0), max_buses=30))
    n = net.n
    lines = list(net.lines)
    below = {ln.to_node: [] for ln in lines}
    for ln in lines:
        if ln.from_node:
            below[ln.from_node].append(ln.to_node)

    def descendants(k):
        out, todo = [], list(below[k])
        while todo:
            out.append(todo.pop())
            todo += below[out[-1]]
        return out

    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        ln = lines[k]
        fault = draw(st.sampled_from(["second parent", "cycle", "unreachable", "root child",
                                      "unknown node", "x", "r", "non-finite", "missing"]))
        if fault == "second parent":
            lines[k] = dataclasses.replace(ln, to_node=draw(st.sampled_from(lines)).to_node)
        elif fault == "cycle":
            lines[k] = dataclasses.replace(ln, from_node=ln.to_node)
        elif fault == "unreachable":  # hang the line's subtree below one of its own nodes
            lower = descendants(ln.to_node) if ln.to_node in below else []
            hang = draw(st.sampled_from(lower or [ln.to_node]))
            lines[k] = dataclasses.replace(ln, from_node=hang)
        elif fault == "root child":
            lines[k] = dataclasses.replace(ln, from_node=0)
        elif fault == "unknown node":
            end = draw(st.sampled_from(["from_node", "to_node"]))
            node = draw(st.sampled_from([-1, 0, n + 1] if end == "to_node" else [-1, n + 1]))
            lines[k] = dataclasses.replace(ln, **{end: node})
        elif fault == "x":
            lines[k] = dataclasses.replace(ln, x=draw(st.sampled_from([0.0, -0.0, -1.5])))
        elif fault == "r":
            lines[k] = dataclasses.replace(ln, r=draw(st.sampled_from([-1e-9, -2.0])))
        elif fault == "non-finite":
            field = draw(st.sampled_from(["r", "x"]))
            lines[k] = dataclasses.replace(
                ln, **{field: draw(st.sampled_from([np.nan, np.inf, -np.inf]))})
        elif len(lines) > 1:
            del lines[k]
    return RadialNetwork(n=n, lines=tuple(lines), buses=net.buses)


class TestMatchesWalk:
    # the traversal comes from array passes; the per-line walk they replaced
    # is the oracle, bit for bit
    FIELDS = ("order", "up", "parent", "r", "x", "d")

    def assert_matches(self, net):
        want = traversal_by_walk(net)
        got = net.traversal
        for name in self.FIELDS:
            assert same_bits(getattr(got, name), getattr(want, name)), name

    @settings(max_examples=200, deadline=None)
    @given(feeders(st.floats(0.0, 1.0), st.floats(1e-3, 2.0), max_depth=8))
    def test_shuffled_feeders(self, net):
        self.assert_matches(net)

    @pytest.mark.parametrize("handle, bristles", [(1, 0), (2, 3), (40, 0), (40, 5), (1, 60)])
    def test_paths_and_branches(self, handle, bristles):
        xs = np.random.default_rng(handle + bristles).uniform(1e-3, 2.0, handle + 2 * bristles)
        self.assert_matches(broom(handle, bristles, xs))

    def test_path_below_a_branch(self):
        # depths 1, 2, 3, ... hold 1, 2, 1, 1, ... nodes: the path below the
        # branch adds on to a nonzero root-path sum
        edges = [(0, 1), (1, 2), (1, 3)] + [(k, k + 1) for k in range(3, 60)]
        xs = np.random.default_rng(7).uniform(1e-3, 2.0, len(edges))
        lines = tuple(Line(f, t, 0.0, float(x)) for (f, t), x in zip(edges, xs))
        self.assert_matches(RadialNetwork(n=len(edges), lines=lines,
                                          buses=(BusData(),) * len(edges)))

    def test_long_chain_and_generated_trees(self):
        self.assert_matches(chain_network(np.random.default_rng(3).uniform(1e-3, 2.0, 5000)))
        for seed in (1, 5, 42):
            self.assert_matches(random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=15,
                                                               x_range=(0.0, 2.0)), seed))
        self.assert_matches(load_sce42().net)

    @settings(max_examples=300, deadline=None)
    @given(malformed_feeders())
    def test_malformed_feeders_raise_as_the_walk(self, net):
        try:
            traversal_by_walk(net)
        except TopologyError as exc:
            with pytest.raises(TopologyError) as got:
                validate_tree(net)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            assert net._traversal is None
        else:
            self.assert_matches(net)


class TestNoObjectPerLine:
    # A tuple of Line records adds about 224 bytes per line; the line
    # arrays, the traversal and the validation's temporaries peak at about
    # 200 bytes per line (numpy 2.4).
    PEAK_BYTES_PER_LINE = 250

    @pytest.mark.parametrize("build", [
        lambda: chain_network(np.random.default_rng(0).uniform(1e-3, 2.0, 2**17)),
        lambda: random_tree(DegreeDistribution({2: 1.0}, max_depth=17), seed=0),
    ], ids=["chain", "binary-tree"])
    def test_peak_memory_of_generated_feeders(self, build):
        tracemalloc.start()
        try:
            net = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.n >= 2**17 - 1
        assert peak < self.PEAK_BYTES_PER_LINE * net.n


def traced(build):
    """build() and the bytes it held when it returned and at its peak."""
    tracemalloc.start()
    try:
        out = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


class TestNoObjectPerBus:
    # A tuple of BusData records holds about 290 bytes per bus, and a tuple
    # of one shared record 8 (numpy 2.4, Python 3.11).
    N = 2**17 - 1

    def test_generated_feeder(self):
        # The line arrays and the traversal hold 80 bytes per bus, and the
        # default bus columns none (measured 80.07).
        random_tree(DegreeDistribution({2: 1.0}, max_depth=3), 0)  # first-use allocations
        net, held, _ = traced(lambda: random_tree(DegreeDistribution({2: 1.0}, max_depth=17), 0))
        assert net.n == self.N
        assert held < 84 * self.N

    def test_columns_built_and_validated(self):
        # Given as columns, the bus data adds its seven copies, 49 bytes per
        # bus, to the peak of building and validating the feeder (measured
        # 49.0; records built per bus peaked at 430 bytes per bus); its
        # checks are array passes that stay below that peak.
        n = self.N
        rng = np.random.default_rng(0)
        lines = dict(from_node=np.arange(1, n + 1) // 2, to_node=np.arange(1, n + 1),
                     r=rng.random(n), x=0.1 + rng.random(n))
        buses = dict(p_c=rng.random(n), p_g=rng.random(n), q_c=rng.random(n),
                     v_nom=1.0 + 0.01 * rng.random(n), q_min=-rng.random(n),
                     q_max=rng.random(n), is_actuator=rng.random(n) < 0.5)

        def build(**columns):
            net = RadialNetwork(n=n, **lines, **columns)
            validate_tree(net)
            return net

        _, _, lines_peak = traced(build)
        net, _, peak = traced(lambda: build(**buses))
        assert net.buses[7] == BusData(*(buses[name][7] for name in BUS_FIELDS))
        assert peak - lines_peak < 56 * n


class TestBusArrays:
    BUSES = (
        BusData(p_c=0.0, p_g=-0.0, q_c=-0.0, v_nom=1.02, q_min=-0.0, q_max=0.5),
        BusData(p_c=0.25, p_g=0.1, q_c=0.05, is_actuator=False),
        BusData(p_c=-0.0, p_g=0.0, q_c=0.0, q_min=-np.inf, q_max=np.inf),
    )
    FLOATS = BUS_FIELDS[:-1]

    def net(self, buses=BUSES):
        return chain_feeder([1.0, 2.0, 3.0], buses=buses)

    def test_equal_the_records_signs_and_infinities_included(self):
        net = self.net()
        for name in self.FLOATS:
            got, want = getattr(net, name), [getattr(bus, name) for bus in self.BUSES]
            assert got.dtype == float and got.tolist() == want, name
            assert np.signbit(got).tolist() == np.signbit(want).tolist(), name
        assert net.is_actuator.dtype == bool
        assert net.actuator_indices().tolist() == [0, 2]

    def test_read_only(self):
        net = self.net()
        for column in [getattr(net, name) for name in BUS_FIELDS] + [net.actuator_indices()]:
            with pytest.raises(ValueError):
                column[0] = 1

    def test_built_once_and_fresh_after_replace(self):
        net = self.net()
        assert net.actuator_indices() is net.actuator_indices()
        loaded = dataclasses.replace(net, p_c=[0.5] * 3, p_g=[0.0] * 3, is_actuator=[False] * 3)
        assert loaded.actuator_indices() is not net.actuator_indices()
        assert (loaded.p_g - loaded.p_c).tolist() == [-0.5] * 3
        assert loaded.actuator_indices().size == 0
        assert (net.p_g - net.p_c).tolist() == [0.0, -0.15, 0.0]
        assert net.actuator_indices().tolist() == [0, 2]

    def test_sce42_actuators(self):
        net = load_sce42().net
        assert net.actuator_indices().tolist() == [0, 10, 24, 27, 29]


class TestColumnsAreTheFields:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(RadialNetwork)] == [
            "n", "from_node", "to_node", "r", "x", *BUS_FIELDS, "v0"]

    @pytest.mark.parametrize("make", [
        lambda: load_sce42().net,
        # every bus differs from every other in every float column
        lambda: chain_feeder(
            [0.1, 0.2, 0.3, 0.4], rs=[0.01, 0.0, 0.03, 0.02], v0=1.01,
            buses=[BusData(p_c=0.1 * k, p_g=-0.05 * k, q_c=0.02 * k - 0.03, v_nom=1.0 + 0.01 * k,
                           q_min=-k - 0.5, q_max=k + 0.25, is_actuator=k % 2 == 0)
                   for k in range(4)]),
    ], ids=["sce42", "distinct-buses"])
    def test_records_round_trip(self, make):
        net = make()
        again = RadialNetwork(net.n, lines=net.lines, buses=net.buses, v0=net.v0)
        assert again == net
        assert topology_hash(again) == topology_hash(net)

    def test_replace_and_repr_build_no_records(self, monkeypatch):
        net = chain_network(np.full(10**5, 0.01))

        def no_records(*args, **kwargs):
            raise AssertionError("a record was built")

        monkeypatch.setattr(topology, "BusData", no_records)
        monkeypatch.setattr(topology, "Line", no_records)
        copy = dataclasses.replace(net)
        assert copy == net and copy._traversal is None
        # the columns are shared, not copied
        assert all(getattr(copy, name) is getattr(net, name) for name in COLUMNS)
        assert len(repr(net)) < 2000

    def test_replace_one_column(self):
        net = chain_feeder([1.0, 2.0, 3.0], buses=TestBusArrays.BUSES)
        q_c = np.array([0.5, -0.25, np.nan])  # NaN fails validation, when it comes
        loaded = dataclasses.replace(net, q_c=q_c)
        assert loaded._traversal is None
        assert loaded.q_c.tolist()[:2] == [0.5, -0.25] and np.isnan(loaded.q_c[2])
        assert not loaded.q_c.flags.writeable and loaded.q_c is not q_c
        assert all(getattr(loaded, name) is getattr(net, name)
                   for name in COLUMNS if name != "q_c")
        assert (loaded.n, loaded.v0) == (net.n, net.v0)
        with pytest.raises(TopologyError, match="bus 3 has non-finite q_c=nan"):
            validate_tree(loaded)


class TestPaths:
    def test_chain_path(self):
        net = chain_network([1.0, 1.0])
        assert [(l.from_node, l.to_node) for l in path_to_root(net, 2)] == [(0, 1), (1, 2)]
        assert [(l.from_node, l.to_node) for l in path_to_root(net, 1)] == [(0, 1)]

    def test_fig_tree_paths(self):
        net = fig_tree()
        assert [(l.from_node, l.to_node) for l in path_to_root(net, 3)] == [(0, 1), (1, 2), (2, 3)]
        inter = path_intersection(net, 3, 4)
        assert [(l.from_node, l.to_node) for l in inter] == [(0, 1)]

    def test_intersection_identities(self):
        net = fig_tree()
        assert path_intersection(net, 3, 3) == path_to_root(net, 3)
        chain = chain_network([1.0, 1.0])
        assert [(l.from_node, l.to_node) for l in path_intersection(chain, 1, 2)] == [(0, 1)]

    def test_unknown_node(self):
        net = chain_network([1.0])
        with pytest.raises(UnknownNodeError):
            path_to_root(net, 5)

    def test_intersection_is_prefix_and_symmetric(self):
        dist = DegreeDistribution({1: 0.4, 2: 0.4, 3: 0.2}, max_depth=5, x_range=(0.0, 2.0))
        net = random_tree(dist, seed=11)
        rng = np.random.default_rng(1)
        for _ in range(50):
            i, j = rng.integers(1, net.n + 1, size=2)
            inter = path_intersection(net, int(i), int(j))
            assert inter == path_intersection(net, int(j), int(i))
            for path_node in (int(i), int(j)):
                path = path_to_root(net, path_node)
                assert path[: len(inter)] == inter


class TestRandomTree:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_per_node_draws(self, data):
        support = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(support),
                                     max_size=len(support)))
        assume(sum(weights) > 0)
        total = sum(weights)
        probs = dict(zip(support, (w / total for w in weights)))
        depth = data.draw(st.integers(1, 10))
        # keep the expected size of the tree below 4 000 buses
        mean = sum(k * p for k, p in probs.items())
        assume(sum(mean ** level for level in range(depth)) < 4000)
        dist = DegreeDistribution(probs, max_depth=depth, x_range=(0.0, 2.0))
        seed = data.draw(st.integers(0, 2**32 - 1))
        got, want = random_tree(dist, seed), random_tree_by_node(dist, seed)
        assert got.n == want.n
        assert got.lines == want.lines
        assert got.buses == want.buses

    @pytest.mark.parametrize("seed", [5, 1326, 2822, 9245])
    def test_depth15_binary_trees_equal_per_node_draws(self, seed):
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=15)
        assert random_tree(dist, seed).lines == random_tree_by_node(dist, seed).lines

    def test_determinism(self):
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=8)
        n1 = random_tree(dist, seed=42)
        n2 = random_tree(dist, seed=42)
        assert n1.lines == n2.lines
        assert random_tree(dist, seed=43).lines != n1.lines

    def test_degenerate_chain(self):
        dist = DegreeDistribution({1: 1.0}, max_depth=5)
        net = random_tree(dist, seed=0)
        assert net.n == 5
        assert all(ln.from_node == ln.to_node - 1 for ln in net.lines)

    def test_binary_depth15_node_scale(self):
        # branching 1.5 per level: about 1.4k nodes at depth 15
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=15)
        sizes = [random_tree(dist, seed=s).n for s in range(4)]
        assert 300 < int(np.mean(sizes)) < 6000

    def test_parameter_ranges_and_depth_cap(self):
        dist = DegreeDistribution({2: 1.0}, max_depth=4, x_range=(0.5, 2.0))
        net = random_tree(dist, seed=3)
        assert net.n == 1 + 2 + 4 + 8
        xs = reactances(net)
        assert np.all(xs > 0.5) and np.all(xs <= 2.0)
        assert max(depth(net, i) for i in range(1, net.n + 1)) == 4

    def test_random_instance_costs(self):
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=6, y_range=(0.0, 100.0))
        net, y = random_instance(dist, seed=9)
        assert y.shape == (net.n,)
        assert np.all(y > 0) and np.all(y <= 100.0)
        net2, y2 = random_instance(dist, seed=9)
        assert np.array_equal(y, y2) and net2.lines == net.lines

    def test_generated_buses_equal_the_default_record(self):
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=8)
        for net in (random_tree(dist, seed=42), chain_network([0.1, 0.2, 0.3])):
            assert all(b == BusData() for b in net.buses)
        own = [BusData(), BusData(p_c=0.1), BusData()]
        assert RadialNetwork(3, from_node=[0, 1, 2], to_node=[1, 2, 3], r=[0.0] * 3,
                             x=[0.1, 0.2, 0.3], buses=own).buses == tuple(own)

    def test_bad_distribution(self):
        with pytest.raises(InvalidDistributionError):
            DegreeDistribution({1: 0.6, 2: 0.6}, max_depth=3)
        with pytest.raises(InvalidDistributionError):
            DegreeDistribution({}, max_depth=3)


class TestLeafFirst:
    # the leaf-first CSC is built straight from the traversal arrays; the
    # CSR form permuted twice is the oracle
    def assert_matches(self, net):
        lf = net.traversal.factor.leaf_first
        L, a, x_lower = leaf_first_by_permutation(net)
        assert same_bits(lf.L.data, L.data)
        assert np.array_equal(lf.L.indices, L.indices)
        assert np.array_equal(lf.L.indptr, L.indptr)
        assert same_bits(lf.a, a)
        assert same_bits(lf.x_bracket[0], x_lower)

    @settings(max_examples=100, deadline=None)
    @given(feeders(st.just(0.0), st.floats(1e-3, 2.0), max_depth=8))
    def test_shuffled_feeders(self, net):
        self.assert_matches(net)

    def test_fixed_feeders(self):
        self.assert_matches(fig_tree())
        self.assert_matches(broom(30, 4, np.linspace(0.1, 2.0, 38)))
        self.assert_matches(load_sce42().net)


class TestInverseTreeLaplacian:
    def test_appendix_example(self):
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        L = inverse_tree_laplacian(fig_tree(a, b, c, d))
        expected = np.array([
            [(b + d) / (b * d), -1 / b, 0, -1 / d],
            [-1 / b, (b + c) / (b * c), -1 / c, 0],
            [0, -1 / c, 1 / c, 0],
            [-1 / d, 0, 0, 1 / d],
        ])
        np.testing.assert_allclose(L, expected, atol=1e-15)

    def test_chain_before_root_correction(self):
        a, b = 1.7, 0.4
        L = inverse_tree_laplacian(chain_network([a, b]))
        np.testing.assert_allclose(L, [[1 / b, -1 / b], [-1 / b, 1 / b]], atol=1e-15)

    def test_single_node(self):
        L = inverse_tree_laplacian(chain_network([2.0]))
        np.testing.assert_allclose(L, [[0.0]])

    def test_row_sums_vanish(self):
        # the root line enters only through the corrected inverse
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=7, x_range=(0.1, 3.0))
        net = random_tree(dist, seed=5)
        L = inverse_tree_laplacian(net)
        np.testing.assert_allclose(L @ np.ones(net.n), 0.0, atol=1e-12)
