import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dump_trace_csv_by_writer, topology_hash_by_parts
from voltgame.acflow import closed_loop_ac
from voltgame.controls import ControlSpec
from voltgame.dynamics import (
    OperatingConstants,
    SimulationTrace,
    anticipating_stepper,
    run,
    taking_stepper,
    voltage_from_q,
)
from voltgame.experiments import load_sce42, restricted_model
from voltgame.equilibrium import posa_report
from voltgame.netio import (
    ParseError,
    dump_trace_csv,
    load_network_json,
    report_json,
    save_network_json,
    topology_hash,
    write_matrix_csv,
    write_trace_csv,
)
from voltgame.sensitivity import build_sensitivity
from voltgame.topology import (
    BusData,
    DegreeDistribution,
    Line,
    RadialNetwork,
    chain_network,
    random_tree,
)


def sample_net():
    buses = [BusData(p_c=0.2, q_c=0.1), BusData(p_c=0.1, p_g=0.3, q_min=-0.5, q_max=0.5)]
    return chain_network([0.02, 0.03], rs=[0.01, 0.015], buses=buses, v0=1.02)


class TestNetworkJson:
    def test_roundtrip(self):
        net = sample_net()
        text = save_network_json(net)
        net2, _ = load_network_json(text)
        assert net2.n == net.n
        assert net2.v0 == net.v0
        assert net2.lines == net.lines
        assert net2.buses == net.buses

    def test_control_block_roundtrip(self):
        net = sample_net()
        ctrl = ControlSpec(alpha=[2.0, 3.0], delta=[0.02, 0.0],
                           q_min=[-1.0, -0.5], q_max=[1.0, 0.5])
        net2, ctrl2 = load_network_json(save_network_json(net, ctrl))
        np.testing.assert_allclose(ctrl2.alpha, ctrl.alpha)
        np.testing.assert_allclose(ctrl2.delta, ctrl.delta)
        np.testing.assert_allclose(ctrl2.q_min, ctrl.q_min)

    def test_global_control_default(self):
        doc = {
            "v0": 1.0,
            "control": {"alpha": 5.0, "delta": 0.01},
            "buses": [{"id": 0}, {"id": 1}, {"id": 2}],
            "lines": [{"from": 0, "to": 1, "r": 0, "x": 0.1},
                      {"from": 1, "to": 2, "r": 0, "x": 0.1}],
        }
        net, ctrl = load_network_json(json.dumps(doc))
        assert net.n == 2
        np.testing.assert_allclose(ctrl.alpha, [5.0, 5.0])
        assert math.isinf(ctrl.q_max[0])

    def test_arbitrary_labels_remapped(self):
        doc = {
            "buses": [{"id": "root"}, {"id": "a"}, {"id": "b"}],
            "lines": [{"from": "root", "to": "a", "r": 0, "x": 0.1},
                      {"from": "a", "to": "b", "r": 0, "x": 0.2}],
        }
        net, _ = load_network_json(json.dumps(doc))
        assert net.n == 2
        assert [(l.from_node, l.to_node) for l in net.lines] == [(0, 1), (1, 2)]

    def test_save_of_load_keeps_the_bytes(self):
        sce = load_sce42()
        # distinct bus rows: signed zeros, a subnormal, infinite and finite
        # limits, a non-actuator, and a control block
        inf = math.inf
        net = RadialNetwork(n=4, from_node=[0, 1, 1, 3], to_node=[1, 2, 3, 4],
                            r=[0.01, 0.0, 0.02, 1e-3], x=[0.02, 0.05, 0.01, 0.3],
                            p_c=[0.1, -0.0, 0.25, 5e-324], p_g=[0.0, 0.3, -0.0, 1.5],
                            q_c=[0.05, 0.0, -0.125, 1e300], v_nom=[1.0, 1.02, 0.98, 1.0],
                            q_min=[-0.5, -inf, -0.0, -1.0], q_max=[0.5, inf, 0.2, inf],
                            is_actuator=[True, False, True, True], v0=1.02)
        ctrl = ControlSpec(alpha=[2.0, 3.5, 9.0], delta=[0.02, 0.0, 0.01],
                           q_min=[-0.25, -0.0, -1.0], q_max=[0.5, 0.1, inf])
        for text in (save_network_json(sce.net, sce.ctrl), save_network_json(net, ctrl)):
            assert save_network_json(*load_network_json(text)) == text
        assert load_network_json(save_network_json(net, ctrl))[0] == net

    def test_missing_key_raises(self):
        with pytest.raises(ParseError):
            load_network_json('{"buses": []}')

    def test_unknown_bus_in_line(self):
        doc = {"buses": [{"id": 0}, {"id": 1}],
               "lines": [{"from": 0, "to": 7, "r": 0, "x": 0.1}]}
        with pytest.raises(ParseError):
            load_network_json(json.dumps(doc))


class TestMatrixDump:
    def test_header_and_roundtrip(self, tmp_path):
        S = build_sensitivity(sample_net())
        path = tmp_path / "X.csv"
        with open(path, "w") as fh:
            write_matrix_csv(fh, S.X, "X")
        assert path.read_text().splitlines()[0] == "# n=2 kind=X"
        M = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        np.testing.assert_allclose(M, S.X, rtol=1e-15)


class TestTraceCsv:
    def test_columns(self):
        net = sample_net()
        S = build_sensitivity(net)
        spec = ControlSpec.uniform(2, alpha=1.0)
        vt = OperatingConstants(np.array([1.01, 1.02]), np.array([0.01, 0.02]))
        trace = run(taking_stepper(S, spec, vt), np.zeros(2), tol=1e-10)
        text = dump_trace_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "t,residual,q_1,q_2"
        assert len(lines) == trace.q_hist.shape[0] + 1
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == ""


def traced_peak(path, write):
    """The tracemalloc peak, in bytes, while write(fh) writes the file at path."""
    tracemalloc.start()
    try:
        with open(path, "w") as fh:
            write(fh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWritersHoldOneRow:
    """Written to a file, a trace or matrix costs about one row of text, not the
    whole output (its dump_* string would cost twice the file).  The peak over
    the file size falls with the row count, not the width, so the sizes are kept
    small: tracemalloc makes each write about ten times slower."""

    def test_trace(self, tmp_path):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((200, 500))
        trace = SimulationTrace(q_hist=q, residuals=rng.random(199), status="max_iter",
                                iterations=199, v_hist=1.0 + 0.01 * q)
        path = tmp_path / "trace.csv"
        peak = traced_peak(path, lambda fh: write_trace_csv(fh, trace, with_voltages=True))
        assert path.stat().st_size > 3e6
        assert peak < 0.1 * path.stat().st_size

    def test_matrix(self, tmp_path):
        M = np.random.default_rng(0).standard_normal((300, 300))
        path = tmp_path / "X.csv"
        peak = traced_peak(path, lambda fh: write_matrix_csv(fh, M, "X"))
        assert path.stat().st_size > 1.5e6
        assert peak < 0.1 * path.stat().st_size


def linear_trace(net, ctrl, law):
    S_act, vt, _ = restricted_model(net)
    step = (taking_stepper if law == "taking" else anticipating_stepper)(S_act, ctrl, vt)
    return run(step, np.zeros(S_act.n), tol=1e-10, max_iter=400,
               voltage_fn=lambda q: voltage_from_q(S_act, q, vt))


def sce42_traces():
    data = load_sce42()
    ctrl = ControlSpec.uniform(data.ctrl.alpha.size, alpha=9.0, delta=0.02)
    S_act, _, _ = restricted_model(data.net)
    return {
        "linear taking": linear_trace(data.net, ctrl, "taking"),
        "linear anticipating": linear_trace(data.net, ctrl, "anticipating"),
        "ac taking": closed_loop_ac(data.net, S_act, ctrl, "taking", max_iter=400),
    }


class TestTraceCsvMatchesCsvWriter:
    @pytest.mark.parametrize("voltages", [False, True])
    def test_sce42(self, voltages):
        for name, trace in sce42_traces().items():
            text = dump_trace_csv(trace, with_voltages=voltages)
            assert text == dump_trace_csv_by_writer(trace, with_voltages=voltages), name
            assert text.split("\r\n")[1].startswith("0,,"), name   # no residual at t = 0

    @pytest.mark.parametrize("voltages", [False, True])
    def test_tree(self, voltages):
        dist = DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=8, x_range=(0.01, 0.05))
        net = random_tree(dist, seed=3)
        trace = linear_trace(net, ControlSpec.uniform(net.n, alpha=2.0, delta=0.01), "taking")
        assert trace.v_hist is not None
        text = dump_trace_csv(trace, with_voltages=voltages)
        assert text == dump_trace_csv_by_writer(trace, with_voltages=voltages)

    def test_special_values(self):
        q = np.array([[-0.0, np.inf, -np.inf], [np.nan, 5e-324, 1e300],
                      [0.1, -1.0 / 3.0, 2.0]])
        trace = SimulationTrace(q_hist=q, residuals=np.array([np.nan, 0.0]),
                                status="max_iter", iterations=2, v_hist=q[:2] + 1.0)
        for voltages in (False, True):
            assert (dump_trace_csv(trace, with_voltages=voltages)
                    == dump_trace_csv_by_writer(trace, with_voltages=voltages))

    def test_no_buses(self):
        trace = SimulationTrace(q_hist=np.zeros((2, 0)), residuals=np.array([0.0]),
                                status="converged", iterations=1)
        assert dump_trace_csv(trace) == dump_trace_csv_by_writer(trace) == "t,residual\r\n0,\r\n1,0\r\n"


BUS_FIELDS = ("p_c", "p_g", "q_c", "v_nom", "q_min", "q_max", "is_actuator")
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 1e-320, math.inf, -math.inf, math.nan]),
                   st.integers(-10, 10))


class TestHashMatchesAsdict:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.builds(BusData, p_c=FLOATS, p_g=FLOATS, q_c=FLOATS, v_nom=FLOATS,
                              q_min=FLOATS, q_max=FLOATS, is_actuator=st.booleans()),
                    min_size=1, max_size=6),
           st.floats(0.5, 1.5))
    def test_buses(self, buses, v0):
        # unvalidated: the hash reads any field values, box checks aside
        lines = tuple(Line(k, k + 1, 0.0, 0.1) for k in range(len(buses)))
        net = RadialNetwork(n=len(buses), lines=lines, buses=tuple(buses), v0=v0)
        assert topology_hash(net) == topology_hash_by_parts(net)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        *[st.lists(FLOATS, min_size=n, max_size=n)] * 6,
        st.lists(st.booleans(), min_size=n, max_size=n))), st.floats(0.5, 1.5))
    def test_columns(self, columns, v0):
        # the same fields as columns, one row per bus
        n = len(columns[0])
        net = RadialNetwork(n=n, from_node=range(n), to_node=range(1, n + 1), r=[0.0] * n,
                            x=[0.1] * n, v0=v0, **dict(zip(BUS_FIELDS, columns)))
        assert topology_hash(net) == topology_hash_by_parts(net)

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(*[FLOATS] * 6, st.booleans()), st.integers(1, 6), st.data())
    def test_constant_columns(self, row, n, data):
        # one row at every bus, each column given or left at its default
        given = data.draw(st.lists(st.sampled_from(BUS_FIELDS), unique=True))
        net = RadialNetwork(n=n, from_node=range(n), to_node=range(1, n + 1), r=[0.0] * n,
                            x=[0.1] * n, **{name: [row[BUS_FIELDS.index(name)]] * n
                                            for name in given})
        assert topology_hash(net) == topology_hash_by_parts(net)

    def test_tree(self):
        net = random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=10), seed=5)
        assert topology_hash(net) == topology_hash_by_parts(net)

    def test_signed_zero_changes_the_hash_and_int_fields_do_not(self):
        # bus fields are stored as floats: an int field hashes as its float
        plain = chain_network([0.1], buses=[BusData(p_c=0.0, q_c=1.0)])
        signed = chain_network([0.1], buses=[BusData(p_c=-0.0, q_c=1.0)])
        assert topology_hash(signed) == topology_hash_by_parts(signed) != topology_hash(plain)
        ints = chain_network([0.1], buses=[BusData(p_c=0, q_c=1)])
        assert ints == plain
        assert topology_hash(ints) == topology_hash_by_parts(ints) == topology_hash(plain)


class TestHashBytes:
    """Hashes recorded before bus records were shared; they are sweep columns."""

    @pytest.mark.parametrize("make, want", [
        (lambda: random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=15), 42),
         "f54936edd8ae472e"),
        (lambda: random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=10), 5),
         "ebcb49ac74b369a8"),
        (lambda: chain_network([0.1, 0.2, 0.3]), "5bac41e379e86cab"),
        (lambda: load_sce42().net, "91f236c4650ab4e8"),
    ], ids=["tree-depth15-seed42", "tree-depth10-seed5", "chain3", "sce42"])
    def test_pinned(self, make, want):
        assert topology_hash(make()) == want

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.builds(BusData, p_c=FLOATS, p_g=FLOATS, q_c=FLOATS, v_nom=FLOATS,
                              q_min=FLOATS, q_max=FLOATS, is_actuator=st.booleans()),
                    min_size=1, max_size=3),
           st.data())
    def test_shared_records(self, records, data):
        # a few record objects, each reused at several buses
        picks = data.draw(st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=8))
        shared = tuple(records[k] for k in picks)
        copied = tuple(dataclasses.replace(b) for b in shared)
        lines = tuple(Line(k, k + 1, 0.0, 0.1) for k in range(len(shared)))

        def feeder(buses):
            return RadialNetwork(n=len(buses), lines=lines, buses=buses)

        assert topology_hash(feeder(shared)) == topology_hash_by_parts(feeder(shared))
        assert topology_hash(feeder(shared)) == topology_hash(feeder(copied))


class TestHashAndReport:
    def test_hash_stable_and_sensitive(self):
        net = sample_net()
        assert topology_hash(net) == topology_hash(sample_net())
        other = chain_network([0.02, 0.031], rs=[0.01, 0.015],
                              buses=list(net.buses), v0=1.02)
        assert topology_hash(other) != topology_hash(net)

    def test_report_json_fields(self):
        net = random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=4,
                                             x_range=(0.1, 1.0)), seed=1)
        S = build_sensitivity(net)
        rep = posa_report(S, np.ones(net.n))
        doc = json.loads(report_json(rep, net=net))
        for key in ("posa_max", "upper", "refined_upper", "lower", "gap_bound",
                    "n", "topology_hash", "worst_direction"):
            assert key in doc
        assert doc["n"] == net.n
