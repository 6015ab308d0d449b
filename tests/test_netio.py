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
    dump_matrix_csv,
    dump_trace_csv,
    load_matrix_csv,
    load_network_csv,
    load_network_json,
    report_json,
    save_network_csv,
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

    def test_missing_key_raises(self):
        with pytest.raises(ParseError):
            load_network_json('{"buses": []}')

    def test_unknown_bus_in_line(self):
        doc = {"buses": [{"id": 0}, {"id": 1}],
               "lines": [{"from": 0, "to": 7, "r": 0, "x": 0.1}]}
        with pytest.raises(ParseError):
            load_network_json(json.dumps(doc))


class TestNetworkCsv:
    def test_roundtrip(self, tmp_path):
        net = sample_net()
        bus_text, line_text = save_network_csv(net)
        bp = tmp_path / "buses.csv"
        lp = tmp_path / "lines.csv"
        bp.write_text(bus_text)
        lp.write_text(line_text)
        net2, _ = load_network_csv(bp, lp)
        assert net2.lines == net.lines
        assert net2.buses == net.buses

    @pytest.mark.parametrize("table, column, value, want", [
        (0, "q_min", "abc", "column 'q_min' must be a number or empty, not 'abc'"),
        (0, "q_max", "1e", "column 'q_max' must be a number or empty, not '1e'"),
        (0, "p_c", "x", "column 'p_c' must be a number or empty, not 'x'"),
        (0, "id", "two", "column 'id' must be an integer, not 'two'"),
        (1, "r", "", "column 'r' must be a number, not ''"),
        (1, "to", "2.5", "column 'to' must be an integer, not '2.5'"),
    ], ids=["q_min", "q_max", "p_c", "id", "r", "to"])
    def test_bad_cell_names_file_line_and_column(self, tmp_path, table, column, value, want):
        texts = list(save_network_csv(sample_net()))
        rows = [row.split(",") for row in texts[table].split("\r\n")]
        rows[2][rows[0].index(column)] = value          # the row on line 3
        texts[table] = "\r\n".join(",".join(row) for row in rows)
        paths = [tmp_path / "buses.csv", tmp_path / "lines.csv"]
        for path, text in zip(paths, texts):
            path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_network_csv(*paths)
        assert str(info.value) == f"{paths[table]}:3: {want}"


class TestMatrixDump:
    def test_header_and_roundtrip(self):
        S = build_sensitivity(sample_net())
        text = dump_matrix_csv(S.X, "X")
        assert text.splitlines()[0] == "# n=2 kind=X"
        M, kind = load_matrix_csv(text)
        assert kind == "X"
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

    def test_tree(self):
        net = random_tree(DegreeDistribution({1: 0.5, 2: 0.5}, max_depth=10), seed=5)
        assert topology_hash(net) == topology_hash_by_parts(net)

    def test_signed_zero_and_int_fields_change_the_hash(self):
        plain = chain_network([0.1], buses=[BusData(p_c=0.0, q_c=1.0)])
        for bus in (BusData(p_c=-0.0, q_c=1.0), BusData(p_c=0.0, q_c=1)):
            other = chain_network([0.1], buses=[bus])
            assert topology_hash(other) == topology_hash_by_parts(other) != topology_hash(plain)


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
        doc = json.loads(report_json(rep, net=net, seed=1))
        for key in ("posa_max", "upper", "refined_upper", "lower", "gap_bound",
                    "n", "topology_hash", "seed", "worst_direction"):
            assert key in doc
        assert doc["n"] == net.n
