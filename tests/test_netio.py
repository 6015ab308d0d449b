import copy
import dataclasses
import io
import json
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chain_feeder,
    dump_trace_csv_by_writer,
    format_rows_by_value,
    network_error_by_rows,
    topology_hash_by_parts,
)
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
from voltgame import netio
from voltgame.netio import (
    ParseError,
    dump_trace_csv,
    load_network_json,
    parse_network_json,
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
    return chain_feeder([0.02, 0.03], rs=[0.01, 0.015], buses=buses, v0=1.02)


class TestNetworkJson:
    def test_roundtrip(self):
        net = sample_net()
        text = save_network_json(net)
        net2, _ = parse_network_json(text)
        assert net2.n == net.n
        assert net2.v0 == net.v0
        assert net2.lines == net.lines
        assert net2.buses == net.buses

    def test_control_block_roundtrip(self):
        net = sample_net()
        ctrl = ControlSpec(alpha=[2.0, 3.0], delta=[0.02, 0.0],
                           q_min=[-1.0, -0.5], q_max=[1.0, 0.5])
        net2, ctrl2 = parse_network_json(save_network_json(net, ctrl))
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
        net, ctrl = parse_network_json(json.dumps(doc))
        assert net.n == 2
        np.testing.assert_allclose(ctrl.alpha, [5.0, 5.0])
        assert math.isinf(ctrl.q_max[0])

    def test_arbitrary_labels_remapped(self):
        doc = {
            "buses": [{"id": "root"}, {"id": "a"}, {"id": "b"}],
            "lines": [{"from": "root", "to": "a", "r": 0, "x": 0.1},
                      {"from": "a", "to": "b", "r": 0, "x": 0.2}],
        }
        net, _ = parse_network_json(json.dumps(doc))
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
            assert save_network_json(*parse_network_json(text)) == text
        assert parse_network_json(save_network_json(net, ctrl))[0] == net

    @pytest.mark.parametrize("text, what", [("[]", "list"), ("null", "NoneType")])
    def test_not_an_object(self, text, what):
        with pytest.raises(ParseError, match=f"^the network must be an object, not {what}$"):
            parse_network_json(text)

    @pytest.mark.parametrize("name", ["{feeder}.json", "feeder\n.json"])
    def test_load_opens_its_argument(self, tmp_path, name):
        (tmp_path / name).write_text(save_network_json(sample_net()))
        assert load_network_json(str(tmp_path / name))[0] == sample_net()

    def test_load_takes_no_text(self):
        with pytest.raises(FileNotFoundError):
            load_network_json('{"buses": [{"id": 0}], "lines": []}')

    def test_missing_key_raises(self):
        with pytest.raises(ParseError):
            parse_network_json('{"buses": []}')

    def test_unknown_bus_in_line(self):
        doc = {"buses": [{"id": 0}, {"id": 1}],
               "lines": [{"from": 0, "to": 7, "r": 0, "x": 0.1}]}
        with pytest.raises(ParseError):
            parse_network_json(json.dumps(doc))


# values that no field takes, or that only some do (null, a string label)
_BAD_VALUES = [None, True, False, "s", "0", "", [], [1.0], {}, {"a": 1}, 10**400, -10**400]
_KEYS = {"bus": ("id", "p_c", "p_g", "q_c", "v_nom", "q_min", "q_max", "actuator", "control"),
         "line": ("from", "to", "r", "x"),
         "control": ("alpha", "delta", "q_min", "q_max"),
         "doc": ("v0", "buses", "lines", "control")}


def _fresh(values):
    """One of values, copied, so no two places in a document share a list or dict."""
    return st.sampled_from(values).map(copy.deepcopy)


def _fault_targets(doc):
    """(row kind, row) for each object in the document a fault can hit."""
    out = [("doc", doc)]
    if isinstance(doc.get("control"), dict):
        out.append(("control", doc["control"]))
    for name, kind in (("buses", "bus"), ("lines", "line")):
        rows = doc.get(name)
        for row in rows if isinstance(rows, list) else ():
            if isinstance(row, dict):
                out.append((kind, row))
                if kind == "bus" and isinstance(row.get("control"), dict):
                    out.append(("control", row["control"]))
    return out


@st.composite
def faulty_network_docs(draw):
    """A valid network document of 2-5 buses, with shuffled rows, labels of
    one style and optional fields present or not, and then 2-3 faults:
    missing keys, values of another kind in any field, repeated ids, unknown
    line ends, non-object rows or tables, and bad control blocks."""
    n = draw(st.integers(1, 4))  # buses besides the root
    parent = [0, 0] + [draw(st.integers(1, i - 1)) for i in range(2, n + 1)]
    labels = draw(st.sampled_from([list(range(n + 1)), [float(k) for k in range(n + 1)],
                                   [str(k) for k in range(n + 1)],
                                   ["src"] + [f"b{k}" for k in range(1, n + 1)]]))
    maybe = st.sampled_from(["absent", "null", "set"])

    def bus(k):
        row = {"id": labels[k]}
        for key, value in (("p_c", 0.1), ("p_g", 0.02), ("q_c", 0.05), ("v_nom", 1.0),
                           ("q_min", -0.5), ("q_max", 0.5), ("actuator", draw(st.booleans())),
                           ("control", {"alpha": 2.0, "delta": 0.01})):
            how = draw(maybe)
            if how != "absent":
                row[key] = value if how == "set" or key == "actuator" else None
        return row

    buses = [bus(k) for k in draw(st.permutations(range(n + 1)))]
    lines = [{"from": labels[parent[k]], "to": labels[k], "r": 0.01 * k, "x": 0.02 * k}
             for k in draw(st.permutations(range(1, n + 1)))]
    doc = {"buses": buses, "lines": lines}
    for key, value in (("v0", 1.02), ("control", {"alpha": 5.0, "q_max": 1})):
        how = draw(maybe)
        if how != "absent":
            doc[key] = value if how == "set" else None

    for _ in range(draw(st.integers(2, 3))):
        targets = _fault_targets(doc)
        # a row of the document at least as often as the document itself
        kind = draw(st.sampled_from([k for k in ("bus", "line", "control", "bus", "line",
                                                 "control", "bus", "doc")
                                     if any(t == k for t, _ in targets)]))
        row = draw(st.sampled_from([r for t, r in targets if t == kind]))
        fault = draw(st.sampled_from(["value", "missing", "repeat", "unknown", "row"]))
        if fault == "value":
            row[draw(st.sampled_from(_KEYS[kind]))] = draw(_fresh(_BAD_VALUES))
        elif fault == "missing" and row:
            del row[draw(st.sampled_from(sorted(row)))]
        elif fault == "repeat" and kind == "bus":
            other = draw(st.sampled_from([r for t, r in targets if t == "bus"]))
            if "id" in other:
                row["id"] = other["id"]
        elif fault == "unknown" and kind == "line":
            row[draw(st.sampled_from(["from", "to"]))] = draw(st.sampled_from([99, "zz", 0.5]))
        elif fault == "row" and kind in ("bus", "line"):
            rows = doc["buses" if kind == "bus" else "lines"]
            rows[next(k for k, r in enumerate(rows) if r is row)] = draw(
                _fresh([5, "s", None, True, [], {}]))
    return doc


class TestFirstFault:
    """The reader names the same first fault as a row-by-row walk of the
    document, on files with several faults."""

    @settings(max_examples=500, deadline=None)
    @given(faulty_network_docs())
    def test_matches_row_walk(self, doc):
        try:
            parse_network_json(json.dumps(doc))
            got = None
        except ParseError as exc:
            got = str(exc)
        except ValueError:  # a control block that parses but is no ControlSpec
            got = None
        assert got == network_error_by_rows(doc)


def rough_values(rows, width, seed):
    """Floats of every magnitude, with zeros and NaNs, some of which the
    vectorised %.17g leaves to "%"."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-9, 18, (rows, width))
    a.flat[::7] = 0.0
    a.flat[3::11] = np.nan
    return a


class TestMatrixDump:
    def test_header_and_roundtrip(self, tmp_path):
        S = build_sensitivity(sample_net())
        path = tmp_path / "X.csv"
        with open(path, "w") as fh:
            write_matrix_csv(fh, S.X, "X")
        assert path.read_text().splitlines()[0] == "# n=2 kind=X"
        M = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        np.testing.assert_allclose(M, S.X, rtol=1e-15)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (1, 1), (7, netio._BLOCK // 3),
                                       (2, netio._BLOCK), (2, 2 * netio._BLOCK + 5)])
    def test_bytes_of_savetxt(self, shape):
        # rows narrower than, as wide as and wider than a block
        M = rough_values(*shape, seed=sum(shape))
        buf, want = io.StringIO(), io.StringIO()
        write_matrix_csv(buf, M, "X")
        want.write(f"# n={shape[0]} kind=X\n")
        np.savetxt(want, M, delimiter=",", fmt="%.17g")
        assert buf.getvalue() == want.getvalue()


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

    @pytest.mark.parametrize("width", [netio._BLOCK // 2 - 1, netio._BLOCK - 2, netio._BLOCK - 1,
                                       netio._BLOCK, 2 * netio._BLOCK + 1])
    def test_block_widths(self, width):
        # a row of t, the residual and width values: narrower than, as wide
        # as and wider than a block
        q = rough_values(5, width, width)
        trace = SimulationTrace(q_hist=q, residuals=np.abs(q[1:, 0]), status="max_iter",
                                iterations=4)
        assert dump_trace_csv(trace) == dump_trace_csv_by_writer(trace)

    @pytest.mark.parametrize("width", [3, netio._BLOCK // 2 - 1, netio._BLOCK - 1])
    def test_fewer_voltage_rows(self, width):
        q = rough_values(6, width, width)
        for v_rows in (0, 1, 2, 6):
            trace = SimulationTrace(q_hist=q, residuals=np.abs(q[1:, 0]), status="max_iter",
                                    iterations=5, v_hist=1.0 + q[:v_rows, ::-1])
            assert (dump_trace_csv(trace, with_voltages=True)
                    == dump_trace_csv_by_writer(trace, with_voltages=True))


def g17(values, end="\r\n", width=None):
    """netio._format_g17 of the values as rows of `width` (one row by default),
    checked against "%.17g" % v value by value."""
    rows = np.array(values, dtype=float).reshape(-1, width or max(len(values), 1))
    text = netio._format_g17(rows.copy(), end)
    assert text == format_rows_by_value(rows, end)
    return text


class TestFormatG17:
    """The vectorised %.17g against "%.17g" % v; its exact range is 1e-6 <= |x| < 1e17."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60))
    def test_bit_patterns(self, bits):
        g17(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=60), st.sampled_from([",", "\n", "\r\n"]))
    def test_floats(self, values, end):
        g17(values, end)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e17) | st.floats(-1e17, -1e-6), min_size=1, max_size=60))
    def test_fast_range(self, values):
        g17(values)

    @pytest.mark.parametrize("X", range(-6, 16))
    def test_ties(self, X):
        # m / 2**(17 - X) with m odd has 18 significant digits, the last a 5, at
        # decimal exponent X: %.17g rounds it half to even
        lo = math.ceil(10 ** X * 2 ** (17 - X)) | 1
        hi = min(math.ceil(10 ** (X + 1) * 2 ** (17 - X)), 2 ** 53)
        m = np.random.default_rng(X + 6).integers(lo // 2, hi // 2, 300) * 2 + 1
        m = np.concatenate([[lo, lo + 2, hi - 1 - hi % 2], m])
        values = m.astype(float) / 2.0 ** (17 - X)
        assert values.min() >= 10.0 ** X and values.max() < 10.0 ** (X + 1)
        for v in values:
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, v
        g17(np.concatenate([values, -values]))

    def test_powers_of_ten(self):
        # each power of ten from 1e-10 to 1e17 and the three floats on either side
        values = []
        for j in range(-10, 18):
            below = above = float(f"1e{j}")
            values.append(below)
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
                values += [below, above]
        g17(values)
        g17(-np.array(values))

    def test_signed_zero_and_specials(self):
        specials = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
        assert g17(specials) == "0,-0,1,-1,inf,-inf,nan\r\n"
        assert (g17([[0.5, -0.0], [1e-7, 1e17]], "\n", width=2)
                == "0.5,-0\n9.9999999999999995e-08,1e+17\n")


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
        plain = chain_feeder([0.1], buses=[BusData(p_c=0.0, q_c=1.0)])
        signed = chain_feeder([0.1], buses=[BusData(p_c=-0.0, q_c=1.0)])
        assert topology_hash(signed) == topology_hash_by_parts(signed) != topology_hash(plain)
        ints = chain_feeder([0.1], buses=[BusData(p_c=0, q_c=1)])
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
        other = chain_feeder([0.02, 0.031], rs=[0.01, 0.015],
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
