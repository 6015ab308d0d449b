"""File formats: network JSON / CSV pair, matrix dumps, traces, reports.

Network JSON schema:

    {"v0": 1.0,
     "control": {"alpha": 9.0, "delta": 0.02, "q_min": null, "q_max": null},
     "buses": [{"id": 1, "p_c": 0.1, "p_g": 0, "q_c": 0.05, "v_nom": 1.0,
                "q_min": null, "q_max": null, "actuator": true,
                "control": {...}},   # optional per-bus override
               ...],
     "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02}, ...]}

Bus ids may be arbitrary labels; they are remapped to dense 0..n on load
(the root is the bus labelled 0 if present, otherwise the unique bus that is
never a line's child end).  Infinite box limits serialize as null in JSON
and as "inf"/"-inf" in CSV.

Traces and matrix dumps grow with n times their rows, so each has one
streaming writer, `write_trace_csv(fh, ...)` and `write_matrix_csv(fh, ...)`,
that writes its header and then one row at a time to a text file; that is
the format's only formatting path.  `dump_trace_csv` and `dump_matrix_csv`
return the same bytes as one string.  The bytes are a contract: every float
is printed with %.17g, trace rows end with "\r\n" and matrix rows with "\n".
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import fields

import numpy as np

from .controls import ControlSpec
from .dynamics import SimulationTrace
from .topology import BusData, Line, RadialNetwork, validate_tree

SCHEMA_COMMENT = "# voltgame-schema=1"


class ParseError(ValueError):
    pass


def _not_object(value, where):
    return ParseError(f"{where} must be an object, not {type(value).__name__}")


def _table(rows, name):
    if not isinstance(rows, list):
        raise ParseError(f"{name!r} must be a list of objects, not {type(rows).__name__}")
    for k, row in enumerate(rows):
        if not isinstance(row, dict):
            raise _not_object(row, f"{name}[{k}]")
    return rows


def _num(value, default=None):
    if value is None or value == "":
        return default
    return float(value)


def _bound(value, default):
    if value is None or value == "" or (isinstance(value, float) and math.isnan(value)):
        return default
    return float(value)


def _row_error(row, where, labels=(), required=(), optional=()):
    """The ParseError for a row that failed to read: its first missing label or
    required number, label that is a list or an object, or number field that
    float() rejects (an optional one may be missing, null or empty); else None."""
    for key in labels + required:
        if key not in row:
            return ParseError(f"{where} has no {key!r}")
    for key in labels:
        if isinstance(row[key], (list, dict)):
            return ParseError(f"{where}: {key!r} must be a number or a string, "
                              f"not {json.dumps(row[key])}")
    for key in required + optional:
        value = row.get(key)
        if key in optional and (value is None or value == ""):
            continue
        try:
            float(value)
        except (TypeError, ValueError):
            return ParseError(f"{where}: {key!r} must be a number, not {json.dumps(value)}")
    return None


def _remap_ids(bus_rows, line_rows):
    """Map arbitrary labels to dense ids with the substation at 0."""
    ids = {}  # label -> index of its row
    for k, row in enumerate(bus_rows):
        try:
            first = ids.setdefault(row["id"], k)
        except (KeyError, TypeError):
            raise _row_error(row, f"buses[{k}]", labels=("id",)) from None
        if first != k:
            raise ParseError(f"buses[{k}] repeats bus id {row['id']!r} of buses[{first}]")
    child_labels = set()
    for k, row in enumerate(line_rows):
        try:
            child_labels.add(row["to"])
        except (KeyError, TypeError):
            raise _row_error(row, f"lines[{k}]", labels=("to",)) from None
    if 0 in ids:
        root = 0
    elif "0" in ids:
        root = "0"
    else:
        roots = [i for i in ids if i not in child_labels]
        if len(roots) != 1:
            raise ParseError(f"cannot identify a unique root bus (candidates: {roots})")
        root = roots[0]
    order = [root] + [i for i in ids if i != root]
    return {label: k for k, label in enumerate(order)}


_BUS_NUMBERS = ("p_c", "p_g", "q_c", "v_nom", "q_min", "q_max")
_CONTROL_NUMBERS = ("alpha", "delta", "q_min", "q_max")


def _build(v0, bus_rows, line_rows, default_ctrl) -> tuple[RadialNetwork, ControlSpec | None]:
    bus_rows, line_rows = _table(bus_rows, "buses"), _table(line_rows, "lines")
    mapping = _remap_ids(bus_rows, line_rows)
    n = len(bus_rows) - 1

    buses = [None] * n
    ctrl_rows = [None] * n  # (row index, per-bus control override or None)
    for j, row in enumerate(bus_rows):
        k = mapping[row["id"]]
        if k == 0:
            continue
        try:
            buses[k - 1] = BusData(
                p_c=_num(row.get("p_c"), 0.0),
                p_g=_num(row.get("p_g"), 0.0),
                q_c=_num(row.get("q_c"), 0.0),
                v_nom=_num(row.get("v_nom"), 1.0),
                q_min=_bound(row.get("q_min"), -math.inf),
                q_max=_bound(row.get("q_max"), math.inf),
                is_actuator=bool(row.get("actuator", True)),
            )
        except (TypeError, ValueError):
            raise _row_error(row, f"buses[{j}]", optional=_BUS_NUMBERS) from None
        over = row.get("control")
        if over is not None and not isinstance(over, dict):
            raise _not_object(over, f"buses[{j}]['control']")
        ctrl_rows[k - 1] = (j, over)

    lines = []
    for k, row in enumerate(line_rows):
        try:
            lines.append(Line(
                from_node=mapping[row["from"]],
                to_node=mapping[row["to"]],
                r=float(row["r"]),
                x=float(row["x"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise (_row_error(row, f"lines[{k}]", labels=("from", "to"), required=("r", "x"))
                   or ParseError(f"line {row!r} references unknown bus {exc}")) from exc

    net = RadialNetwork(n=n, lines=tuple(lines), buses=tuple(buses), v0=float(v0))
    validate_tree(net)

    ctrl = None
    if default_ctrl is not None or any(over is not None for _, over in ctrl_rows):
        base = {} if default_ctrl is None else default_ctrl
        if not isinstance(base, dict):
            raise _not_object(base, "'control'")
        alpha, delta, qmin, qmax = [], [], [], []
        for k, bus in enumerate(buses):
            if not bus.is_actuator:
                continue
            j, over = ctrl_rows[k]
            over = over or {}
            try:
                alpha.append(_num(over.get("alpha", base.get("alpha")), 0.0))
                delta.append(_num(over.get("delta", base.get("delta")), 0.0))
                qmin.append(_bound(over.get("q_min", base.get("q_min")), bus.q_min))
                qmax.append(_bound(over.get("q_max", base.get("q_max")), bus.q_max))
            except (TypeError, ValueError):
                raise _row_error({**base, **over}, f"the control of buses[{j}]",
                                 optional=_CONTROL_NUMBERS) from None
        if alpha:
            ctrl = ControlSpec(np.array(alpha), np.array(delta), np.array(qmin), np.array(qmax))
    return net, ctrl


def load_network_json(path_or_text) -> tuple[RadialNetwork, ControlSpec | None]:
    """Load a network (and optional control block) from JSON text or a path."""
    text = path_or_text
    if "\n" not in str(path_or_text) and not str(path_or_text).lstrip().startswith("{"):
        with open(path_or_text) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _not_object(doc, "the network")
    for key in ("buses", "lines"):
        if key not in doc:
            raise ParseError(f"missing top-level key {key!r}")
    error = _row_error(doc, "the network", optional=("v0",))
    if error:
        raise error
    return _build(_num(doc.get("v0"), 1.0), doc["buses"], doc["lines"], doc.get("control"))


def save_network_json(net: RadialNetwork, ctrl: ControlSpec | None = None) -> str:
    def bound_out(v):
        return None if math.isinf(v) else v

    buses = [{"id": 0}]
    act_k = 0
    for i, b in enumerate(net.buses, start=1):
        row = {
            "id": i, "p_c": b.p_c, "p_g": b.p_g, "q_c": b.q_c, "v_nom": b.v_nom,
            "q_min": bound_out(b.q_min), "q_max": bound_out(b.q_max),
            "actuator": b.is_actuator,
        }
        if ctrl is not None and b.is_actuator:
            row["control"] = {
                "alpha": float(ctrl.alpha[act_k]),
                "delta": float(ctrl.delta[act_k]),
                "q_min": bound_out(float(ctrl.q_min[act_k])),
                "q_max": bound_out(float(ctrl.q_max[act_k])),
            }
            act_k += 1
        buses.append(row)
    lines = [{"from": ln.from_node, "to": ln.to_node, "r": ln.r, "x": ln.x}
             for ln in net.lines]
    return json.dumps({"v0": net.v0, "buses": buses, "lines": lines}, indent=1)


_BUS_COLUMNS = ["id", "p_c", "p_g", "q_c", "v_nom", "q_min", "q_max", "actuator"]
_LINE_COLUMNS = ["from", "to", "r", "x"]


def _csv_number(value):
    """A CSV cell as a float, or None when it is missing or empty."""
    return None if value is None or value == "" else float(value)


def load_network_csv(buses_path, lines_path) -> tuple[RadialNetwork, ControlSpec | None]:
    """Load from a buses.csv / lines.csv pair sharing the JSON column names."""
    def read_rows(path, columns):
        """The rows of a CSV file, each column in `columns` converted by its
        (convert, what) pair; a missing or bad value names path:line and column."""
        with open(path, newline="") as fh:
            rows = []
            for lineno, row in enumerate(csv.DictReader(fh), start=2):
                for col, (convert, what) in columns.items():
                    value = row.get(col)
                    try:
                        row[col] = convert(value)
                    except (TypeError, ValueError):
                        raise ParseError(f"{path}:{lineno}: column {col!r} must be {what}, "
                                         f"not {'nothing' if value is None else repr(value)}"
                                         ) from None
                rows.append(row)
        return rows

    label = (int, "an integer")
    number = (float, "a number")
    bus_rows = read_rows(buses_path, {"id": label, **dict.fromkeys(
        _BUS_NUMBERS, (_csv_number, "a number or empty"))})
    for row in bus_rows:
        row["actuator"] = str(row.get("actuator", "true")).strip().lower() in ("1", "true", "yes")
    line_rows = read_rows(lines_path, {"from": label, "to": label, "r": number, "x": number})
    return _build(1.0, bus_rows, line_rows, None)


def save_network_csv(net: RadialNetwork) -> tuple[str, str]:
    bus_buf = io.StringIO()
    w = csv.writer(bus_buf)
    w.writerow(_BUS_COLUMNS)
    w.writerow([0, 0.0, 0.0, 0.0, net.v0, "", "", "false"])
    for i, b in enumerate(net.buses, start=1):
        w.writerow([i, b.p_c, b.p_g, b.q_c, b.v_nom,
                    "" if math.isinf(b.q_min) else b.q_min,
                    "" if math.isinf(b.q_max) else b.q_max,
                    "true" if b.is_actuator else "false"])
    line_buf = io.StringIO()
    w = csv.writer(line_buf)
    w.writerow(_LINE_COLUMNS)
    for ln in net.lines:
        w.writerow([ln.from_node, ln.to_node, ln.r, ln.x])
    return bus_buf.getvalue(), line_buf.getvalue()


def write_matrix_csv(fh, M: np.ndarray, kind: str) -> None:
    """Write a dense matrix dump to the text file fh, one row at a time.

    The header is `# n=<n> kind=<X|R|Xinv>`; then np.savetxt writes each row
    as %.17g values joined by "," and ended by "\n" (golden files).
    """
    fh.write(f"# n={M.shape[0]} kind={kind}\n")
    np.savetxt(fh, M, delimiter=",", fmt="%.17g")


def dump_matrix_csv(M: np.ndarray, kind: str) -> str:
    """The bytes write_matrix_csv writes, as one string."""
    buf = io.StringIO()
    write_matrix_csv(buf, M, kind)
    return buf.getvalue()


def load_matrix_csv(text: str) -> tuple[np.ndarray, str]:
    lines = text.strip().splitlines()
    header = lines[0]
    if not header.startswith("# n="):
        raise ParseError("matrix dump must start with '# n=<n> kind=<kind>'")
    kind = header.split("kind=")[1].strip()
    M = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    return M, kind


def write_trace_csv(fh, trace: SimulationTrace, with_voltages: bool = False) -> None:
    """Write a trace as CSV rows (t, residual, q_1..q_n[, v_1..v_n]) to the text
    file fh, one row at a time, so no more than a row is held as text.

    Each float is printed with %.17g and each row ends with "\r\n", as
    csv.writer would write them; no field ever needs quoting.
    """
    q_hist = trace.q_hist
    k = q_hist.shape[1]
    v_hist = trace.v_hist if with_voltages else None
    header = ["t", "residual"] + [f"q_{i}" for i in range(1, k + 1)]
    if v_hist is not None:
        header += [f"v_{i}" for i in range(1, v_hist.shape[1] + 1)]
    fh.write(",".join(header) + "\r\n")
    q_fmt = ",%.17g" * k
    v_fmt = "" if v_hist is None else ",%.17g" * v_hist.shape[1]
    v_steps = 0 if v_hist is None else v_hist.shape[0]
    residuals = trace.residuals
    for t in range(q_hist.shape[0]):
        fh.write(f"{t}," if t == 0 else f"{t},{residuals[t - 1]:.17g}")
        fh.write(q_fmt % tuple(q_hist[t].tolist()))
        if t < v_steps:
            fh.write(v_fmt % tuple(v_hist[t].tolist()))
        fh.write("\r\n")


def dump_trace_csv(trace: SimulationTrace, with_voltages: bool = False) -> str:
    """The bytes write_trace_csv writes, as one string."""
    buf = io.StringIO()
    write_trace_csv(buf, trace, with_voltages)
    return buf.getvalue()


def topology_hash(net: RadialNetwork) -> str:
    """Stable short hash of the feeder structure and parameters.

    The hash is the first 16 hex digits of the sha256 of three parts,
    concatenated: ``v0=<v0:.12g>;n=<n>``, then ``L<from>,<to>,<r:.12g>,<x:.12g>``
    for each line in order, then each bus's fields in sorted-key JSON, the
    bytes of json.dumps(asdict(bus), sort_keys=True).  These bytes are a
    sweep column, so they never change.

    Buses often share one record object (generated feeders use one default
    record for every bus), so each distinct object is encoded once.  The
    memo is keyed by object, not by value: records that compare equal can
    encode differently (0.0, -0.0 and 0 are equal but print as "0.0",
    "-0.0" and "0"), and NaN fields are unequal to themselves.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    names = [f.name for f in fields(BusData)]
    h = hashlib.sha256()
    h.update(f"v0={net.v0:.12g};n={net.n}".encode())
    h.update("".join(f"L{ln.from_node},{ln.to_node},{ln.r:.12g},{ln.x:.12g}"
                     for ln in net.lines).encode())
    text = {}  # net keeps every record alive, so no id is reused during the call
    for b in net.buses:
        if id(b) not in text:
            text[id(b)] = encode({name: getattr(b, name) for name in names})
    h.update("".join([text[id(b)] for b in net.buses]).encode())
    return h.hexdigest()[:16]


def report_json(report, net: RadialNetwork | None = None, seed=None, extra=None) -> str:
    """PoSA report plus instance metadata as JSON."""
    doc = {
        "posa_max": report.posa_max,
        "upper": report.upper,
        "refined_upper": report.refined_upper,
        "lower": report.lower,
        "lower_clamped": report.lower_clamped,
        "gap_bound": report.gap_bound,
        "d": report.d,
        "y": report.y,
        "posa": report.posa,
    }
    if report.worst_direction is not None:
        doc["worst_direction"] = [float(v) for v in report.worst_direction]
    if net is not None:
        doc["n"] = net.n
        doc["topology_hash"] = topology_hash(net)
    if seed is not None:
        doc["seed"] = seed
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=1)
