"""File formats: network JSON, matrix dumps, traces, reports.

Network JSON schema:

    {"v0": 1.0,
     "control": {"alpha": 9.0, "delta": 0.02, "q_min": null, "q_max": null},
     "buses": [{"id": 1, "p_c": 0.1, "p_g": 0, "q_c": 0.05, "v_nom": 1.0,
                "q_min": null, "q_max": null, "actuator": true,
                "control": {...}},   # optional per-bus override
               ...],
     "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02}, ...]}

Bus ids and line ends are labels, numbers or strings; they are remapped to
dense 0..n on load (the root is the bus labelled 0 if present, otherwise
the unique bus that is never a line's child end).  Every numeric field
takes a JSON number only, an int or a float: a bool, a string or any other
value is an error.  A missing or null optional field takes its default
(p_c, p_g, q_c and the control's alpha and delta 0, v_nom and v0 1, a box
limit none, and a control limit the bus's), and r and x are required.  An
infinite box limit serializes as null; a NaN limit is an error.  "actuator"
is true or false, and true when missing.  A malformed file raises a
ParseError that names the first row at fault (``buses[j]``, ``lines[k]`` or
the control of ``buses[j]``) and its field.

Each field is read as one type-checked column into the network's columns,
with no object per bus or line; a bus field has its column's name and
default ("actuator" is is_actuator).  The file is written, and hashed by
`topology_hash`, from the columns.

Traces and matrix dumps grow with n times their rows, so each has one
streaming writer, `write_trace_csv(fh, ...)` and `write_matrix_csv(fh, ...)`,
that writes its header and then one row at a time to a text file; that is
the format's only formatting path.  `dump_trace_csv` alone also returns its
bytes as one string.  The bytes are a contract: every float is printed with
%.17g, trace rows end with "\r\n" and matrix rows with "\n".
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import operator

import numpy as np

from .controls import ControlSpec
from .dynamics import SimulationTrace
from .topology import _BUS_DEFAULTS, _BUS_FIELDS, RadialNetwork, validate_tree

SCHEMA_COMMENT = "# voltgame-schema=1"


class ParseError(ValueError):
    pass


def _not_object(value, where):
    return ParseError(f"{where} must be an object, not {type(value).__name__}")


def _table(rows, name):
    if not isinstance(rows, list):
        raise ParseError(f"{name!r} must be a list of objects, not {type(rows).__name__}")
    if not set(map(type, rows)) <= {dict}:
        k = next(k for k, row in enumerate(rows) if not isinstance(row, dict))
        raise _not_object(rows[k], f"{name}[{k}]")
    return rows


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, not a bool, that
    float() takes."""
    if type(value) is int:
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return type(value) is float


def _row_error(row, where, labels=(), required=(), optional=()):
    """The ParseError for a row that failed to read: its first missing label or
    required number, label that is not a number or a string, or number field
    that is not a number (an optional one may be missing or null); else
    None.  A bool is neither a number nor a label."""
    for key in labels + required:
        if key not in row:
            return ParseError(f"{where} has no {key!r}")
    for key in labels:
        if type(row[key]) not in _LABEL_SET:
            return ParseError(f"{where}: {key!r} must be a number or a string, "
                              f"not {json.dumps(row[key])}")
    for key in required + optional:
        value = row.get(key)
        if not (_is_number(value) or value is None and key in optional):
            return ParseError(f"{where}: {key!r} must be a number, not {json.dumps(value)}")
    return None


_LABEL_SET = {int, float, str}


def _floats(values: list, default=None):
    """The list ``values`` as a float array, each null read as ``default``
    (a number, or an array with an entry for each value); None when some
    value is not a number, or is null and there is no default."""
    types = set(map(type, values))
    if not types <= ({int, float} if default is None else {int, float, type(None)}):
        return None
    try:
        out = np.array(values, dtype=float)  # a null is NaN here
    except OverflowError:
        return None
    if type(None) in types:
        null = np.fromiter(map(operator.is_, values, itertools.repeat(None)), bool, len(values))
        out[null] = default[null] if np.ndim(default) else default
    return out


def _get(rows: list, key, default=None) -> list:
    """The value of each row at key, default where the row has none."""
    return list(map(dict.get, rows, itertools.repeat(key), itertools.repeat(default)))


def _remap_ids(bus_rows, line_rows):
    """Map arbitrary labels to dense ids with the substation at 0.

    Returns the map, the index of the substation's row, and the labels of
    the lines' from and to ends."""
    labels = _get(bus_rows, "id")
    ids = {}  # label -> index of its row
    if set(map(type, labels)) <= _LABEL_SET:
        ids = dict(zip(labels, range(len(labels))))
    if len(ids) != len(labels):  # a label that is not a number or a string, or a repeat
        ids = {}
        for k, (label, row) in enumerate(zip(labels, bus_rows)):
            if type(label) not in _LABEL_SET:
                raise _row_error(row, f"buses[{k}]", labels=("id",))
            first = ids.setdefault(label, k)
            if first != k:
                raise ParseError(f"buses[{k}] repeats bus id {label!r} of buses[{first}]")
    ends = [_get(line_rows, key) for key in ("from", "to")]
    if not set(map(type, ends[0] + ends[1])) <= _LABEL_SET:
        _first_error(_row_error(row, f"lines[{k}]", labels=("from", "to"))
                     for k, row in enumerate(line_rows))
    child_labels = set(ends[1])
    if 0 in ids:
        root = 0
    elif "0" in ids:
        root = "0"
    else:
        roots = [i for i in ids if i not in child_labels]
        if len(roots) != 1:
            raise ParseError(f"cannot identify a unique root bus (candidates: {roots})")
        root = roots[0]
    order = list(ids)  # the labels in row order, then the root's moved first
    order.insert(0, order.pop(ids[root]))
    return dict(zip(order, range(len(order)))), ids[root], ends


_CONTROL_NUMBERS = ("alpha", "delta", "q_min", "q_max")


def _bus_row_error(row, where, numbers):
    """The ParseError for a bus row, with these number fields, that failed to read, or None."""
    actuator = row.get("actuator", True)
    if actuator is not True and actuator is not False:
        return ParseError(f"{where}: 'actuator' must be true or false, "
                          f"not {json.dumps(actuator)}")
    error = _row_error(row, where, optional=numbers)
    over = row.get("control")
    if error is None and over is not None and not isinstance(over, dict):
        error = _not_object(over, f"{where}['control']")
    return error


def _line_row_error(row, where, mapping):
    """The ParseError for a line row that failed to read, or None."""
    error = _row_error(row, where, labels=("from", "to"), required=("r", "x"))
    for key in ("from", "to"):
        if error is None and row[key] not in mapping:
            error = ParseError(f"line {row!r} references unknown bus {row[key]!r}")
    return error


def _first_error(errors):
    """Raise the first error that is not None; the caller knows there is one."""
    raise next(e for e in errors if e is not None)


def _build(v0, bus_rows, line_rows, default_ctrl) -> tuple[RadialNetwork, ControlSpec | None]:
    """The network and control block of a parsed network file.

    Each field is read as one column and type-checked as a whole; when a
    column fails, the rows are checked one by one, so the error names the
    first row at fault, the first field in it and the reason.
    """
    bus_rows, line_rows = _table(bus_rows, "buses"), _table(line_rows, "lines")
    mapping, root, ends = _remap_ids(bus_rows, line_rows)
    rows = bus_rows[:root] + bus_rows[root + 1:]  # rows[i]: bus i+1

    def where(i):
        return f"buses[{i + (i >= root)}]"

    buses = {key: _floats(_get(rows, key), default)
             for key, default in _BUS_DEFAULTS.items() if key != "is_actuator"}
    actuator = _get(rows, "actuator", _BUS_DEFAULTS["is_actuator"])
    overs = _get(rows, "control")
    if (any(col is None for col in buses.values()) or not set(map(type, actuator)) <= {bool}
            or not set(map(type, overs)) <= {type(None), dict}):
        _first_error(_bus_row_error(row, where(i), tuple(buses)) for i, row in enumerate(rows))
    actuator = np.array(actuator, dtype=bool)

    try:
        from_node, to_node = (list(map(mapping.__getitem__, labels)) for labels in ends)
    except KeyError:
        from_node = None
    r, x = (_floats(_get(line_rows, key)) for key in ("r", "x"))
    if from_node is None or r is None or x is None:
        _first_error(_line_row_error(row, f"lines[{k}]", mapping)
                     for k, row in enumerate(line_rows))

    net = RadialNetwork(n=len(rows), v0=v0, from_node=from_node, to_node=to_node, r=r, x=x,
                        is_actuator=actuator, **buses)
    validate_tree(net)

    if default_ctrl is None and overs.count(None) == len(overs):
        return net, None
    base = {} if default_ctrl is None else default_ctrl
    if not isinstance(base, dict):
        raise _not_object(base, "'control'")
    act = np.flatnonzero(actuator)
    if not act.size:
        return net, None
    over_act = [overs[i] or {} for i in act.tolist()]
    ctrl = [_floats(_get(over_act, key, base.get(key)), default)
            for key, default in zip(_CONTROL_NUMBERS, (0.0, 0.0, net.q_min[act], net.q_max[act]))]
    if any(col is None for col in ctrl):
        _first_error(_row_error({**base, **over}, f"the control of {where(i)}",
                                optional=_CONTROL_NUMBERS)
                     for i, over in zip(act.tolist(), over_act))
    return net, ControlSpec(*ctrl)


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
    v0 = doc.get("v0")
    return _build(1.0 if v0 is None else float(v0), doc["buses"], doc["lines"],
                  doc.get("control"))


def save_network_json(net: RadialNetwork, ctrl: ControlSpec | None = None) -> str:
    def bound_out(v):
        return None if math.isinf(v) else v

    controls = None if ctrl is None else zip(
        ctrl.alpha.tolist(), ctrl.delta.tolist(), ctrl.q_min.tolist(), ctrl.q_max.tolist())
    buses = [{"id": 0}]
    for i, (p_c, p_g, q_c, v_nom, q_min, q_max, actuator) in enumerate(
            zip(*(getattr(net, name).tolist() for name in _BUS_FIELDS)), start=1):
        row = {
            "id": i, "p_c": p_c, "p_g": p_g, "q_c": q_c, "v_nom": v_nom,
            "q_min": bound_out(q_min), "q_max": bound_out(q_max), "actuator": actuator,
        }
        if ctrl is not None and actuator:
            alpha, delta, lo, hi = next(controls)
            row["control"] = {"alpha": alpha, "delta": delta,
                              "q_min": bound_out(lo), "q_max": bound_out(hi)}
        buses.append(row)
    lines = [{"from": f, "to": t, "r": r, "x": x} for f, t, r, x in _line_columns(net)]
    return json.dumps({"v0": net.v0, "buses": buses, "lines": lines}, indent=1)


def _line_columns(net: RadialNetwork):
    """(from, to, r, x) of each line in line order, as Python numbers."""
    return zip(net.from_node.tolist(), net.to_node.tolist(), net.r.tolist(), net.x.tolist())


def write_matrix_csv(fh, M: np.ndarray, kind: str) -> None:
    """Write a dense matrix dump to the text file fh, one row at a time.

    The header is `# n=<n> kind=<X|R|Xinv>`; then np.savetxt writes each row
    as %.17g values joined by "," and ended by "\n" (golden files).
    """
    fh.write(f"# n={M.shape[0]} kind={kind}\n")
    np.savetxt(fh, M, delimiter=",", fmt="%.17g")


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


_HASH_FIELDS = tuple(sorted(_BUS_FIELDS))
_HASH_ROW = "{" + ", ".join(f'"{name}": %s' for name in _HASH_FIELDS) + "}"
_JSON_SPECIAL = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_texts(col: np.ndarray) -> list[str]:
    """Each entry of a bus column as json.dumps writes it."""
    if col.dtype == bool:
        return ["true" if v else "false" for v in col.tolist()]
    texts = list(map(float.__repr__, col.tolist()))
    if not np.isfinite(col).all():
        texts = [_JSON_SPECIAL.get(t, t) for t in texts]
    return texts


def _constant(col: np.ndarray) -> bool:
    """Whether a non-empty column holds one value, bit for bit."""
    if col.strides == (0,):
        return col.size > 0
    bits = col.view(f"u{col.itemsize}")
    return bits.size > 0 and bool((bits == bits[0]).all())


def topology_hash(net: RadialNetwork) -> str:
    """Stable short hash of the feeder structure and parameters.

    The hash is the first 16 hex digits of the sha256 of three parts,
    concatenated: ``v0=<v0:.12g>;n=<n>``, then ``L<from>,<to>,<r:.12g>,<x:.12g>``
    for each line in order, then one JSON object for each bus in bus order,
    made of its entries in the seven bus columns:
    ``{"is_actuator": <b>, "p_c": <f>, "p_g": <f>, "q_c": <f>, "q_max": <f>,
    "q_min": <f>, "v_nom": <f>}``, the names sorted, with ``<b>`` true or
    false and each ``<f>`` the repr of the float, or Infinity, -Infinity or
    NaN.  These are the bytes of json.dumps(row, sort_keys=True) for the
    row as a dict, and they are a sweep column, so they never change.

    The bus columns are floats and ``is_actuator`` a bool, whatever types
    the network was built from: a field given as the int 1 is the float
    1.0 and hashes as "1.0", so it hashes as the float does.  -0.0 hashes
    apart from 0.0, as its repr differs.  When every bus column holds one
    value, as a generated feeder's do, the one row is written once and
    repeated.
    """
    h = hashlib.sha256()
    h.update(f"v0={net.v0:.12g};n={net.n}".encode())
    h.update("".join(["L%d,%d,%.12g,%.12g" % line for line in _line_columns(net)]).encode())
    cols = [getattr(net, name) for name in _HASH_FIELDS]
    if all(map(_constant, cols)):
        row = _HASH_ROW % tuple(_json_texts(col[:1])[0] for col in cols)
        h.update(row.encode() * cols[0].size)
    else:
        h.update("".join(map(_HASH_ROW.__mod__, zip(*map(_json_texts, cols)))).encode())
    return h.hexdigest()[:16]


def report_json(report, net: RadialNetwork) -> str:
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
    doc["n"] = net.n
    doc["topology_hash"] = topology_hash(net)
    return json.dumps(doc, indent=1)
