"""File formats: network JSON, matrix dumps, traces, reports.

Network JSON schema:

    {"v0": 1.0,
     "control": {"alpha": 9.0, "delta": 0.02, "q_min": null, "q_max": null},
     "buses": [{"id": 1, "p_c": 0.1, "p_g": 0, "q_c": 0.05, "v_nom": 1.0,
                "q_min": null, "q_max": null, "actuator": true,
                "control": {...}},   # optional per-bus override
               ...],
     "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02}, ...]}

`load_network_json(path)` reads the network file at path, and only that;
`parse_network_json(text)` parses a file's text, the inverse of
`save_network_json`.  Bus ids and line ends are labels, numbers or strings,
remapped to dense 0..n on load: the root is the bus labelled 0 if present,
otherwise the unique bus that is never a line's child end.  An infinite box
limit is written as null.

Each row kind has one table of its fields, (key, JSON kind, default):
`_DOCUMENT` (v0), `_BUS_ID`, `_BUS_ROW`, `_LINE_ROW` and `_CONTROL_ROW`.  A
number is a JSON int or float, not a bool, a string or an int beyond the
floats; a label is a number or a string; a flag is true or false.  A field
with a default takes it when missing, and when null unless it is a flag; a
field without one is required.  Each field is read as one column, with no
object per bus or line, straight into the network's columns.  The file is
written, and hashed by `topology_hash`, from the columns.

A malformed file raises a ParseError naming its first fault.  The checks run
in this order: the JSON text; the document is an object with "buses" and
"lines"; v0; both tables are lists of objects; the bus ids (missing, not a
label, or repeated); the line ends are labels; the root; the bus rows other
than the root's; the line rows (r and x, then an unknown end); validate_tree;
the control block.  Within a check the error names the first row at fault
(``buses[j]``, ``lines[k]`` or the control of ``buses[j]``), and in it a
missing required field, else the first field, in table order, of another
kind.  Only when a column fails is the table walked row by row to find it.

Traces and matrix dumps grow with n times their rows, so each has one
streaming writer, `write_trace_csv(fh, ...)` and `write_matrix_csv(fh, ...)`,
that writes its header and then a block of values at a time to a text file:
as many whole rows as fit in the block, or a wider row in pieces.  So no more
than a block is held as text.  Both writers print their floats through one
vectorised formatter, `_format_g17`, which gives the bytes of "%.17g" % v for
each value; that is the formats' only formatting path.  `dump_trace_csv`
alone also returns its bytes as one string.  The bytes are a contract: every
float is printed with %.17g, trace rows end with "\r\n" and matrix rows with
"\n".
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import operator
from typing import NamedTuple

import numpy as np

from .controls import ControlSpec
from .dynamics import SimulationTrace
from .topology import _BUS_DEFAULTS, _BUS_FIELDS, RadialNetwork, validate_tree

SCHEMA_COMMENT = "# voltgame-schema=1"


class ParseError(ValueError):
    pass


class _Kind(NamedTuple):
    types: frozenset  # what json.loads gives for a value of the kind
    null: bool  # whether a null takes the field's default
    error: str  # for another value: formatted with where (the row), key, value (as JSON), type


_NUMBER = _Kind(frozenset({int, float}), True, "{where}: {key!r} must be a number, not {value}")
_LABEL = _Kind(frozenset({int, float, str}), False,
               "{where}: {key!r} must be a number or a string, not {value}")
_FLAG = _Kind(frozenset({bool}), False, "{where}: {key!r} must be true or false, not {value}")
_OBJECT = _Kind(frozenset({dict}), True, "{where}[{key!r}] must be an object, not {type}")

_REQUIRED = object()  # the default of a field that every row has
_OF_BUS = object()  # the default of a control limit: the bus's box limit

# The fields of each row kind, (key, kind, default), in the order a row's
# faults are looked for.
_DOCUMENT = (("v0", _NUMBER, 1.0),)
_BUS_ID = (("id", _LABEL, _REQUIRED),)
_BUS_ROW = (("actuator", _FLAG, _BUS_DEFAULTS["is_actuator"]),
            *((key, _NUMBER, default) for key, default in _BUS_DEFAULTS.items()
              if key != "is_actuator"),
            ("control", _OBJECT, None))
_LINE_ROW = (("from", _LABEL, _REQUIRED), ("to", _LABEL, _REQUIRED),
             ("r", _NUMBER, _REQUIRED), ("x", _NUMBER, _REQUIRED))
_CONTROL_ROW = (("alpha", _NUMBER, 0.0), ("delta", _NUMBER, 0.0),
                ("q_min", _NUMBER, _OF_BUS), ("q_max", _NUMBER, _OF_BUS))


def _column(rows, field, fallback=None):
    """One field of each row as a column of its kind: a float array for a
    number, a bool array for a flag, else a list; None when a value is not
    of the kind, and an integer too large for a float is no number.  A row
    without the field reads as fallback (a label's or a flag's as its
    default), and a null as the default (a value, or one per row) where the
    field has one and its kind lets a null take it."""
    key, kind, default = field
    missing = fallback if kind.null else default
    values = list(map(dict.get, rows, itertools.repeat(key), itertools.repeat(missing)))
    types = set(map(type, values))
    if not types <= (kind.types | {type(None)} if kind.null and default is not _REQUIRED
                     else kind.types):
        return None
    if kind is _FLAG:
        return np.array(values, dtype=bool)
    if kind is not _NUMBER:
        return values
    try:
        out = np.array(values, dtype=float)  # a null is NaN here
    except OverflowError:
        return None
    if type(None) in types:
        null = np.fromiter(map(operator.is_, values, itertools.repeat(None)), bool, len(values))
        out = np.where(null, default, out)
    return out


def _is_number(value) -> bool:
    """Whether value is a JSON number, as a network file's fields take them."""
    return _column([{"": value}], ("", _NUMBER, _REQUIRED)) is not None


def _fault(rows, names, fields, check=None) -> ParseError:
    """The error for the first row at fault of rows, named by names: the
    first required field it lacks, else its first field that does not read
    as a one-row column, else check(name, row)'s message."""
    for where, row in zip(names, rows):
        for key, _, default in fields:
            if default is _REQUIRED and key not in row:
                return ParseError(f"{where} has no {key!r}")
        for key, kind, default in fields:
            if _column([row], (key, kind, default)) is None:
                value = row.get(key)  # a missing field that is not required reads as valid
                return ParseError(kind.error.format(where=where, key=key, value=json.dumps(value),
                                                    type=type(value).__name__))
        message = check and check(where, row)
        if message:
            return ParseError(message)
    raise AssertionError("no row at fault")


def _read(rows, names, fields, base=None):
    """The columns of fields in rows, a field a row lacks read from base;
    the first fault (see _fault) is raised when a column fails."""
    base = base or {}
    cols = [_column(rows, field, base.get(field[0])) for field in fields]
    if any(col is None for col in cols):
        raise _fault([{**base, **row} for row in rows], names, fields)
    return cols


def _names(table, rows, skip=-1):
    """The name of each row of a table but row skip: table[k]."""
    return (f"{table}[{k}]" for k in range(len(rows)) if k != skip)


def _table(rows, name):
    if not isinstance(rows, list):
        raise ParseError(f"{name!r} must be a list of objects, not {type(rows).__name__}")
    if not set(map(type, rows)) <= {dict}:
        k = next(k for k, row in enumerate(rows) if not isinstance(row, dict))
        raise ParseError(f"{name}[{k}] must be an object, not {type(rows[k]).__name__}")
    return rows


def _remap_ids(bus_rows, line_rows):
    """Map arbitrary labels to dense ids with the substation at 0.

    Returns the map, the index of the substation's row, and the labels of
    the lines' from and to ends."""
    first = {}  # label -> the name of its first row

    def repeat(where, row):
        if first.setdefault(row["id"], where) != where:
            return f"{where} repeats bus id {row['id']!r} of {first[row['id']]}"

    labels = _column(bus_rows, _BUS_ID[0])
    ids = {} if labels is None else dict(zip(labels, range(len(labels))))  # label -> its row
    if len(ids) != len(bus_rows):  # a label missing, not a number or a string, or repeated
        raise _fault(bus_rows, _names("buses", bus_rows), _BUS_ID, check=repeat)
    ends = _read(line_rows, _names("lines", line_rows), _LINE_ROW[:2])
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


def _build(v0, bus_rows, line_rows, default_ctrl) -> tuple[RadialNetwork, ControlSpec | None]:
    """The network and control block of a parsed network file."""
    bus_rows, line_rows = _table(bus_rows, "buses"), _table(line_rows, "lines")
    mapping, root, ends = _remap_ids(bus_rows, line_rows)
    rows = bus_rows[:root] + bus_rows[root + 1:]  # rows[i]: bus i+1
    buses = dict(zip((key for key, _, _ in _BUS_ROW),
                     _read(rows, _names("buses", bus_rows, root), _BUS_ROW)))
    actuator, overs = buses.pop("actuator"), buses.pop("control")

    def unknown_bus(where, row):
        for key in ("from", "to"):
            if row[key] not in mapping:
                return f"line {row!r} references unknown bus {row[key]!r}"

    names = _names("lines", line_rows)  # for the one row walk, if any
    try:
        from_node, to_node = (list(map(mapping.__getitem__, labels)) for labels in ends)
    except KeyError:  # an unknown end, or a fault in r or x of an earlier row
        raise _fault(line_rows, names, _LINE_ROW, check=unknown_bus) from None
    r, x = _read(line_rows, names, _LINE_ROW[2:])

    net = RadialNetwork(n=len(rows), v0=v0, from_node=from_node, to_node=to_node, r=r, x=x,
                        is_actuator=actuator, **buses)
    validate_tree(net)

    if default_ctrl is None and overs.count(None) == len(overs):
        return net, None
    base = {} if default_ctrl is None else default_ctrl
    if not isinstance(base, dict):
        raise ParseError(f"'control' must be an object, not {type(base).__name__}")
    act = np.flatnonzero(actuator)
    if not act.size:
        return net, None
    fields = [(key, kind, getattr(net, key)[act] if default is _OF_BUS else default)
              for key, kind, default in _CONTROL_ROW]
    act = act.tolist()
    ctrl = _read([overs[i] or {} for i in act],
                 (f"the control of buses[{i + (i >= root)}]" for i in act), fields, base)
    return net, ControlSpec(*ctrl)


def load_network_json(path) -> tuple[RadialNetwork, ControlSpec | None]:
    """The network (and control block, or None) of the network file at path."""
    with open(path) as fh:
        return parse_network_json(fh.read())


def parse_network_json(text: str) -> tuple[RadialNetwork, ControlSpec | None]:
    """The network (and control block, or None) of a network file's text; the
    inverse of save_network_json."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"the network must be an object, not {type(doc).__name__}")
    for key in ("buses", "lines"):
        if key not in doc:
            raise ParseError(f"missing top-level key {key!r}")
    v0, = _read([doc], ["the network"], _DOCUMENT)
    return _build(float(v0[0]), doc["buses"], doc["lines"], doc.get("control"))


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


# -- %.17g, a block of values at a time ---------------------------------------------
#
# A finite x with 1e-6 <= |x| < 1e17 has a decimal exponent X = floor(log10|x|)
# in -6..16, and 10**k for k = 16 - X <= 22 is an exact double.  Dekker's exact
# product splits |x| * 10**k into p + e, p = fl(|x| * 10**k).  When p + e lies
# in [1e16, 1e17), X is right, and the 17 significant digits %.17g prints are
# the integer D = p + rint(e), rounded half to even as "%" rounds: p >= 1e16 >
# 2**53 is an even integer, so rint's ties to even are those of p + e.  Every
# other value is printed by "%" itself: NaN, an infinity, |x| outside the
# range, or one whose log10 rounded across a power of ten (p + e is then out
# of range).  Zeros are printed here.
#
# Each value is written into a fixed slot of _SLOT_WIDTH bytes: a sign, "0.000",
# the 17 digits each followed by a place for ".", "e-0N" and the separator.
# _SLOTS holds a slot for each (k, trailing zeros of D, sign): the text, with 0
# at each byte that text does not use and 0xFF at each digit it does.  The
# digits are ANDed in, eight bytes at a time, and the 0 bytes deleted.

_P10 = np.array([float(10 ** k) for k in range(23)] + [0.0])  # k = 23: below 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting factor
_P10_HI = _P10 * _SPLIT - (_P10 * _SPLIT - _P10)
_P10_LO = _P10 - _P10_HI
_SLOT_WIDTH = 48  # bytes 44 and 45 hold the separator; 39, 46 and 47 are never used
_SLOT_TEXT = np.frombuffer(b"-0.000" + b"0." * 16 + b"0\0e-00,\0\0\0", np.uint8)
_DIGIT_BYTES = slice(6, 40, 2)
_ZERO_K = 24  # the table rows of 0.0 and -0.0


def _digit_words(width: int) -> np.ndarray:
    """For each group of `width` decimal digits, the uint64 word that ANDs its
    ASCII digits into the even bytes of a slot's eight-byte word that ends
    with it, and keeps every other byte."""
    group = np.arange(10 ** width, dtype=np.int16)
    out = np.full((group.size, 8), 0xFF, np.uint8)
    for j in range(width):
        out[:, 8 - 2 * width + 2 * j] = 48 + group // 10 ** (width - 1 - j) % 10
    return out.view(np.uint64).ravel()


_LEAD_WORDS = _digit_words(1)  # digit 0, in the slot's first word
_GROUP_WORDS = _digit_words(4)  # digits 1-4, 5-8, 9-12 and 13-16, in words 1-4
_TZ2 = np.zeros(10000, np.int8)  # twice the trailing zeros of a 4-digit group; 8 for 0000
_TZ2[::10] = 2
_TZ2[::100] = 4
_TZ2[::1000] = 6
_TZ2[0] = 8


def _slot_table() -> np.ndarray:
    """The slots by (k, twice the trailing zeros of D, sign): row 34k + 2z + sign."""
    keep = np.zeros((25, 17, 2, _SLOT_WIDTH), bool)
    nd = 17 - np.arange(17)[:, None, None]  # digits up to the last nonzero one
    j = np.arange(17)
    for k in range(23):
        X, row = 16 - k, keep[k]
        if X >= 0:  # fixed: the integer part, and "." and the rest if not all zero
            row[..., _DIGIT_BYTES] = j < np.maximum(nd, X + 1)
            row[..., 7 + 2 * X] = nd[..., 0] > X + 1
        else:
            row[..., _DIGIT_BYTES] = j < nd
        if X >= -4 and X < 0:  # "0.", "0.0", "0.00" or "0.000" before the digits
            row[..., 1:2 - X] = True
        elif X < -4:  # d.ddde-05 or d.ddde-06
            row[..., 7] = nd[..., 0] > 1
            row[..., 40:44] = True
    keep[_ZERO_K, ..., 6] = True
    keep[:, :, 1, 0] = True
    keep[..., 44] = True
    text = np.broadcast_to(_SLOT_TEXT, keep.shape).copy()
    text[..., _DIGIT_BYTES] = 0xFF
    text[21:23, ..., 43] += np.array([5, 6], np.uint8)[:, None, None]
    text[~keep] = 0
    return text.reshape(-1, _SLOT_WIDTH)


_SLOTS = _slot_table()


def _decimal17(a: np.ndarray):
    """For the float64 values a >= 0: k = 16 - floor(log10 a) as intp, the 17
    significant digits D = round(a * 10**k) as int64, and the indices of the
    nonzero values whose exact a * 10**k is not in [1e16, 1e17).  A zero has
    k = _ZERO_K; D is 1 at zeros and at those indices."""
    zero = a == 0
    with np.errstate(all="ignore"):
        k = np.log10(a)
        np.fmax(k, -7.0, out=k)  # log10(0) = -inf and NaN too
        np.fmin(k, 16.0, out=k)
        np.floor(k, out=k)
        k = np.subtract(16.0, k, out=k).astype(np.intp)
        p = _P10.take(k)
        p *= a
        # Dekker's exact error e = a * 10**k - p, from halves of 26 bits
        ten_hi = _P10_HI.take(k)
        ten_lo = _P10_LO.take(k)
        hi = a * _SPLIT
        lo = hi - a
        hi -= lo
        np.subtract(a, hi, out=lo)
        e = hi * ten_hi
        e -= p
        hi *= ten_lo
        e += hi
        np.multiply(lo, ten_hi, out=hi)
        e += hi
        lo *= ten_lo
        e += lo
        del hi, lo, ten_hi, ten_lo
        D = p.astype(np.int64)
        D += np.rint(e).astype(np.int64)
        # in range: 0 <= r < 9e16 for r = fl(p - 1e16 + e).  p - 1e16 is exact,
        # and doubles near 9e16 are 16 apart, so then 1e16 <= p + e <= 1e17 - 8.
        p -= 1e16
        p += e
        bad = p < 0
        bad |= ~(p < 9e16)  # NaN too
    np.copyto(D, 1, where=bad)  # digits with no trailing zeros, so none to count
    np.copyto(k, _ZERO_K, where=zero)
    bad &= ~zero
    return k, D, bad.nonzero()[0]


def _digit_groups(D: np.ndarray):
    """The digits of the 17-digit integers D as int32: the first, then four
    groups of four.  Overwrites D."""
    hi = D // 10 ** 8
    D -= hi * 10 ** 8
    hi, lo = hi.astype(np.int32), D.astype(np.int32)
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    g1 = hi // 10 ** 4
    hi -= g1 * 10 ** 4
    g3 = lo // 10 ** 4
    lo -= g3 * 10 ** 4
    return lead, g1, hi, g3, lo


def _twice_trailing_zeros(groups) -> np.ndarray:
    """Twice the trailing zeros of the 17-digit integers with these digit groups."""
    tz2 = _TZ2.take(groups[4])
    low0 = (groups[4] == 0).nonzero()[0]  # ending in 0000: count on in the groups above
    if low0.size:
        t = _TZ2.take(groups[1][low0])
        for g in (groups[2][low0], groups[3][low0]):
            t = np.where(g == 0, t + 8, _TZ2.take(g))
        tz2[low0] += t
    return tz2


def _format_g17(block: np.ndarray, end: str) -> str:
    """The rows of a 2-D float64 array as text: each value printed with %.17g
    and followed by ",", or by `end` if it ends its row.  Overwrites block."""
    rows = block.shape[0]
    a = block.reshape(-1)
    neg = np.signbit(a)
    np.abs(a, out=a)
    k, D, fall_back = _decimal17(a)
    groups = _digit_groups(D)
    del D
    k *= 34
    k += _twice_trailing_zeros(groups)
    k += neg
    slots = _SLOTS.take(k, axis=0)
    del k
    words = slots.view(np.uint64)
    for w, g in enumerate(groups):
        words[:, w] &= (_GROUP_WORDS if w else _LEAD_WORDS).take(g)
    del words, groups
    for i in fall_back.tolist():
        text = ("%.17g" % (-a[i] if neg[i] else a[i])).encode()
        slots[i, :44] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
    ends = slots.reshape(rows, -1, _SLOT_WIDTH)[:, -1]
    ends[:, 44] = ord(end[0])
    if len(end) == 2:
        ends[:, 45] = ord(end[1])
    del ends
    # delete the 0 bytes an eighth of a block at a time, to hold less
    step = _BLOCK // 8
    parts = [slots[i:i + step].tobytes().translate(None, b"\0")
             for i in range(0, len(slots), step)]
    del slots
    return b"".join(parts).decode("ascii")


_BLOCK = 1280  # the most values one _format_g17 call formats


def _rows_text(parts, end: str):
    """The text of the rows of the 2-D arrays `parts`, side by side: each value
    with %.17g, joined by "," and each row ended by `end`, in pieces.  Each
    _format_g17 call takes as many whole rows as fit in _BLOCK values, or one
    row in even pieces of at most _BLOCK values."""
    offsets = list(itertools.accumulate([part.shape[1] for part in parts], initial=0))
    width, n_rows = offsets[-1], parts[0].shape[0]
    if width == 0:
        yield end * n_rows
        return
    step = max(1, _BLOCK // width)
    pieces = -(-width // _BLOCK)
    cuts = [width * i // pieces for i in range(pieces + 1)]
    for r in range(0, n_rows, step):
        for j0, j1 in zip(cuts, cuts[1:]):
            block = np.concatenate([part[r:r + step, max(j0 - o, 0):j1 - o]
                                    for part, o, o_end in zip(parts, offsets, offsets[1:])
                                    if o < j1 and j0 < o_end], axis=1, dtype=np.float64)
            yield _format_g17(block, end if j1 == width else ",")


def write_matrix_csv(fh, M: np.ndarray, kind: str) -> None:
    """Write a dense matrix dump to the text file fh, a block of values at a time.

    The header is `# n=<n> kind=<X|R|Xinv>`; then each row is its %.17g values
    joined by "," and ended by "\n", the bytes np.savetxt(fmt="%.17g",
    delimiter=",") writes (golden files).
    """
    fh.write(f"# n={M.shape[0]} kind={kind}\n")
    fh.writelines(_rows_text([M], "\n"))


def write_trace_csv(fh, trace: SimulationTrace, with_voltages: bool = False) -> None:
    """Write a trace as CSV rows (t, residual, q_1..q_n[, v_1..v_n]) to the text
    file fh, a block of values at a time, so no more than a block is held as text.

    Each float is printed with %.17g and each row ends with "\r\n", as
    csv.writer would write them; no field ever needs quoting.  Row 0 has an
    empty residual, and a row past the end of v_hist has no voltages.
    """
    q_hist = trace.q_hist
    steps, k = q_hist.shape
    v_hist = trace.v_hist if with_voltages else None
    fh.write("t,residual")
    for name, count in (("q", k), ("v", 0 if v_hist is None else v_hist.shape[1])):
        for start in range(1, count + 1, _BLOCK):
            fh.write("".join([f",{name}_{i}" for i in range(start, min(start + _BLOCK, count + 1))]))
    fh.write("\r\n")
    v_steps = 0 if v_hist is None else min(v_hist.shape[0], steps)
    residuals = np.concatenate([[0.0], trace.residuals[:steps - 1]])  # row 0's is empty

    def rows(start, stop, voltages):
        parts = [np.arange(start, stop, dtype=np.float64)[:, None],
                 residuals[start:stop, None], q_hist[start:stop]]
        return _rows_text(parts + [v_hist[start:stop]] if voltages else parts, "\r\n")

    texts = itertools.chain(rows(0, v_steps, True) if v_steps else (),
                            rows(v_steps, steps, False))
    first = next(texts, None)
    if first is not None:
        fh.write("0," + first[3:])  # row 0 starts "0,0": the empty residual, printed as 0
        fh.writelines(texts)


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
