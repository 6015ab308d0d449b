"""Dataset ingestion and reproducible sweep runners.

A sweep runs its jobs one after another and emits their rows in job order,
so a fixed spec and seed reproduce the CSV byte for byte.  Every PoSA row
comes from :func:`voltgame.equilibrium.posa_report` on the sparse X^{-1}:
whole feeders for the chain-size and random-tree-depth kinds, the SCE
feeder restricted to its actuators for the cost-coefficient kind.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from . import acflow, dynamics, equilibrium
from .controls import ControlSpec
from .netio import SCHEMA_COMMENT, ParseError, _is_number, topology_hash
from .sensitivity import SensitivitySet, build_sensitivity
from .topology import (
    DegreeDistribution,
    RadialNetwork,
    _uniform_half_open,
    chain_network,
    random_instance,
    validate_tree,
)

MIN_X_OHM = 0.001    # floor of every SCE 42 line reactance (the table lists one zero-X line)
S_BASE_KVA = 1000.0
Z_BASE_OHM = 152.52
POWER_FACTOR = 0.9   # lagging, of every SCE 42 load
V0 = 1.0             # substation voltage, per unit
ALPHA = 9.0          # droop slope of every SCE 42 actuator
DELTA = 0.02         # droop deadband width of every SCE 42 actuator


@dataclass(frozen=True)
class Sce42Dataset:
    net: RadialNetwork
    ctrl: ControlSpec
    pv_buses: tuple[int, ...]          # original table numbering
    pv_capacity_pu: tuple[float, ...]


def _read_data_csv(name: str):
    text = resources.files("voltgame.data").joinpath(name).read_text()
    return list(csv.DictReader(io.StringIO(text)))


def load_sce42(*, loading_factor: float = 1.0, pv_output_factor: float = 0.5,
               capacity_constraint: bool = True) -> Sce42Dataset:
    """Build the SCE 42-bus feeder from its bundled tables, in per-unit, with
    droop slope ALPHA and deadband DELTA at every actuator and the
    substation at V0.

    Table bus 1 (the substation) maps to internal id 0, so table bus k is
    node k-1 everywhere downstream.  Loads are peak MVA split by
    POWER_FACTOR (lagging) and scaled by ``loading_factor``; PV buses
    generate ``pv_output_factor`` of nameplate with the reactive box
    |q| <= sqrt(cap^2 - p_g^2) when ``capacity_constraint`` is set.
    Reactances are floored at MIN_X_OHM.
    """
    peak = {int(row["bus"]): float(row["peak_mva"]) for row in _read_data_csv("sce42_loads.csv")}
    pv = {int(row["bus"]): float(row["capacity_mw"]) for row in _read_data_csv("sce42_pv.csv")}
    lines = [(int(row["from"]) - 1, int(row["to"]) - 1, float(row["r_ohm"]) / Z_BASE_OHM,
              max(float(row["x_ohm"]), MIN_X_OHM) / Z_BASE_OHM)
             for row in _read_data_csv("sce42_lines.csv")]  # (from, to, r, x) of each line

    s_base_mva = S_BASE_KVA / 1000.0
    pf_angle = math.acos(POWER_FACTOR)
    n = 41
    p_c, p_g, q_c, q_lim = [], [], [], []  # bus columns, entry i for table bus i+2
    for bus in range(2, 43):
        mva = peak.get(bus, 0.0) * loading_factor / s_base_mva
        p_c.append(mva * POWER_FACTOR)
        q_c.append(mva * math.sin(pf_angle))
        gen, lim = 0.0, math.inf
        if bus in pv:
            cap = pv[bus] / s_base_mva
            gen = cap * pv_output_factor
            if capacity_constraint:
                lim = math.sqrt(max(cap * cap - gen * gen, 0.0))
        p_g.append(gen)
        q_lim.append(lim)

    from_node, to_node, r, x = zip(*lines)
    q_lim = np.array(q_lim)
    net = RadialNetwork(n=n, v0=V0, from_node=from_node, to_node=to_node, r=r, x=x,
                        p_c=p_c, p_g=p_g, q_c=q_c, q_min=-q_lim, q_max=q_lim,
                        is_actuator=[bus in pv for bus in range(2, 43)])
    validate_tree(net)

    act = net.actuator_indices()
    ctrl = ControlSpec.uniform(act.size, ALPHA, DELTA, net.q_min[act], net.q_max[act])
    pv_tuple = tuple(sorted(pv))
    return Sce42Dataset(net=net, ctrl=ctrl, pv_buses=pv_tuple,
                        pv_capacity_pu=tuple(pv[b] / s_base_mva for b in pv_tuple))


def restricted_model(net: RadialNetwork, S: SensitivitySet | None = None):
    """Sensitivities and operating constants reduced to the actuator buses."""
    if S is None:
        S = build_sensitivity(net)
    vt = dynamics.operating_constants(net, S)
    idx = net.actuator_indices()
    vt_act = dynamics.OperatingConstants(vt.v_tilde[idx], vt.delta_v_tilde[idx])
    return S.restrict(idx), vt_act, idx


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _is_child_probs(value) -> bool:
    if not (isinstance(value, dict) and all(map(_is_number, value.values()))):
        return False
    try:
        [int(k) for k in value]
    except ValueError:
        return False
    return True


def _json_text(value) -> str:
    """value as JSON writes it, or its repr where JSON has no such value."""
    try:
        return json.dumps(value)
    except TypeError:
        return repr(value)


# each sweep kind -> the SweepSpec field of the values it sweeps
_SWEPT = {"chain-size": "sizes", "random-tree-depth": "depths",
          "cost-coefficient": "y_values", "alpha": "alphas"}

# SweepSpec field annotation -> (test of a JSON value, what the value must be)
_SPEC_JSON_TYPES = {
    "str": (lambda value: isinstance(value, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda value: isinstance(value, bool), "true or false"),
    "tuple": (_is_numbers, "a list of numbers"),
    "dict": (_is_child_probs, "an object of integer child counts to numbers"),
    "tuple | None": (lambda value: value is None or (_is_numbers(value) and len(value) == 2),
                     "null or two numbers"),
}


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one experiment sweep.

    kind:
      chain-size        uniform or randomized linear feeders over ``sizes``
      random-tree-depth random feeders per depth in ``depths``
      cost-coefficient  PoSA on the SCE feeder over ``y_values``
      alpha             closed-loop AC verdicts on the SCE feeder over ``alphas``

    A spec is immutable: construction, which checks it, is the only way to
    set a field.  The swept lists are stored as tuples.
    """

    kind: str
    seed: int = 0
    repetitions: int = 1
    sizes: tuple = ()
    depths: tuple = ()
    dist_probs: dict = field(default_factory=dict)
    x: float = 1.0
    y: float = 1.0
    x_range: tuple | None = None
    y_range: tuple | None = None
    y_values: tuple = ()
    alphas: tuple = ()
    delta: float = 0.02
    ac: bool = True
    max_nodes: int = 4000
    loading_factor: float = 1.0
    pv_output_factor: float = 0.5
    capacity_constraint: bool = True

    def __post_init__(self):
        """Check what the spec means: each size and depth an integer >= 1 (a
        numpy integer too, but not a bool), repetitions >= 1, a known kind
        and a non-empty list of the values it sweeps.  A ValueError names
        the first fault, in that order."""
        for key in _SWEPT.values():
            object.__setattr__(self, key, tuple(getattr(self, key)))
        for key in ("sizes", "depths"):
            for value in getattr(self, key):
                if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                        and value >= 1):
                    raise ValueError(f"the sweep spec's {key!r} must hold integers >= 1, "
                                     f"not {_json_text(value)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.kind not in _SWEPT:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not getattr(self, _SWEPT[self.kind]):
            raise ValueError(f"{self.kind} sweep needs {_SWEPT[self.kind]}")

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a spec; a ParseError names the first unknown key, or the key
        and value of the first field of the wrong JSON type, or else the
        first fault that constructing the spec finds."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"the sweep spec must be an object, not {type(doc).__name__}")
        if "kind" not in doc:
            raise ParseError("the sweep spec has no 'kind'")
        types = {f.name: f.type for f in fields(cls)}
        for key, value in doc.items():
            if key not in types:
                raise ParseError(f"the sweep spec has an unknown key {key!r}")
            valid, what = _SPEC_JSON_TYPES[types[key]]
            if not valid(value):
                raise ParseError(f"the sweep spec's {key!r} must be {what}, "
                                 f"not {json.dumps(value)}")
        if "dist_probs" in doc:
            doc["dist_probs"] = {int(k): float(v) for k, v in doc["dist_probs"].items()}
        for key in ("x_range", "y_range"):
            if doc.get(key) is not None:
                doc[key] = tuple(doc[key])
        try:
            return cls(**doc)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def _posa_row(rep: equilibrium.PosaReport) -> dict:
    return {
        "posa_max": rep.posa_max, "upper": rep.upper, "refined_upper": rep.refined_upper,
        "lower": rep.lower, "lower_clamped": rep.lower_clamped, "gap_bound": rep.gap_bound,
        "d": rep.d, "y_min": rep.y,
    }


def _chain_size_job(spec: SweepSpec, n: int, rep: int, seed: int) -> dict:
    if spec.x_range is None:
        xs = np.full(n, spec.x)
        ys = np.full(n, spec.y)
    else:
        rng = np.random.default_rng(seed)
        xs = _uniform_half_open(rng, *spec.x_range, size=n)
        ys = _uniform_half_open(rng, *(spec.y_range or spec.x_range), size=n)
    net = chain_network(xs)
    report = equilibrium.posa_report(build_sensitivity(net), ys, want_direction=False)
    row = {"kind": "chain-size", "n": n, "rep": rep, "seed": seed}
    row.update(_posa_row(report))
    if spec.x_range is None:
        row["chain_bound_uniform"] = equilibrium.chain_upper_bound_uniform(n, spec.x, spec.y)
    else:
        row["chain_bound_range"] = equilibrium.chain_upper_bound_range(
            n, spec.x_range[0] if spec.x_range[0] > 0 else min(xs), spec.x_range[1],
            d=report.d, y=float(np.min(ys)),
        )
    return row


def _tree_depth_job(spec: SweepSpec, depth: int, rep: int, seed: int) -> dict:
    dist = DegreeDistribution(
        probabilities=spec.dist_probs or {1: 0.5, 2: 0.5},
        max_depth=depth,
        x_range=spec.x_range or (0.0, 200.0),
        y_range=spec.y_range or (0.0, 100.0),
    )
    redraws = 0
    while True:
        net, ys = random_instance(dist, seed + redraws)
        if net.n <= spec.max_nodes:
            break
        redraws += 1
        if redraws > 50:
            raise RuntimeError(f"cannot draw a tree under {spec.max_nodes} nodes at depth {depth}")
    row = {"kind": "random-tree-depth", "depth": depth, "rep": rep, "seed": seed,
           "redraws": redraws, "n": net.n, "topology_hash": topology_hash(net)}
    row.update(_posa_row(equilibrium.posa_report(build_sensitivity(net), ys,
                                                 want_direction=False)))
    return row


def _cost_sweep_job(data: Sce42Dataset, y_value: float, delta: float) -> dict:
    S_act, vt_act, _ = restricted_model(data.net)
    k = S_act.n
    row = {"kind": "cost-coefficient", "y": y_value, "n": k}
    row.update(_posa_row(equilibrium.posa_report(S_act, np.full(k, y_value), vt=vt_act,
                                                 want_direction=False)))
    ctrl = ControlSpec.uniform(k, 1.0 / y_value, delta, data.ctrl.q_min, data.ctrl.q_max)
    row["posa_constrained"] = equilibrium.posa_constrained(S_act, ctrl, vt_act)
    return row


def _alpha_sweep_job(data: Sce42Dataset, alpha: float, delta: float, ac: bool) -> list[dict]:
    S_act, vt_act, _ = restricted_model(data.net)
    k = S_act.n
    ctrl = ControlSpec.uniform(k, alpha, delta, data.ctrl.q_min, data.ctrl.q_max)
    cond = dynamics.condition_report(S_act, ctrl)
    rows = []
    for law in ("taking", "anticipating"):
        row = {
            "kind": "alpha", "alpha": alpha, "law": law, "ac": ac,
            "sigma_taking": cond.sigma_taking,
            "sigma_anticipating": cond.sigma_anticipating,
        }
        try:
            if ac:
                trace = acflow.closed_loop_ac(data.net, S_act, ctrl, law, max_iter=400)
            else:
                step = (dynamics.taking_stepper if law == "taking"
                        else dynamics.anticipating_stepper)(S_act, ctrl, vt_act)
                trace = dynamics.run(step, np.zeros(k), tol=1e-8, max_iter=2000)
            row["status"] = trace.status
            row["iterations"] = trace.iterations
            row["final_residual"] = trace.final_residual
        except (acflow.NoConvergenceError, acflow.VoltageCollapseError) as exc:
            row["status"] = "diverged"
            row["iterations"] = -1
            row["final_residual"] = float("inf")
            row["error"] = type(exc).__name__
        rows.append(row)
    return rows


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Execute a sweep; one output row per instance x repetition (x law)."""
    rows = []
    if spec.kind == "chain-size":
        reps = spec.repetitions if spec.x_range is not None else 1
        for idx, (n, rep) in enumerate(itertools.product(spec.sizes, range(reps))):
            rows.append(_chain_size_job(spec, n, rep, spec.seed + 7919 * idx))
    elif spec.kind == "random-tree-depth":
        for idx, (depth, rep) in enumerate(itertools.product(spec.depths, range(spec.repetitions))):
            rows.append(_tree_depth_job(spec, depth, rep, spec.seed + 7919 * idx))
    else:
        data = load_sce42(loading_factor=spec.loading_factor,
                          pv_output_factor=spec.pv_output_factor,
                          capacity_constraint=spec.capacity_constraint)
        if spec.kind == "cost-coefficient":
            for y in spec.y_values:
                rows.append(_cost_sweep_job(data, float(y), spec.delta))
        else:
            for a in spec.alphas:
                rows.extend(_alpha_sweep_job(data, float(a), spec.delta, spec.ac))
    return rows


def sweep_csv(rows: list[dict]) -> str:
    """Serialize sweep rows with the versioned schema comment."""
    buf = io.StringIO()
    buf.write(SCHEMA_COMMENT + "\n")
    if not rows:
        return buf.getvalue()
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        out = {}
        for key, val in row.items():
            out[key] = f"{val:.17g}" if isinstance(val, float) else val
        writer.writerow(out)
    return buf.getvalue()
