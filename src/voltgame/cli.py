"""Command-line front end.

All data output (CSV/JSON) goes to stdout or --out; diagnostics go to
stderr.  Exit code 0 only on full success.  Traces and matrix dumps are
written a block of values at a time, so their text is never held whole.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import acflow, dynamics, equilibrium, experiments, netio
from .controls import ControlSpec
from .sensitivity import build_sensitivity
from .topology import DegreeDistribution, random_tree, tree_laplacian, validate_tree


def _emit(write, out: str | None) -> None:
    """Call write(fh) on --out or on stdout.  --out is opened only here, after
    the command's computation, so a command that fails creates no file."""
    if out:
        with open(out, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit_text(text: str, out: str | None) -> None:
    _emit(lambda fh: fh.write(text), out)


def _load(path: str):
    if path == "sce42":
        data = experiments.load_sce42()
        return data.net, data.ctrl
    return netio.load_network_json(path)


def _ctrl_from_args(net, ctrl, args) -> ControlSpec:
    if getattr(args, "alpha", None) is not None:
        act = net.actuator_indices()
        return ControlSpec.uniform(act.size, args.alpha, getattr(args, "delta", 0.0) or 0.0,
                                   net.q_min[act], net.q_max[act])
    if ctrl is None:
        raise netio.ParseError("no control block in the network file; pass --alpha")
    return ctrl


def cmd_validate(args) -> int:
    net, _ = _load(args.net)
    validate_tree(net)
    print(f"ok: root + {net.n} buses, {net.to_node.size} lines, hash {netio.topology_hash(net)}",
          file=sys.stderr)
    return 0


def cmd_matrices(args) -> int:
    net, _ = _load(args.net)
    if args.kind == "Xinv":
        M = tree_laplacian(net).toarray()
    else:
        S = build_sensitivity(net)
        M = S.X if args.kind == "X" else S.R
    _emit(lambda fh: netio.write_matrix_csv(fh, M, args.kind), args.out)
    return 0


def cmd_simulate(args) -> int:
    net, ctrl0 = _load(args.net)
    S_act, vt_act, _ = experiments.restricted_model(net)
    ctrl = _ctrl_from_args(net, ctrl0, args)
    # without --max-iter each model keeps its own default step budget
    budget = {} if args.max_iter is None else {"max_iter": args.max_iter}
    if args.ac:
        trace = acflow.closed_loop_ac(net, S_act, ctrl, args.law, tol=args.tol, **budget)
    else:
        step = (dynamics.taking_stepper if args.law == "taking"
                else dynamics.anticipating_stepper)(S_act, ctrl, vt_act)
        trace = dynamics.run(step, np.zeros(S_act.n), tol=args.tol, **budget,
                             voltage_fn=(lambda q: dynamics.voltage_from_q(S_act, q, vt_act))
                             if args.voltages else None)
    _emit(lambda fh: netio.write_trace_csv(fh, trace, with_voltages=args.voltages), args.out)
    print(f"{args.law}: {trace.status} after {trace.iterations} steps "
          f"(residual {trace.final_residual:.3e})", file=sys.stderr)
    return 0 if trace.converged else 3


def cmd_equilibrium(args) -> int:
    net, ctrl0 = _load(args.net)
    S_act, vt_act, idx = experiments.restricted_model(net)
    ctrl = _ctrl_from_args(net, ctrl0, args)
    objective = "F" if args.law == "taking" else "W"
    res = equilibrium.solve_iterative(objective, S_act, ctrl, vt_act)
    q = res.q_star if args.law == "taking" else res.q_a
    doc = {
        "law": args.law,
        "solver": res.solver,
        "q": [float(v) for v in q],
        "bus_index": [int(i) + 1 for i in idx],
        "F": res.F_value if args.law == "taking" else res.F_at_qa,
    }
    if args.law == "anticipating":
        doc["W"] = res.W_value
    _emit_text(json.dumps(doc, indent=1) + "\n", args.out)
    return 0


def cmd_posa(args) -> int:
    net, ctrl0 = _load(args.net)
    S_act, vt_act, _ = experiments.restricted_model(net)
    if args.y is not None:
        y = np.full(S_act.n, args.y)
    else:
        ctrl = _ctrl_from_args(net, ctrl0, args)
        if not ctrl.unconstrained_quadratic:
            posa = equilibrium.posa_constrained(S_act, ctrl, vt_act)
            doc = {"posa": posa, "n": net.n, "topology_hash": netio.topology_hash(net),
                   "note": "deadband/box constraints active; spectral bounds need "
                           "an unconstrained quadratic instance (pass --y)"}
            _emit_text(json.dumps(doc, indent=1) + "\n", args.out)
            return 0
        y = ctrl.y
    report = equilibrium.posa_report(S_act, y, vt=vt_act)
    _emit_text(netio.report_json(report, net=net) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        spec = experiments.SweepSpec.from_json(fh.read())
    rows = experiments.run_sweep(spec)
    _emit_text(experiments.sweep_csv(rows), args.out)
    print(f"{len(rows)} rows", file=sys.stderr)
    return 0


def cmd_random_tree(args) -> int:
    probs = {k + 1: float(p) for k, p in enumerate(args.dist.split(","))}
    x_range = tuple(float(v) for v in args.x_range.split(","))
    dist = DegreeDistribution(probabilities=probs, max_depth=args.depth, x_range=x_range)
    net = random_tree(dist, args.seed)
    _emit_text(netio.save_network_json(net) + "\n", args.out)
    print(f"{net.n} buses (seed {args.seed})", file=sys.stderr)
    return 0


def cmd_sce42(args) -> int:
    data = experiments.load_sce42(loading_factor=args.loading,
                                  capacity_constraint=not args.no_capacity)
    _emit_text(netio.save_network_json(data.net, data.ctrl) + "\n", args.out)
    print(f"SCE feeder: {data.net.n + 1} buses, PVs at {data.pv_buses}", file=sys.stderr)
    return 0


@functools.cache  # one parser per process: parsing leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="voltgame",
                                description="Volt/Var control games on radial feeders")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", help="write output here instead of stdout")
        return sp

    sp = add("validate", cmd_validate, help="check a network file")
    sp.add_argument("net")

    sp = add("matrices", cmd_matrices, help="dump a sensitivity matrix as CSV")
    sp.add_argument("net")
    sp.add_argument("--kind", choices=["X", "R", "Xinv"], default="X")

    sp = add("simulate", cmd_simulate, help="run a control law to its fixed point")
    sp.add_argument("net")
    sp.add_argument("--law", choices=["taking", "anticipating"], required=True)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--delta", type=float, default=0.0)
    sp.add_argument("--ac", action="store_true", help="use the AC sweep instead of the linear model")
    sp.add_argument("--voltages", action="store_true", help="include voltage columns")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int,
                    help="step budget (default: 100000 for the linear model, 300 with --ac)")

    sp = add("equilibrium", cmd_equilibrium, help="solve for an equilibrium directly")
    sp.add_argument("net")
    sp.add_argument("--law", choices=["taking", "anticipating"], required=True)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--delta", type=float, default=0.0)

    sp = add("posa", cmd_posa, help="price of signal-anticipation report")
    sp.add_argument("net")
    sp.add_argument("--y", type=float, help="uniform quadratic cost coefficient")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--delta", type=float, default=0.0)

    sp = add("sweep", cmd_sweep, help="run a sweep described by a JSON spec")
    sp.add_argument("spec")

    sp = add("random-tree", cmd_random_tree, help="generate a random feeder")
    sp.add_argument("--dist", default="0.5,0.5",
                    help="child-count probabilities for 1,2,... children")
    sp.add_argument("--depth", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--x-range", default="0,200")

    sp = add("sce42", cmd_sce42, help="emit the bundled SCE 42-bus feeder as JSON")
    sp.add_argument("--loading", type=float, default=1.0)
    sp.add_argument("--no-capacity", action="store_true")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (netio.ParseError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
