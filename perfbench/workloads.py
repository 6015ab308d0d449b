"""The four benchmark workloads.

A workload writes its input files from the benchmark seed, lists the
``voltgame`` CLI calls of one batch, checks every operation of a batch
against invariants and a stored reference (the correctness gate), and
replays the calls the CLI makes through the public module functions, one
span per call, for the traced run.  README.md says why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from voltgame import acflow, cli, dynamics, equilibrium, experiments, netio, topology
from voltgame.controls import ControlSpec
from voltgame.sensitivity import build_sensitivity

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
TREE_SEEDS = HERE / "tree_seeds.json"

RTOL = 1e-9              # PosaReport.ordering_ok's tolerance
FIXED_POINT_TOL = 1e-7   # acceptance criterion 6: simulated fixed point vs optimum
SIM_TOL = 1e-10          # default --tol of `voltgame simulate`
SWEEP_TOL = 1e-10        # closed_loop_ac's sweep_tol
JOB_SEED_STRIDE = 7919   # experiments.run_sweep seeds job k with spec.seed + 7919 k
PUBLISHED_X = (0.0, 200.0)
PUBLISHED_Y = (0.0, 100.0)
BINARY = {1: 0.5, 2: 0.5}


@dataclass
class Call:
    """One CLI call of a batch and how it ended."""

    argv: list[str]
    code: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.code == 0


def run_calls(argvs: list[list[str]]) -> list[Call]:
    """Run CLI calls in-process, in order; a raised exception fails that call."""
    calls = []
    for argv in argvs:
        call = Call(argv)
        try:
            call.code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the gate counts it; the batch goes on
            call.error = f"{type(exc).__name__}: {exc}"
        calls.append(call)
    return calls


def call_failure(call: Call) -> str:
    return call.error or f"exit code {call.code}"


@dataclass
class Verdict:
    """Operations checked and failed; one problem line per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def close(got: float, want: float, rtol: float = RTOL) -> bool:
    """ordering_ok's slack: rtol times max(1, |reference|)."""
    return abs(got - want) <= rtol * max(1.0, abs(want))


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.dir = Path(workdir)
        self.tiny = tiny

    def write_inputs(self) -> None:
        raise NotImplementedError

    def argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def record(self, calls: list[Call]) -> list:
        """Reference record of a batch's outputs, one entry per call."""
        raise NotImplementedError

    def check(self, calls: list[Call], ref: list | None) -> Verdict:
        raise NotImplementedError

    def replay(self, tr) -> None:
        """The batch's work through the public functions, one span per call."""
        raise NotImplementedError


# -- sweep workloads -----------------------------------------------------------

IGNORED_COLUMNS = {"iterations", "final_residual"}   # alpha rows are compared by status


def read_sweep_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def ordering_problems(row: dict) -> list[str]:
    """The bound ordering that acceptance criterion 4 asserts."""
    try:
        lo, pm, ru, up, gap = (float(row[k]) for k in
                               ("lower", "posa_max", "refined_upper", "upper", "gap_bound"))
    except (KeyError, TypeError, ValueError):
        return ["bound columns missing or not numbers"]
    if not all(math.isfinite(v) for v in (lo, pm, ru, up, gap)):
        return ["non-finite bound"]
    slack = RTOL * max(1.0, abs(up))
    if (lo <= pm + slack and pm <= ru + slack and ru <= up + slack
            and up - lo <= gap + slack):
        return []
    return [f"bound ordering violated: lower={lo:.17g} posa_max={pm:.17g} "
            f"refined_upper={ru:.17g} upper={up:.17g} gap_bound={gap:.17g}"]


def row_diffs(row: dict, ref: dict) -> list[str]:
    """Columns that differ from the reference row (numbers at RTOL)."""
    out = []
    for key, want in ref.items():
        got = row.get(key)
        if got == want:
            continue
        try:
            ok = close(float(got), float(want))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            out.append(f"{key}={got!r}, reference {want!r}")
    return out


class SweepWorkload(Workload):
    """Workloads made of `voltgame sweep` calls, one per spec file."""

    def specs(self) -> list[dict]:
        raise NotImplementedError

    def jobs(self, spec: dict) -> list[int]:
        """Job seeds (or indices) in the order run_sweep creates them."""
        raise NotImplementedError

    def rows_per_job(self, spec: dict) -> int:
        return 1

    def row_problems(self, spec: dict, row: dict) -> list[str]:
        return ordering_problems(row)

    def write_inputs(self) -> None:
        self.spec_docs = self.specs()
        for k, spec in enumerate(self.spec_docs):
            (self.dir / f"spec{k}.json").write_text(json.dumps(spec, indent=1) + "\n")

    def spec_path(self, k: int) -> Path:
        return self.dir / f"spec{k}.json"

    def out_path(self, k: int) -> Path:
        return self.dir / f"sweep{k}.csv"

    def argvs(self) -> list[list[str]]:
        return [["sweep", str(self.spec_path(k)), "--out", str(self.out_path(k))]
                for k in range(len(self.spec_docs))]

    def rows(self, k: int, call: Call) -> list[dict]:
        return read_sweep_csv(self.out_path(k)) if call.ok else []

    def record(self, calls):
        return [[{c: v for c, v in row.items() if c not in IGNORED_COLUMNS}
                 for row in self.rows(k, call)] for k, call in enumerate(calls)]

    def check(self, calls, ref):
        verdict = Verdict()
        for k, (call, spec) in enumerate(zip(calls, self.spec_docs)):
            expected = len(self.jobs(spec)) * self.rows_per_job(spec)
            rows = self.rows(k, call)
            ref_rows = ref[k] if ref is not None else None
            for i in range(max(expected, len(rows))):
                if i >= len(rows):
                    problems = [call_failure(call) if not call.ok else "row missing"]
                elif i >= expected:
                    problems = ["unexpected extra row"]
                else:
                    problems = self.row_problems(spec, rows[i])
                    if ref_rows is not None:
                        problems += (row_diffs(rows[i], ref_rows[i]) if i < len(ref_rows)
                                     else ["no reference row"])
                verdict.op(f"{self.name} spec{k} row {i}", problems)
        return verdict

    def traced_sweep(self, tr, k: int) -> None:
        """What `voltgame sweep` does, with spans around the experiments calls."""
        with tr.span("cli.sweep"):
            spec = experiments.SweepSpec.from_json(self.spec_path(k).read_text())
            with tr.span("experiments.run_sweep") as counts:
                cpu0 = time.process_time()
                rows = experiments.run_sweep(spec)
                counts["cpu_s"] = time.process_time() - cpu0
                counts["jobs"] = len(self.jobs(self.spec_docs[k]))
            with tr.span("experiments.sweep_csv"):
                text = experiments.sweep_csv(rows)
            self.out_path(k).write_text(text)


def posa_instance(tr, net, ys) -> None:
    with tr.span("topology.validate_tree"):
        topology.validate_tree(net)
    with tr.span("sensitivity.build_sensitivity"):
        S = build_sensitivity(net)
    with tr.span("equilibrium.posa_report"):
        equilibrium.posa_report(S, ys, want_direction=False)


class ChainPosa(SweepWorkload):
    """PoSA bounds on randomized chains: deep root paths, clustered spectrum."""

    name = "chain-posa"

    def specs(self):
        sizes = [20, 40, 60] if self.tiny else [200, 1000, 2000]
        return [{"kind": "chain-size", "sizes": sizes, "seed": self.seed, "repetitions": 1,
                 "x_range": list(PUBLISHED_X), "y_range": list(PUBLISHED_Y)}]

    def jobs(self, spec):
        return [spec["seed"] + JOB_SEED_STRIDE * idx for idx in range(len(spec["sizes"]))]

    def replay(self, tr):
        for k, spec in enumerate(self.spec_docs):
            tr.instance = f"spec{k}"
            self.traced_sweep(tr, k)
            (xlo, xhi), (ylo, yhi) = spec["x_range"], spec["y_range"]
            for n, seed in zip(spec["sizes"], self.jobs(spec)):
                tr.instance = f"spec{k}/n={n}"
                rng = np.random.default_rng(seed)      # the draws of the chain-size job
                xs = xhi - (xhi - xlo) * rng.random(n)
                ys = yhi - (yhi - ylo) * rng.random(n)
                with tr.span("topology.generate"):
                    net = topology.chain_network(xs)
                posa_instance(tr, net, ys)


class TreePosa(SweepWorkload):
    """PoSA bounds on depth-15 binary random trees: dense spectral work dominates."""

    name = "tree-posa"
    DEPTH = 15
    SPECS = 3

    def specs(self):
        if self.tiny:
            depth, seeds = 6, [self.seed * self.SPECS + j for j in range(self.SPECS)]
        else:
            # Spec seeds whose two trees both have 1200..1250 buses, so that
            # every seed gives the same amount of work (see README.md).
            table = json.loads(TREE_SEEDS.read_text())["spec_seeds"]
            picks = np.random.default_rng(self.seed).choice(len(table), self.SPECS, replace=False)
            depth, seeds = self.DEPTH, [table[int(i)] for i in picks]
        return [{"kind": "random-tree-depth", "depths": [depth], "seed": s, "repetitions": 2,
                 "dist_probs": {str(c): p for c, p in BINARY.items()},
                 "x_range": list(PUBLISHED_X), "y_range": list(PUBLISHED_Y)} for s in seeds]

    def jobs(self, spec):
        return [spec["seed"] + JOB_SEED_STRIDE * rep for rep in range(spec["repetitions"])]

    def replay(self, tr):
        for k, spec in enumerate(self.spec_docs):
            tr.instance = f"spec{k}"
            self.traced_sweep(tr, k)
            dist = topology.DegreeDistribution(BINARY, max_depth=spec["depths"][0],
                                               x_range=tuple(spec["x_range"]),
                                               y_range=tuple(spec["y_range"]))
            for seed in self.jobs(spec):
                tr.instance = f"spec{k}/seed={seed}"
                with tr.span("topology.generate"):
                    net, ys = topology.random_instance(dist, seed)
                posa_instance(tr, net, ys)


class Sce42Ac(SweepWorkload):
    """Acceptance criterion 9's sweep pair on the bundled SCE 42-bus feeder."""

    name = "sce42-ac"
    # The taking law's certificate crosses 1 near alpha = 27.4 on this feeder.
    # Slopes are drawn away from it, so each draw keeps the same number of
    # loops that run to max_iter.
    LOW_ALPHAS = (4.0, 20.0)
    HIGH_ALPHAS = (30.0, 40.0)
    ALPHA_SPLIT = 25.0
    DELTA = 0.02

    def specs(self):
        rng = np.random.default_rng(self.seed)
        n_y, n_low, n_high = (2, 2, 0) if self.tiny else (8, 4, 4)
        y_values = np.sort(0.02 * 16.0 ** rng.random(n_y))       # log-uniform on [0.02, 0.32)
        alphas = np.sort(np.concatenate([rng.uniform(*self.LOW_ALPHAS, n_low),
                                         rng.uniform(*self.HIGH_ALPHAS, n_high)]))
        return [{"kind": "cost-coefficient", "y_values": y_values.tolist(), "delta": self.DELTA},
                {"kind": "alpha", "alphas": alphas.tolist(), "delta": self.DELTA, "ac": True}]

    def jobs(self, spec):
        return list(range(len(spec["y_values"] if spec["kind"] == "cost-coefficient"
                              else spec["alphas"])))

    def rows_per_job(self, spec):
        return 2 if spec["kind"] == "alpha" else 1

    def row_problems(self, spec, row):
        if spec["kind"] == "cost-coefficient":
            return ordering_problems(row)
        try:
            alpha = float(row["alpha"])
        except (KeyError, ValueError):
            return ["alpha column missing"]
        want = ("converged" if alpha < self.ALPHA_SPLIT or row.get("law") == "anticipating"
                else "max_iter")
        return [] if row.get("status") == want else [
            f"{row.get('law')} law at alpha={alpha}: status {row.get('status')!r}, expected {want!r}"]

    def replay(self, tr):
        data = experiments.load_sce42()
        net = data.net
        for k, spec in enumerate(self.spec_docs):
            tr.instance = f"spec{k}"
            self.traced_sweep(tr, k)
            if spec["kind"] == "cost-coefficient":
                for y in spec["y_values"]:
                    tr.instance = f"spec{k}/y={y}"
                    S_act, vt_act = restricted_model(tr, net)
                    with tr.span("equilibrium.posa_report"):
                        equilibrium.posa_report(S_act, np.full(S_act.n, y), vt=vt_act)
                    ctrl = ControlSpec(np.full(S_act.n, 1.0 / y), np.full(S_act.n, spec["delta"]),
                                       data.ctrl.q_min, data.ctrl.q_max)
                    for objective in ("F", "W"):    # posa_constrained
                        with tr.span("equilibrium.solve_iterative") as counts:
                            res = equilibrium.solve_iterative(objective, S_act, ctrl, vt_act)
                            counts["sweeps"] = res.iterations
                continue
            for alpha in spec["alphas"]:
                tr.instance = f"spec{k}/alpha={alpha}"
                S_act, vt_act = restricted_model(tr, net)
                ctrl = ControlSpec(np.full(S_act.n, alpha), np.full(S_act.n, spec["delta"]),
                                   data.ctrl.q_min, data.ctrl.q_max)
                with tr.span("dynamics.condition_report"):
                    dynamics.condition_report(S_act, ctrl)
                for law in ("taking", "anticipating"):
                    trace = traced_closed_loop(tr, net, S_act, ctrl, law, max_iter=400)
                    probe_sweeps(tr, net, trace)


def restricted_model(tr, net):
    """experiments.restricted_model, with its sensitivity build in a span of its own."""
    with tr.span("topology.validate_tree"):
        topology.validate_tree(net)
    with tr.span("sensitivity.build_sensitivity"):
        S = build_sensitivity(net)
    with tr.span("experiments.restricted_model"):
        S_act, vt_act, _ = experiments.restricted_model(net, S)
    return S_act, vt_act


def traced_closed_loop(tr, net, S_act, ctrl, law, **kwargs):
    """closed_loop_ac in a span; None when the sweep inside it fails."""
    with tr.span("acflow.closed_loop_ac") as counts:
        try:
            trace = acflow.closed_loop_ac(net, S_act, ctrl, law, **kwargs)
        except (acflow.NoConvergenceError, acflow.VoltageCollapseError):
            counts.update(outer_steps=0, converged=0)
            return None
        counts.update(outer_steps=trace.iterations, converged=int(trace.converged))
    return trace


def injections(net, q_act):
    """Bus injections (p, q) with the actuators' reactive injections q_act."""
    p = np.array([b.p_g - b.p_c for b in net.buses])
    q = np.array([-b.q_c for b in net.buses])
    q[net.actuator_indices()] += q_act
    return p, q


def probe_sweeps(tr, net, trace) -> None:
    """sweep_solve at the zero-control point and at the loop's final injections."""
    points = [np.zeros(net.actuator_indices().size)]
    if trace is not None:
        points.append(trace.q_final)
    for q_act in points:
        p, q = injections(net, q_act)
        with tr.span("acflow.sweep_solve") as counts:
            try:
                counts["sweeps"] = acflow.sweep_solve(net, p, q, tol=SWEEP_TOL).iterations
            except (acflow.NoConvergenceError, acflow.VoltageCollapseError):
                counts["sweeps"] = 0


# -- tree-simulate ---------------------------------------------------------------

def q_digest(q) -> dict:
    """A few entries of an injection vector, enough to pin it at FIXED_POINT_TOL."""
    q = np.asarray(q, dtype=float)
    return {"n": int(q.size), "min": float(q.min()), "max": float(q.max()),
            "sample": q[::TreeSimulate.DIGEST_STRIDE].tolist()}


def digest_diffs(got: dict, want: dict) -> list[str]:
    if got["n"] != want["n"]:
        return [f"{got['n']} injections, reference {want['n']}"]
    pairs = [(got["min"], want["min"]), (got["max"], want["max"])]
    pairs += list(zip(got["sample"], want["sample"]))
    worst = max(abs(a - b) for a, b in pairs)
    return [] if worst <= FIXED_POINT_TOL else [f"injections differ from reference by {worst:.3e}"]


def read_trace_tail(path: Path) -> tuple[float, np.ndarray]:
    """Last residual and last injection row of a `voltgame simulate` trace CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, last = rows[0], rows[-1]
    q = [float(v) for col, v in zip(header, last) if col.startswith("q_")]
    return float(last[1]) if last[1] else math.nan, np.array(q)


def subtree_sums(parent, values) -> np.ndarray:
    """Per bus, the sum of values over the bus and every bus below it."""
    out = np.array(values, dtype=float)
    for k in range(len(parent), 0, -1):
        if parent[k - 1]:
            out[parent[k - 1] - 1] += out[k - 1]
    return out


def path_sums(parent, values) -> np.ndarray:
    """Per bus, the sum of values over the lines of its path to the root."""
    out = np.array(values, dtype=float)
    for k in range(1, len(parent) + 1):
        if parent[k - 1]:
            out[k - 1] += out[parent[k - 1] - 1]
    return out


class TreeSimulate(Workload):
    """Closed-loop runs and equilibria on a 1199-bus depth-15 binary tree."""

    name = "tree-simulate"
    SHAPE_SEED = 42          # random_tree seed 42 at depth 15 gives 1199 buses
    DEPTH = 15
    X_MAX = 0.04             # line reactance drawn on (0, X_MAX] per unit
    R_OVER_X = 0.5
    P_MEAN = 5e-4            # bus load drawn on (0, 2 P_MEAN] per unit, then scaled
    Q_OVER_P = math.tan(math.acos(0.9))
    MAX_DROP = 0.029         # linearised voltage drop to the farthest bus after scaling
    DEADBAND_MAX = 0.02
    CONTRACTION = 0.6        # spectral radius of the taking law's linear iteration
    LAWS = ("taking", "anticipating")
    DIGEST_STRIDE = 50

    def write_inputs(self):
        shape = topology.random_tree(
            topology.DegreeDistribution(BINARY, max_depth=6 if self.tiny else self.DEPTH),
            self.SHAPE_SEED)
        n = shape.n
        rng = np.random.default_rng(self.seed)
        x = self.X_MAX * (1.0 - rng.random(n))
        p_c = 2.0 * self.P_MEAN * (1.0 - rng.random(n))
        q_lim = self.P_MEAN * (0.5 + 1.5 * rng.random(n))
        delta = self.DEADBAND_MAX * rng.random(n)
        # Line e is indexed by its child bus; random_tree numbers every child
        # after its parent.
        parent = shape.parent
        # Scale the loads so that the linearised drop to the farthest bus,
        # the sum over its root path of r_e P_e + x_e Q_e with P_e, Q_e the
        # load below line e, is MAX_DROP on every draw.  The number of AC
        # sweeps per power flow follows this loading, so every seed then
        # gives about the same AC work (README.md).
        drop = path_sums(parent, x * (self.R_OVER_X + self.Q_OVER_P) * subtree_sums(parent, p_c))
        p_c *= self.MAX_DROP / drop.max()
        lines = tuple(topology.Line(ln.from_node, ln.to_node, self.R_OVER_X * x[ln.to_node - 1],
                                    x[ln.to_node - 1]) for ln in shape.lines)
        buses = tuple(topology.BusData(p_c=p_c[i], q_c=p_c[i] * self.Q_OVER_P,
                                       q_min=-q_lim[i], q_max=q_lim[i]) for i in range(n))
        self.net = topology.RadialNetwork(n=n, lines=lines, buses=buses)
        # Row sums of X: sum over the root path of x_e times the buses below e.
        row_sum = path_sums(parent, x * subtree_sums(parent, np.ones(n)))
        # With alpha_i = c / row_sum_i every row of diag(alpha) X sums to c, so
        # by Perron-Frobenius the taking iteration contracts at rate c on
        # every drawn feeder.
        self.ctrl = ControlSpec(self.CONTRACTION / row_sum, delta, -q_lim, q_lim)
        self.net_path.write_text(netio.save_network_json(self.net, self.ctrl) + "\n")

    @property
    def net_path(self) -> Path:
        return self.dir / "tree.json"

    def outputs(self, law: str) -> dict[str, Path]:
        return {"simulate": self.dir / f"simulate-{law}.csv",
                "equilibrium": self.dir / f"equilibrium-{law}.json",
                "simulate-ac": self.dir / f"simulate-ac-{law}.csv"}

    def argvs(self):
        net = str(self.net_path)
        out = []
        for law in self.LAWS:
            paths = self.outputs(law)
            out += [["simulate", net, "--law", law, "--voltages", "--out", str(paths["simulate"])],
                    ["equilibrium", net, "--law", law, "--out", str(paths["equilibrium"])],
                    ["simulate", net, "--law", law, "--ac", "--out", str(paths["simulate-ac"])]]
        return out

    def _results(self, calls):
        """Per law and command: (call, parsed output or None)."""
        it = iter(calls)
        out = {}
        for law in self.LAWS:
            for kind, path in self.outputs(law).items():
                call = next(it)
                parsed = None
                if call.ok:
                    parsed = (json.loads(path.read_text()) if kind == "equilibrium"
                              else read_trace_tail(path))
                out[law, kind] = (call, parsed)
        return out

    def record(self, calls):
        rec = []
        for (law, kind), (_, parsed) in self._results(calls).items():
            if parsed is None:
                rec.append(None)
            elif kind == "equilibrium":
                rec.append({"F": parsed["F"], "W": parsed.get("W"), "q": q_digest(parsed["q"])})
            else:
                rec.append({"q": q_digest(parsed[1])})
        return rec

    def check(self, calls, ref):
        verdict = Verdict()
        results = self._results(calls)
        for k, ((law, kind), (call, parsed)) in enumerate(results.items()):
            label = f"{self.name} {kind} --law {law}"
            if parsed is None:
                verdict.op(label, [call_failure(call)])
                continue
            problems = []
            if kind == "equilibrium":
                q = np.array(parsed["q"], dtype=float)
                if not (np.all(np.isfinite(q)) and np.all(q >= self.ctrl.q_min)
                        and np.all(q <= self.ctrl.q_max)):
                    problems.append("equilibrium outside the reactive boxes")
            else:
                residual, q = parsed
                if not residual < SIM_TOL:
                    problems.append(f"last step residual {residual:.3e}")
            if kind == "simulate":
                eq = results[law, "equilibrium"][1]
                if eq is None:
                    problems.append("no equilibrium to compare with")
                else:
                    gap = float(np.max(np.abs(q - np.array(eq["q"]))))
                    if not gap <= FIXED_POINT_TOL:
                        problems.append(f"fixed point differs from the equilibrium by {gap:.3e}")
            if kind == "simulate-ac":
                problems += self.ac_state_problems(q)
            want = ref[k] if ref is not None else None
            if ref is not None:
                if want is None:
                    problems.append("reference run failed here")
                else:
                    problems += digest_diffs(q_digest(q), want["q"])
                    for key in ("F", "W"):
                        if want.get(key) is not None and not close(parsed[key], want[key]):
                            problems.append(f"{key}={parsed[key]!r}, reference {want[key]!r}")
            verdict.op(label, problems)
        return verdict

    def ac_state_problems(self, q) -> list[str]:
        """The branch-flow equations hold at the loop's final injections."""
        p_inj, q_inj = injections(self.net, q)
        try:
            state = acflow.sweep_solve(self.net, p_inj, q_inj, tol=SWEEP_TOL)
        except (acflow.NoConvergenceError, acflow.VoltageCollapseError) as exc:
            return [f"no AC state at the final injections: {exc}"]
        residual = acflow.equation_residuals(self.net, p_inj, q_inj, state)
        return [] if residual < SWEEP_TOL else [f"AC equation residual {residual:.3e}"]

    def replay(self, tr):
        for law in self.LAWS:
            paths = self.outputs(law)
            tr.instance = f"{law}/simulate"
            with tr.span("cli.simulate"):
                net, ctrl, S_act, vt_act = self.load_model(tr)
                step = (dynamics.taking_stepper if law == "taking"
                        else dynamics.anticipating_stepper)(S_act, ctrl, vt_act)
                with tr.span("dynamics.run") as counts:
                    trace = dynamics.run(step, np.zeros(S_act.n), tol=SIM_TOL,
                                         voltage_fn=lambda q: dynamics.voltage_from_q(S_act, q, vt_act))
                    counts["steps"] = trace.iterations
                traced_dump(tr, trace, paths["simulate"], with_voltages=True)

            tr.instance = f"{law}/equilibrium"
            with tr.span("cli.equilibrium"):
                net, ctrl, S_act, vt_act = self.load_model(tr)
                with tr.span("equilibrium.solve_iterative") as counts:
                    res = equilibrium.solve_iterative("F" if law == "taking" else "W",
                                                      S_act, ctrl, vt_act)
                    counts["sweeps"] = res.iterations
                q = res.q_star if law == "taking" else res.q_a
                F = res.F_value if law == "taking" else res.F_at_qa
                paths["equilibrium"].write_text(
                    json.dumps({"law": law, "solver": res.solver, "q": q.tolist(), "F": F}) + "\n")

            tr.instance = f"{law}/simulate-ac"
            with tr.span("cli.simulate"):
                net, ctrl, S_act, vt_act = self.load_model(tr)
                trace = traced_closed_loop(tr, net, S_act, ctrl, law, tol=SIM_TOL,
                                           max_iter=dynamics.DEFAULT_MAX_ITER)
                if trace is not None:
                    traced_dump(tr, trace, paths["simulate-ac"], with_voltages=False)
            probe_sweeps(tr, net, trace)

    def load_model(self, tr):
        """The model set-up `voltgame simulate` and `voltgame equilibrium` share."""
        with tr.span("netio.load_network_json"):
            net, ctrl = netio.load_network_json(str(self.net_path))
        return (net, ctrl) + restricted_model(tr, net)


def traced_dump(tr, trace, path: Path, with_voltages: bool) -> None:
    with tr.span("netio.dump_trace_csv") as counts:
        text = netio.dump_trace_csv(trace, with_voltages=with_voltages)
        counts["bytes"] = len(text.encode())
    path.write_text(text)


WORKLOADS = {cls.name: cls for cls in (ChainPosa, TreePosa, Sce42Ac, TreeSimulate)}
