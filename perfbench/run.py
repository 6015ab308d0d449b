"""Run one voltgame benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tree-posa --seed 0 --seconds 50 --trace 0

Run it from the root of a checkout; the program is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the settings
and the environment.  ``--trace 0`` reports the end-to-end metrics, and
``--trace 1`` the per-layer metrics of a traced run.  README.md has the
metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench"
SETUP_SAMPLES = 5
WORKLOADS = ("chain-posa", "tree-posa", "sce42-ac", "tree-simulate")
THREAD_VARS = ("VOLTGAME_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metric -> (span name, what to read from its totals, unit)
PER_LAYER = {
    "topology.generate.s": ("topology.generate", "self_s", "s"),
    "topology.validate_tree.s": ("topology.validate_tree", "self_s", "s"),
    "sensitivity.build_sensitivity.s": ("sensitivity.build_sensitivity", "self_s", "s"),
    "equilibrium.posa_report.calls": ("equilibrium.posa_report", "calls", "count"),
    "equilibrium.posa_report.s": ("equilibrium.posa_report", "self_s", "s"),
    "equilibrium.solve_iterative.s": ("equilibrium.solve_iterative", "self_s", "s"),
    "equilibrium.solve_iterative.sweeps": ("equilibrium.solve_iterative", "sweeps", "count"),
    "dynamics.run.s": ("dynamics.run", "self_s", "s"),
    "dynamics.run.steps": ("dynamics.run", "steps", "count"),
    "acflow.closed_loop_ac.s": ("acflow.closed_loop_ac", "self_s", "s"),
    "acflow.closed_loop_ac.outer_steps": ("acflow.closed_loop_ac", "outer_steps", "count"),
    "acflow.closed_loop_ac.converged_ratio": ("acflow.closed_loop_ac", "converged", "ratio"),
    "acflow.sweep_solve.calls": ("acflow.sweep_solve", "calls", "count"),
    "acflow.sweep_solve.s": ("acflow.sweep_solve", "self_s", "s"),
    "acflow.sweep_solve.sweeps": ("acflow.sweep_solve", "sweeps", "count"),
    "experiments.run_sweep.s": ("experiments.run_sweep", "self_s", "s"),
    "experiments.run_sweep.cpu_s": ("experiments.run_sweep", "cpu_s", "s"),
    "experiments.jobs": ("experiments.run_sweep", "jobs", "count"),
    "experiments.sweep_csv.s": ("experiments.sweep_csv", "self_s", "s"),
    "netio.load_network_json.s": ("netio.load_network_json", "self_s", "s"),
    "netio.dump_trace_csv.s": ("netio.dump_trace_csv", "self_s", "s"),
    "netio.dump_trace_csv.bytes": ("netio.dump_trace_csv", "bytes", "bytes"),
    "cli.sweep.s": ("cli.sweep", "self_s", "s"),
    "cli.simulate.s": ("cli.simulate", "self_s", "s"),
    "cli.equilibrium.s": ("cli.equilibrium", "self_s", "s"),
}


def pin_threads() -> None:
    """One pool worker per usable core and one BLAS thread each; call before numpy loads."""
    os.environ["VOLTGAME_THREADS"] = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS[1:]:
        os.environ[var] = "1"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "commit": git_commit()}


def set_up(name: str, seed: int, workdir: Path, tiny: bool):
    """Import voltgame and write the workload's inputs; returns it and the seconds taken."""
    t0 = time.perf_counter()
    import workloads  # imports voltgame
    wl = workloads.WORKLOADS[name](seed, workdir, tiny)
    wl.write_inputs()
    return wl, time.perf_counter() - t0


def setup_probe(args) -> float:
    """One more set-up, in a fresh process of its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def measure(wl, ref, seconds: float, setup_samples: list[float]):
    """End-to-end metrics: batches back to back until the next would overrun."""
    from workloads import Verdict, run_calls
    verdict = Verdict()
    walls = []
    argvs = wl.argvs()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls = run_calls(argvs)
        walls.append(time.perf_counter() - t0)
        verdict.add(wl.check(calls, ref))
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - verdict.failed / verdict.attempted, "ratio"),
    }
    return verdict, metrics, {"wall_s": walls, "setup_s": setup_samples}


def traced(wl, ref, trace_path: Path):
    """Per-layer metrics: a checked CLI batch, then the replay untraced and traced."""
    from spans import Tracer, layer_totals, read_spans
    from workloads import run_calls
    verdict = wl.check(run_calls(wl.argvs()), ref)
    walls = {}
    for enabled in (False, True):
        tracer = Tracer(enabled)
        t0 = time.perf_counter()
        wl.replay(tracer)
        walls[enabled] = time.perf_counter() - t0
    tracer.dump(trace_path)
    totals = layer_totals(read_spans(trace_path))
    metrics = {}
    for metric, (span, field, unit) in PER_LAYER.items():
        agg = totals.get(span, {"self_s": 0.0, "calls": 0, "counts": {}})
        if field in ("self_s", "calls"):
            value = agg[field]
        elif unit == "ratio":
            value = agg["counts"].get(field, 0) / agg["calls"] if agg["calls"] else 0.0
        else:
            value = agg["counts"].get(field, 0)
        metrics[metric] = (value, unit)
    metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
    return verdict, metrics, {"replay_s": {"untraced": walls[False], "traced": walls[True]},
                              "spans": str(trace_path.relative_to(ROOT))}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measurement budget; batches run until the next would overrun it")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes; no reference")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "voltgame" / "__init__.py").is_file():
        print(f"error: no src/voltgame under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = SCRATCH / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, first_setup = set_up(args.workload, args.seed, workdir, args.tiny)
        if args.setup_probe:
            print(first_setup)
            return 0
        import workloads
        ref = None if args.tiny else workloads.load_refs(args.workload).get(str(args.seed))
        if args.trace:
            trace_path = SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            verdict, metrics, detail = traced(wl, ref, trace_path)
        else:
            setups = [first_setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
            verdict, metrics, detail = measure(wl, ref, args.seconds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in verdict.problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "tiny": args.tiny, "reference": "stored" if ref is not None else "absent",
                      "env": environment(), **detail}))
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
