"""The benchmark's own tests, at tiny sizes; run from the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = result_line(bench(workload, trace))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_refuses_to_run_without_the_program(self):
        bare = run.SCRATCH / f"bare-{os.getpid()}"
        try:
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = bench("chain-posa", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        from spans import self_times
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
            {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},    # overlaps span 1
            {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},   # runs past its parent
            {"id": 4, "parent": 2, "start": 2.5, "end": 3.5},
        ]
        self.assertEqual(self_times(spans), {0: 5.0, 1: 2.0, 2: 2.0, 3: 3.0, 4: 1.0})

    def test_traced_self_times_are_within_their_spans(self):
        from spans import read_spans, self_times
        result_line(bench("tree-simulate", 1))
        spans = read_spans(run.SCRATCH / "traces" / "tree-simulate-seed3.jsonl")
        by_id = {rec["id"]: rec for rec in spans}
        self.assertTrue(any(rec["parent"] is not None for rec in spans))
        for span_id, self_s in self_times(spans).items():
            rec = by_id[span_id]
            self.assertGreaterEqual(self_s, 0.0)
            self.assertLessEqual(self_s, rec["end"] - rec["start"])
            if rec["parent"] is not None:
                parent = by_id[rec["parent"]]
                self.assertLessEqual(self_s, parent["end"] - parent["start"])


class GateTest(unittest.TestCase):
    """A perturbed reference value is counted as a failed operation."""

    @classmethod
    def setUpClass(cls):
        run.pin_threads()
        sys.path.insert(0, str(run.ROOT / "src"))

    def gate(self, name: str, perturb) -> tuple[int, int]:
        import workloads
        workdir = run.SCRATCH / f"gate-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            wl = workloads.WORKLOADS[name](3, workdir, tiny=True)
            wl.write_inputs()
            calls = workloads.run_calls(wl.argvs())
            ref = wl.record(calls)
            clean = wl.check(calls, ref)
            perturb(ref)
            return clean.failed, wl.check(calls, ref).failed
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    @staticmethod
    def nudge(value):
        return float(value) * (1 + 1e-6) + 1e-6

    def test_sweep_row(self):
        def perturb(ref):
            ref[0][1]["posa_max"] = repr(self.nudge(ref[0][1]["posa_max"]))
        self.assertEqual(self.gate("chain-posa", perturb), (0, 1))

    def test_alpha_status(self):
        def perturb(ref):
            ref[1][0]["status"] = "max_iter"
        self.assertEqual(self.gate("sce42-ac", perturb), (0, 1))

    def test_equilibrium_value(self):
        def perturb(ref):
            ref[1]["F"] = self.nudge(ref[1]["F"])
        self.assertEqual(self.gate("tree-simulate", perturb), (0, 1))


if __name__ == "__main__":
    unittest.main(verbosity=2)
