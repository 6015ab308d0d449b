"""Maintain the benchmark's stored data; run from the root of a checkout.

    python3 perfbench/record.py tree-table
        Rebuild tree_seeds.json: sweep seeds whose two depth-15 trees both
        have TREE_BAND buses (the tree-posa inputs).
    python3 perfbench/record.py refs --seeds 0-19,101 [--workloads chain-posa,...]
        Run one batch per workload and seed and store its outputs in
        refs/<workload>.json, the reference the correctness gate compares
        with.  Invariant failures are printed, never hidden.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

TREE_BAND = (1200, 1250)
TREE_TABLE_SIZE = 24


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def tree_table() -> None:
    from voltgame.topology import DegreeDistribution, random_tree
    import workloads
    dist = DegreeDistribution(workloads.BINARY, max_depth=workloads.TreePosa.DEPTH)
    lo, hi = TREE_BAND
    seeds = []
    candidate = 0
    while len(seeds) < TREE_TABLE_SIZE:
        if all(lo <= random_tree(dist, candidate + workloads.JOB_SEED_STRIDE * rep).n <= hi
               for rep in range(2)):
            seeds.append(candidate)
        candidate += 1
    doc = {"depth": workloads.TreePosa.DEPTH, "dist_probs": workloads.BINARY,
           "repetitions": 2, "buses": list(TREE_BAND), "spec_seeds": seeds}
    workloads.TREE_SEEDS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(seeds)} spec seeds from {candidate} candidates")


def record_refs(names: list[str], seeds: list[int]) -> None:
    import workloads
    for name in names:
        refs = workloads.load_refs(name)
        for seed in seeds:
            workdir = run.SCRATCH / f"record-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                wl, _ = run.set_up(name, seed, workdir, tiny=False)
                calls = workloads.run_calls(wl.argvs())
                verdict = wl.check(calls, None)
                refs[str(seed)] = wl.record(calls)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: {verdict.failed}/{verdict.attempted} failed", flush=True)
            for line in verdict.problems:
                print(f"  FAILED {line}", flush=True)
        workloads.REFS.mkdir(exist_ok=True)
        ordered = dict(sorted(refs.items(), key=lambda kv: int(kv[0])))
        (workloads.REFS / f"{name}.json").write_text(json.dumps(ordered, indent=0) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="what", required=True)
    sub.add_parser("tree-table")
    refs = sub.add_parser("refs")
    refs.add_argument("--seeds", required=True, help="e.g. 0-19,101")
    refs.add_argument("--workloads", default=",".join(
        ["chain-posa", "tree-posa", "sce42-ac", "tree-simulate"]))
    args = p.parse_args(argv)
    run.pin_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    if args.what == "tree-table":
        tree_table()
    else:
        record_refs(args.workloads.split(","), parse_seeds(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
