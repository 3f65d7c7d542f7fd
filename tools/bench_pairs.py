#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarized as a BENCH_*.json record.

Run from the repository root of the change, with the parent commit
checked out elsewhere:

    git clone -q . ../parent && git -C ../parent checkout -q <commit>
    python3 tools/bench_pairs.py --parent ../parent --out BENCH_N.json --note "..."

For each workload, pair i of PAIRS runs `python3 perfbench/run.py --workload W --seed 1
--seconds 35 --trace 0` once in each tree, one run at a time, the parent
first in odd pairs and the change first in even ones.  The record holds
every run's final JSON line ("pairs"), per-metric medians, inclusive
quartiles, ranges and the count of pairs the change wins ("summary"),
30 alternating pairs of fresh-interpreter `import numpy, jpac` times
("import_check"), and one seed-1 `--trace 1` run per tree and workload
("trace": the per-layer metrics named in TRACE_METRICS).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
PAIRS = 10
SECONDS = 35
TRACE_METRICS = ("admission.run_s", "network.restrict_s", "admission.admissible_calls", "kernel.iterations")
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT = "import time; t = time.perf_counter(); import numpy, jpac; print(time.perf_counter() - t)"


def run(tree: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env={**os.environ, **THREADS})
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False}
    return {**out, "exit": proc.returncode}


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "iqr": np.percentile(values, [25, 75]).tolist(),
            "range": [min(values), max(values)]}


def summarize(pairs: list[dict]) -> dict:
    ok = [p for p in pairs if p["parent"].get("metrics") and p["change"].get("metrics")]
    failed = sum(not p[side].get("correct") for p in pairs for side in ("parent", "change"))
    out = {"pairs": len(pairs), "failed_runs": failed}
    for name, better in BETTER.items() if ok else ():
        parent = [p["parent"]["metrics"][name]["value"] for p in ok]
        change = [p["change"]["metrics"][name]["value"] for p in ok]
        a, b = spread(parent), spread(change)
        wins = sum((c > q) if better == "higher" else (c < q) for q, c in zip(parent, change))
        out[name] = {"parent_median": a["median"], "change_median": b["median"],
                     "parent_iqr": a["iqr"], "change_iqr": b["iqr"],
                     "parent_range": a["range"], "change_range": b["range"],
                     "ratio_of_medians": b["median"] / a["median"] if a["median"] else None,
                     "change_better_pairs": wins, "equal_pairs": sum(q == c for q, c in zip(parent, change))}
    return out


def import_check(trees: dict, pairs: int) -> dict:
    times = {side: [] for side in trees}
    for i in range(pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            env = {**os.environ, **THREADS, "PYTHONPATH": str(trees[side] / "src")}
            proc = subprocess.run([sys.executable, "-c", IMPORT], capture_output=True, text=True, env=env,
                                  check=True)
            times[side].append(float(proc.stdout))
    out = {"what": f"seconds for 'import numpy, jpac' in a fresh interpreter, {pairs} alternating pairs, "
                   "OMP_NUM_THREADS=1"}
    for side, values in times.items():
        s = spread(values)
        out[side] = {"min": round(min(values), 4), "median": round(s["median"], 4),
                     "iqr": [round(v, 4) for v in s["iqr"]]}
    out["change_faster_pairs"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    rev = subprocess.run(["git", "-C", str(trees["parent"]), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    record = {
        "note": args.note,
        "command": f"python3 perfbench/run.py --workload W --seed 1 --seconds {SECONDS} --trace 0",
        "parent": rev,
        "order": "alternating parent/change within each pair ('first' names the side run first), "
                 "one run at a time",
        "environment": {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
                        "threads": "OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=MKL_NUM_THREADS=1"},
        "summary": {},
        "import_check": import_check(trees, 30),
        "trace": {},
        "pairs": [],
    }
    for workload in WORKLOADS:
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": 1, "pair": i + 1, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], workload, 0)
                print(workload, i + 1, side, pair[side].get("metrics", {}).get("instances_per_s"), flush=True)
            pairs.append(pair)
        record["pairs"] += pairs
        record["summary"][workload] = summarize(pairs)
        record["trace"][workload] = {}
        for side in ("parent", "change"):
            traced = run(trees[side], workload, 1)
            metrics = traced.get("metrics", {})
            record["trace"][workload][side] = {"correct": traced.get("correct"), **{
                name: metrics[name]["value"] for name in TRACE_METRICS if name in metrics}}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
