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
("import_check"), and TRACE_RUNS alternating seed-1 `--trace 1` runs per
tree and workload ("trace": the median and range of each per-layer metric
named in TRACE_METRICS; one traced run is too noisy to show a change).  A
timing metric whose parent and change ranges overlap is marked "resolved":
false, since identical code reads up to about 20% apart between traced runs;
the counts are exact.

Every subprocess has a timeout.  A perfbench run that passes RUN_TIMEOUT_S
is killed and recorded as a failed run with "exit": "timeout"; an import
pair with a side past IMPORT_TIMEOUT_S is left out of the import check
and counted in its "timed_out_pairs".
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
TRACE_RUNS = 5
SECONDS = 35
TRACE_METRICS = ("admission.run_s", "network.restrict_s", "admission.admissible_calls", "kernel.iterations",
                 "kernel.ms_per_step", "oracle.enumerate_s")
TRACE_COUNTS = ("admission.admissible_calls", "kernel.iterations")   # the rest are timings
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT = "import time; t = time.perf_counter(); import numpy, jpac; print(time.perf_counter() - t)"
RUN_TIMEOUT_S = 10 * SECONDS    # a healthy run takes SECONDS plus one pool pass
IMPORT_TIMEOUT_S = 60
ORDER = (("parent", "change"), ("change", "parent"))   # run i goes in ORDER[i % 2]


def run(tree: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env={**os.environ, **THREADS},
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "exit": "timeout"}
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


def import_seconds(tree: Path) -> float | None:
    """One fresh-interpreter import time of numpy and the tree's jpac; None past IMPORT_TIMEOUT_S."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src")}
    try:
        proc = subprocess.run([sys.executable, "-c", IMPORT], capture_output=True, text=True, env=env,
                              check=True, timeout=IMPORT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return float(proc.stdout)


def import_check(trees: dict, pairs: int) -> dict:
    times = {side: [] for side in trees}
    timed_out = 0
    for i in range(pairs):
        pair = {side: import_seconds(trees[side]) for side in ORDER[i % 2]}
        if None in pair.values():
            timed_out += 1
            continue
        for side, value in pair.items():
            times[side].append(value)
    out = {"what": f"seconds for 'import numpy, jpac' in a fresh interpreter, {pairs} alternating pairs, "
                   "OMP_NUM_THREADS=1", "timed_out_pairs": timed_out}
    for side, values in times.items() if timed_out < pairs else ():
        s = spread(values)
        out[side] = {"min": round(min(values), 4), "median": round(s["median"], 4),
                     "iqr": [round(v, 4) for v in s["iqr"]]}
    out["change_faster_pairs"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return out


def trace_check(trees: dict, workload: str) -> dict:
    """TRACE_RUNS alternating `--trace 1` runs per tree: each TRACE_METRICS value as median and range.

    Each timing metric also gets "resolved": whether the two sides' ranges
    are disjoint.
    """
    traced = {side: [] for side in trees}
    for i in range(TRACE_RUNS):
        for side in ORDER[i % 2]:
            traced[side].append(run(trees[side], workload, 1))
    out = {}
    for side, runs in traced.items():
        out[side] = {"runs": len(runs), "correct_runs": sum(bool(r.get("correct")) for r in runs)}
        for name in TRACE_METRICS:
            values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
            if values:
                out[side][name] = {"median": statistics.median(values), "range": [min(values), max(values)]}
    for name in TRACE_METRICS:
        if name in TRACE_COUNTS or not all(name in out[side] for side in trees):
            continue
        (lo_a, hi_a), (lo_b, hi_b) = (out[side][name]["range"] for side in trees)
        resolved = hi_a < lo_b or hi_b < lo_a
        for side in trees:
            out[side][name]["resolved"] = resolved
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
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": len(os.sched_getaffinity(0)),
                        "threads": "OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=MKL_NUM_THREADS=1"},
        "summary": {},
        "import_check": import_check(trees, 30),
        "trace": {},
        "pairs": [],
    }
    for workload in WORKLOADS:
        pairs = []
        for i in range(PAIRS):
            pair = {"workload": workload, "seed": 1, "pair": i + 1, "first": ORDER[i % 2][0]}
            for side in ORDER[i % 2]:
                pair[side] = run(trees[side], workload, 0)
                print(workload, i + 1, side, pair[side].get("metrics", {}).get("instances_per_s"), flush=True)
            pairs.append(pair)
        record["pairs"] += pairs
        record["summary"][workload] = summarize(pairs)
        record["trace"][workload] = trace_check(trees, workload)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
