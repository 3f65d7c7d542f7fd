#!/usr/bin/env python3
"""sha256 of the benchmark pools' answers, to show that a change keeps them byte-identical.

Run from the repository root:

    python3 tools/answer_hashes.py                     # seeds 1 2 3, all workloads
    python3 tools/answer_hashes.py --seeds 1 --per-instance
    python3 tools/answer_hashes.py --experiment CONFIG.json ...

Each pool is drawn and solved exactly as perfbench/run.py draws and solves
it (the script is imported, not changed).  One hash covers, in pool order:

- deflate-dense and deflate-sparse: the `to_json()` of each `run_nlpd` and
  `run_lqmd` result the workload runs;
- compare-k10: the `EnumerationResult` JSON, then for lq and l1 the bytes
  of x and the JSON of [support, revalidated support count].

Each output line is `<workload> seed <seed> <sha256>`; --per-instance adds
one `<workload> seed <seed> instance <i> <sha256>` line per pool instance,
over that instance's answers alone, before its pool's line.

--experiment runs each `jpac experiment` config file in place of the pools
and prints `<config> rows <sha256>` and `<config> summary <sha256>`: the
hashes of its rows CSV, with `runtime_ms` blanked, and of its summary CSV.
The config's output_path is ignored; nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

# Loaded first: the script pins the BLAS threads before numpy is imported.
RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench   # its dataclasses look their module up here
_spec.loader.exec_module(bench)

import numpy as np  # noqa: E402
from jpac import harness  # noqa: E402


def answer_parts(workload: str, inst) -> list[bytes]:
    """The hashed bytes of one instance's answers, in order."""
    out = bench.WORKLOADS[workload].solve(inst)
    if workload == "compare-k10":
        parts = [out["exact"].to_json().encode()]
        for name in ("lq", "l1"):
            x, support, revalidated = out[name]
            parts += [x.tobytes(), json.dumps([support, revalidated]).encode()]
        return parts
    return [out[name].to_json().encode() for name in ("nlpd", "lqmd") if name in out]


def pool_parts(workload: str, seed: int, instances: int | None = None) -> list[list[bytes]]:
    """answer_parts of every instance of the workload's pool for `seed`."""
    wl = bench.WORKLOADS[workload]
    children = np.random.SeedSequence(seed).spawn(wl.pool + 1)
    return [answer_parts(workload, bench.make_instance(wl, i, children[i]))
            for i in range(instances or wl.pool)]


def sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def experiment_hashes(path: str) -> tuple[str, str]:
    """sha256 of the rows CSV (runtime_ms blanked) and of the summary CSV of one config."""
    rows, summary = harness.run_experiment(harness.ExperimentConfig.from_json(Path(path).read_text()))
    for row in rows:
        row.runtime_ms = None   # wall time is the one field that differs between runs
    return (sha256([harness.rows_to_csv(rows).encode()]),
            sha256([harness.summary_to_csv(summary).encode()]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--instances", type=int, default=None,
                    help="hash only the first n pool instances (default: the whole pool)")
    ap.add_argument("--per-instance", action="store_true",
                    help="also print one hash per pool instance")
    ap.add_argument("--experiment", metavar="CONFIG", nargs="+", default=None,
                    help="hash the CSVs of these experiment configs instead of the pools")
    args = ap.parse_args(argv)
    if args.instances is not None and args.instances < 1:
        ap.error("--instances must be >= 1")
    if args.experiment:
        for path in args.experiment:
            rows, summary = experiment_hashes(path)
            print(f"{path} rows {rows}")
            print(f"{path} summary {summary}", flush=True)
        return 0
    for workload in bench.WORKLOADS:
        for seed in args.seeds:
            per_instance = pool_parts(workload, seed, args.instances)
            if args.per_instance:
                for i, parts in enumerate(per_instance):
                    print(f"{workload} seed {seed} instance {i} {sha256(parts)}")
            print(f"{workload} seed {seed} {sha256(p for parts in per_instance for p in parts)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
