"""The benchmark repeats its counts and prints every declared metric with its unit.

Run from the repository root (not part of the tier-1 suite, which collects
only tests/):

    python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Values that depend only on the seed and the pool, never on timing.
DETERMINISTIC = {"objective_mean", "admitted_mean"}


def bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.001", "--trace", str(trace), "--instances", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_counts_repeat_and_metrics_are_named(workload, trace, declared):
    first, report = bench(workload, trace)
    second, _ = bench(workload, trace)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1

    units = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in report)

    for key in ("attempted", "failed"):
        assert first[key] == second[key]
    for name, unit in units.items():
        if unit == "count" or name in DETERMINISTIC:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    if trace == 0:
        assert any("error_rate 0" in line for line in report)
        if workload == "compare-k10":
            assert any(line.startswith("info oracle_match_rate ") for line in report)
