"""tools/answer_hashes.py runs on every benchmark workload and on an experiment config, and
hashes what it says it hashes."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from jpac.harness import ExperimentConfig, rows_to_csv, run_experiment, summary_to_csv

ROOT = Path(__file__).resolve().parents[1]


def test_one_instance_per_workload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "answer_hashes.py"), "--seeds", "3",
         "--instances", "1", "--per-instance"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    workloads = ("deflate-dense", "deflate-sparse", "compare-k10")
    assert len(lines) == 2 * len(workloads)
    for workload, instance_line, pool_line in zip(workloads, lines[::2], lines[1::2]):
        instance = re.fullmatch(rf"{workload} seed 3 instance 0 ([0-9a-f]{{64}})", instance_line)
        pool = re.fullmatch(rf"{workload} seed 3 ([0-9a-f]{{64}})", pool_line)
        assert instance and pool, (instance_line, pool_line)
        # A one-instance pool hashes the same bytes as its only instance.
        assert instance.group(1) == pool.group(1)


def test_experiment_config(tmp_path):
    doc = {"experiment": "deflate-compare", "K_list": [6], "runs": 1, "n_starts": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "answer_hashes.py"), "--experiment", str(path)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows, summary = run_experiment(ExperimentConfig(**doc))
    assert rows and all(r.runtime_ms is not None for r in rows)
    for row in rows:
        row.runtime_ms = None
    assert proc.stdout.splitlines() == [
        f"{path} rows {hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()}",
        f"{path} summary {hashlib.sha256(summary_to_csv(summary).encode()).hexdigest()}",
    ]
