"""tools/answer_hashes.py runs on every benchmark workload and hashes what it says it hashes."""

import re
import subprocess
import sys
from pathlib import Path

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
