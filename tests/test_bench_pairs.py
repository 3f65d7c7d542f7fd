"""tools/bench_pairs.py's traced summary: timings are resolved only by disjoint ranges, counts stay exact."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(bench_pairs, monkeypatch, values):
    """trace_check over fake runs: values[side] lists (ms_per_step, iterations) per run."""
    queues = {side: list(runs) for side, runs in values.items()}

    def fake_run(tree, workload, trace):
        step, iterations = queues[tree].pop(0)
        return {"correct": True, "metrics": {"kernel.ms_per_step": {"value": step},
                                             "kernel.iterations": {"value": iterations}}}
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    return bench_pairs.trace_check({"parent": "parent", "change": "change"}, "deflate-sparse")


def test_overlapping_timing_ranges_are_unresolved(bench_pairs, monkeypatch):
    out = _traced(bench_pairs, monkeypatch, {
        "parent": [(0.20, 3053), (0.15, 3053), (0.22, 3053), (0.21, 3053), (0.14, 3053)],
        "change": [(0.17, 3053), (0.16, 3053), (0.25, 3053), (0.18, 3053), (0.17, 3053)]})
    for side in ("parent", "change"):
        assert out[side]["runs"] == out[side]["correct_runs"] == bench_pairs.TRACE_RUNS
        assert out[side]["kernel.ms_per_step"]["resolved"] is False
        assert out[side]["kernel.iterations"] == {"median": 3053, "range": [3053, 3053]}


def test_disjoint_timing_ranges_are_resolved(bench_pairs, monkeypatch):
    out = _traced(bench_pairs, monkeypatch, {
        "parent": [(0.20, 3053), (0.21, 3053), (0.22, 3053), (0.21, 3053), (0.20, 3053)],
        "change": [(0.17, 3054), (0.18, 3054), (0.16, 3054), (0.18, 3054), (0.17, 3054)]})
    assert out["parent"]["kernel.ms_per_step"]["resolved"] is True
    assert out["change"]["kernel.ms_per_step"] == {"median": 0.17, "range": [0.16, 0.18], "resolved": True}
    # A count is compared exactly: it carries no resolution mark.
    assert out["change"]["kernel.iterations"] == {"median": 3054, "range": [3054, 3054]}
