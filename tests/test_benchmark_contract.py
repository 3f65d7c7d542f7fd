"""The benchmark script still runs against the package API.

perfbench/run.py reaches into jpac by module attribute, and the suite does
not collect perfbench/, so an API change could break the benchmark
unnoticed.  This imports the script and runs its own bindings, output
checks and trace completeness checks on pool instance 0 of seed 3, the
seed of perfbench/test_run.py, and holds compare-k10's match verdicts to
`oracle.matches_optimum`.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from jpac.oracle import matches_optimum

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    # The script pins BLAS threads in os.environ and puts perfbench/ on
    # sys.path; both are restored once it is loaded.
    env, path = os.environ.copy(), sys.path[:]
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(env)
        sys.path[:] = path
    yield module
    sys.modules.pop(spec.name, None)


def test_bindings_resolve(bench):
    for module, attr, name, _ in bench.BINDINGS:
        assert callable(getattr(module, attr, None)), name


@pytest.mark.parametrize("workload", ["deflate-dense", "deflate-sparse", "compare-k10"])
def test_workload_answers_pass_checks(bench, workload):
    wl = bench.WORKLOADS[workload]
    inst = bench.make_instance(wl, 0, np.random.SeedSequence(3).spawn(wl.pool + 1)[0])
    answers = wl.check(inst, wl.solve(inst))
    assert set(answers) == set(wl.answers)


def test_compare_match_is_the_oracle_rule(bench):
    # check_compare states the match rule itself; it must agree with src's.
    # Pool instances 0-2 of seed 3 hold both verdicts (lq matches on 2 only).
    wl = bench.WORKLOADS["compare-k10"]
    children = np.random.SeedSequence(3).spawn(wl.pool + 1)
    verdicts = set()
    for i in range(3):
        inst = bench.make_instance(wl, i, children[i])
        out = wl.solve(inst)
        answers = wl.check(inst, out)
        for name in ("lq", "l1"):
            x, support, _ = out[name]
            match = matches_optimum(out["problem"], out["exact"], x, support)
            assert answers[name].match == match, (i, name)
            verdicts.add(match)
    assert verdicts == {True, False}


@pytest.mark.parametrize("workload", ["deflate-dense", "deflate-sparse", "compare-k10"])
def test_traced_pass_is_complete(bench, workload):
    # The counts the traced bindings see must equal the counts the program
    # reports; on compare-k10 that includes 2^K - 1 oracle.admissible calls.
    wl = bench.WORKLOADS[workload]
    inst = bench.make_instance(wl, 0, np.random.SeedSequence(3).spawn(wl.pool + 1)[0])
    tracer = bench.Tracer()
    with tracer.installed(bench.BINDINGS):
        run = bench.run_pool(wl, [inst], 0.0, tracer)
    assert run.failed == 0
    assert bench.completeness_errors(tracer, tracer.spans, wl, 1) == []
    if "exact" in wl.answers:
        assert len(tracer.named("oracle.admissible")) == 2 ** wl.K - 1
