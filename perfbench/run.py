#!/usr/bin/env python3
"""jpac benchmark: instances answered per second, answer quality, set-up cost.

Run from the repository root:

    python3 perfbench/run.py --workload deflate-dense --seed 1 --seconds 35 --trace 0

Set-up draws a pool of instances from --seed, then the timed loop solves
them one after another (one client, closed loop), cycling through the pool
until --seconds have passed and every instance was solved at least once.
Every answer is checked; a failed check or an exception counts as a failed
call and makes the command exit non-zero.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json.  With --trace 1 the pool is solved
once untraced and once traced, and the metrics are the per-layer metrics
of the traced pass; its spans are written to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread, fixed before numpy is imported: with more
# threads than cores a K=80 multistart once ran 90x slower beside another
# numpy job.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import jpac  # noqa: E402
from jpac import admission, kernel, network, oracle, scenario  # noqa: E402
from tracing import Tracer, duration  # noqa: E402

# Captured before any tracing patch: the output checks must neither be
# counted as program work nor depend on the bindings under test.
EXACT_ADMISSIBLE = admission.admissible

# The harness's experiment default; 1e-6 keeps q ~ 1 residuals well below
# the support threshold.
SOLVER = kernel.SolverConfig(epsilon=1e-6)
SINR_RTOL = 1e-9
SETUP_REPEATS = 5
# Criterion 6 runs 100 starts; 25 keeps the batch wide next to the N <= 5 of
# the deflation workloads at a quarter of the cost (NOTES.md).
COMPARE_STARTS = 25


# On a shared 2-core VM identical work ran 1.0-2.2x its best time, in phases
# lasting from seconds to minutes (NOTES.md).  A fixed reference kernel of
# small numpy and LAPACK calls, independent of jpac, runs between solves; its
# slowdown tracked the solver's (correlation 0.95 over 15 s blocks), so each
# solve's wall time is scaled by REFERENCE_S / (the reference time around it).
_REF_RNG = np.random.default_rng(0)
_REF_V = _REF_RNG.standard_normal(30)
_REF_M = _REF_RNG.standard_normal((5, 40, 60))
_REF_S = _REF_M @ np.swapaxes(_REF_M, 1, 2)
_REF_R = _REF_RNG.standard_normal((5, 40, 1))
# Fastest reference_s() seen on that VM; it only fixes the scale of the
# normalized seconds.
REFERENCE_S = 0.006


def reference_s() -> float:
    """Wall time of the fixed reference kernel."""
    t0 = time.perf_counter()
    w = _REF_V
    for _ in range(1000):
        w = np.maximum(w * 1.0001, -1.0)
        float(w @ _REF_V)
    for _ in range(25):
        L = np.linalg.cholesky(_REF_S)
        np.linalg.solve(np.swapaxes(L, 1, 2), np.linalg.solve(L, _REF_R))
    return time.perf_counter() - t0


class CheckFailed(Exception):
    """An answer violated one of the output checks."""


@dataclass
class Instance:
    index: int
    net: network.NetworkInstance
    problem: network.NormalizedProblem
    solver_seed: int


@dataclass
class Answer:
    algorithm: str
    admitted: int
    objective: float
    match: bool | None = None


# ---------------------------------------------------------------------------
# Workloads.  Each solve function follows the call sequence of the harness
# runner it mirrors, through module attributes so the tracer sees every call.
# ---------------------------------------------------------------------------


def solve_nlpd(inst: Instance) -> dict:
    """The NLPD half of the deflate-compare runner."""
    alpha = network.select_alpha(inst.problem)
    return {"alpha": alpha, "nlpd": admission.run_nlpd(inst.problem.with_alpha(alpha), SOLVER)}


def solve_deflate(inst: Instance) -> dict:
    """deflate-compare runner: NLPD from select_alpha, then LQMD (q=0.5, 5 starts)."""
    out = solve_nlpd(inst)
    out["lqmd"] = admission.run_lqmd(inst.problem, q=0.5, n_starts=5, config=SOLVER,
                                     seed=inst.solver_seed)
    return out


def revalidated_support(problem, x, support) -> int:
    """The harness's support count: drop the worst-residual link until exactly admissible."""
    support = sorted(support)
    resid = problem.b - problem.A @ np.asarray(x, dtype=float)
    while support and admission.admissible(problem, support) is None:
        support.remove(max(support, key=lambda k: resid[k]))
    return len(support)


def solve_compare(inst: Instance) -> dict:
    """approx-compare runner at criterion 6's q and epsilon: exact oracle, lq (q=0.1), l1."""
    p = inst.problem.with_alpha(network.select_alpha(inst.problem))
    exact = oracle.enumerate_l0(p)
    lq = kernel.multistart_solve(kernel.augment(p, q=0.1), SOLVER, COMPARE_STARTS, inst.solver_seed)
    lq_supported = revalidated_support(p, lq.x, lq.support)
    aug = kernel.augment(p, q=1.0)
    w, _ = kernel.solve_potential_reduction(aug, SOLVER, kernel.interior_point_default(aug))
    l1_x, l1_support = kernel.round_to_power(w, aug, SOLVER.zero_tol)
    return {
        "problem": p,
        "exact": exact,
        "lq": (lq.x, lq.support, lq_supported),
        "l1": (l1_x, l1_support, revalidated_support(p, l1_x, l1_support)),
    }


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def make_instance(wl: Workload, index: int, seed_seq, K: int | None = None) -> Instance:
    scen_seed, solver_seed = (int(v) for v in seed_seq.generate_state(2))
    net = scenario.generate(scenario.ScenarioConfig(
        K=wl.K if K is None else K, square_side=wl.square_side, seed=scen_seed))
    return Instance(index, net, network.normalize(net), solver_seed)


def import_s() -> float:
    """Median time to import numpy and jpac in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import numpy, jpac; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS))


def set_up(wl: Workload, seed: int, pool_size: int) -> list[Instance]:
    """Draw the pool from the workload seed and warm up every layer on a small instance."""
    children = np.random.SeedSequence(seed).spawn(pool_size + 1)
    pool = [make_instance(wl, i, children[i]) for i in range(pool_size)]
    warm = make_instance(wl, -1, children[pool_size], K=6)
    alpha = solve_deflate(warm)["alpha"]
    oracle.enumerate_l0(warm.problem.with_alpha(alpha))
    return pool


# ---------------------------------------------------------------------------
# Output checks.  None of them is skipped in a timed run.
# ---------------------------------------------------------------------------


def check_powers(inst: Instance, links, powers_w) -> None:
    """Every listed link meets its physical SINR target at powers_w."""
    p = np.zeros(inst.net.K)
    p[list(links)] = powers_w
    achieved = network.sinr(inst.net, p)[list(links)]
    target = inst.net.sinr_targets[list(links)]
    if np.any(achieved < target * (1.0 - SINR_RTOL)):
        worst = int(np.argmin(achieved / target))
        raise CheckFailed(f"link {list(links)[worst]} misses its SINR target")


def check_deflation(inst: Instance, name: str, alpha: float, result) -> Answer:
    links = result.admitted
    if not links or EXACT_ADMISSIBLE(inst.problem, links) is None:
        raise CheckFailed(f"admitted set {links} is not exactly admissible")
    check_powers(inst, links, result.powers_w)
    objective = (inst.problem.K - len(links)) + alpha * float(np.sum(result.powers_w))
    return Answer(name, len(links), objective)


def check_compare(inst: Instance, out: dict) -> dict[str, Answer]:
    p, exact = out["problem"], out["exact"]
    K, alpha = p.K, p.alpha
    support = list(exact.best_support)
    if support:
        if EXACT_ADMISSIBLE(p, support) is None:
            raise CheckFailed(f"oracle support {support} is not exactly admissible")
        check_powers(inst, support, (exact.best_x * p.budgets)[support])
    answers = {"exact": Answer("exact", len(support), exact.objective)}
    exact_power_mw = float(p.budgets @ exact.best_x) * 1e3
    for name in ("lq", "l1"):
        x, claimed, supported = out[name]
        objective = (K - supported) + alpha * float(p.budgets @ x)
        # The oracle is the global optimum; an answer may tie it, never beat it.
        if objective < exact.objective - 1e-6:
            raise CheckFailed(f"{name} objective {objective} beats the exact optimum {exact.objective}")
        power_mw = float(p.budgets @ x) * 1e3
        match = (set(claimed) == set(support)
                 and abs(power_mw - exact_power_mw) <= 1e-3 * max(exact_power_mw, 1e-12))
        answers[name] = Answer(name, supported, objective, match)
    return answers


def check_deflate(inst: Instance, out: dict) -> dict[str, Answer]:
    return {name: check_deflation(inst, name, out["alpha"], out[name])
            for name in ("nlpd", "lqmd") if name in out}


@dataclass(frozen=True)
class Workload:
    K: int
    square_side: float   # meters; the receiver disc keeps its 400 m default
    pool: int            # distinct instances per run
    solve: object              # instance -> raw outputs, the timed part
    check: object              # (instance, outputs) -> {answer name: Answer}
    answers: tuple[str, ...]   # checked answers per instance
    scored: tuple[str, ...]    # answers behind objective_mean and admitted_mean


# Pools are sized so one pass takes 6-9 s on an unloaded core of a 2-core
# x86 VM, about 2.5x that at the heaviest load seen there.  See NOTES.md for
# why K stays <= 64.
WORKLOADS = {
    "deflate-dense": Workload(64, 1600.0, 40, solve_deflate, check_deflate,
                              ("nlpd", "lqmd"), ("nlpd", "lqmd")),
    "deflate-sparse": Workload(64, 2000.0 * (64 / 20) ** 0.5, 30, solve_nlpd, check_deflate,
                               ("nlpd",), ("nlpd",)),
    "compare-k10": Workload(10, 2000.0, 20, solve_compare, check_compare,
                            ("exact", "lq", "l1"), ("lq",)),
}


# ---------------------------------------------------------------------------
# Timed loop.
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    times: list[list[float]]       # normalized seconds of every solve, per pool instance
    wall_s: float                  # wall seconds of all solves
    answers: list[Answer]          # scored answers of the first pass
    attempted: int
    failed: int
    wall: float


def run_pool(wl: Workload, pool: list[Instance], seconds: float, tracer: Tracer | None = None) -> Pass:
    """Solve the pool in order, cycling until `seconds` passed and every instance ran once."""
    times = [[] for _ in pool]
    wall_s = 0.0
    answers = []
    attempted = failed = 0
    start = time.perf_counter()
    ref = reference_s()
    i = 0
    while i < len(pool) or time.perf_counter() - start < seconds:
        inst = pool[i % len(pool)]
        if tracer is not None:
            tracer.instance = inst.index
        attempted += len(wl.answers)
        try:
            t0 = time.perf_counter()
            out = wl.solve(inst)
            t = time.perf_counter() - t0
            ref_before, ref = ref, reference_s()
            wall_s += t
            times[i % len(pool)].append(t * 2 * REFERENCE_S / (ref_before + ref))
            checked = wl.check(inst, out)
        except Exception:  # a failed call is counted and reported, not raised
            failed += len(wl.answers)
            print(f"instance {inst.index} failed:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            if i < len(pool):
                answers.extend(checked[name] for name in wl.scored)
        i += 1
    return Pass(times, wall_s, answers, attempted, failed, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def instance_times(run: Pass) -> list[float]:
    """Each instance's median normalized solve time."""
    return [statistics.median(t) for t in run.times if t]


def end_to_end(setup_s: float, run: Pass) -> dict:
    answers = run.answers
    per_instance = instance_times(run)
    return {
        "instances_per_s": (len(per_instance) / sum(per_instance), "1/s"),
        "instance_s_p50": (statistics.median(per_instance), "s"),
        "objective_mean": (statistics.fmean(a.objective for a in answers), "links"),
        "admitted_mean": (statistics.fmean(a.admitted for a in answers), "links"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def kernel_attrs(result) -> dict:
    """Per-start iterations and terminations of a multistart or single solve."""
    if isinstance(result, kernel.MultistartResult):
        certs = result.certificates
        reported = result.total_iterations
    else:
        certs = [result[1]]
        reported = certs[0].iterations
    return {
        "iterations": [c.iterations for c in certs],
        "terminations": [c.termination for c in certs],
        "reported_iterations": reported,
        "K": int(certs[0].lam.size // 2),   # one multiplier per row of the 2K x 3K A~
    }


def admission_attrs(result) -> dict:
    stages = [rec["stage"] for rec in result.removal_trace]
    return {
        "solver_calls": result.stats["solver_calls"],
        "total_iterations": result.stats["total_iterations"],
        "deflation_rounds": stages.count("deflate"),
        "preprocess_removed": stages.count("preprocess"),
        "readmitted": len(result.readmitted),
    }


# `select_alpha` is bound separately in admission, oracle and the caller
# (network itself); `admissible` in admission and oracle.
BINDINGS = [
    (scenario, "generate", "scenario.generate", None),
    (network, "normalize", "network.normalize", None),
    (network, "select_alpha", "network.select_alpha", None),
    (admission, "select_alpha", "network.select_alpha", None),
    (oracle, "select_alpha", "network.select_alpha", None),
    (admission, "restrict", "network.restrict", None),
    (admission, "admissible", "admission.admissible", None),
    (oracle, "admissible", "oracle.admissible", None),
    (admission, "run_nlpd", "admission.run_nlpd", admission_attrs),
    (admission, "run_lqmd", "admission.run_lqmd", admission_attrs),
    (kernel, "multistart_solve", "kernel.multistart_solve", kernel_attrs),
    (kernel, "solve_potential_reduction", "kernel.solve_potential_reduction", kernel_attrs),
    (oracle, "enumerate_l0", "oracle.enumerate_l0", None),
]
KERNEL_SPANS = ("kernel.multistart_solve", "kernel.solve_potential_reduction")
RUN_SPANS = ("admission.run_nlpd", "admission.run_lqmd")


def completeness_errors(tracer: Tracer, spans: list[dict], wl: Workload, pool_size: int) -> list[str]:
    """Counts seen by the wrappers must equal the counts the program reports."""
    errors = []
    kids = tracer.children()
    for span in spans:
        if span["name"] in KERNEL_SPANS and sum(span["iterations"]) != span["reported_iterations"]:
            errors.append(f"{span['name']} span {span['id']}: start iterations "
                          f"{sum(span['iterations'])} != reported {span['reported_iterations']}")
        if span["name"] in RUN_SPANS:
            solves = [d for d in tracer.descendants(span, kids) if d["name"] in KERNEL_SPANS]
            calls = sum(len(d["iterations"]) for d in solves)
            iterations = sum(sum(d["iterations"]) for d in solves)
            if (calls, iterations) != (span["solver_calls"], span["total_iterations"]):
                errors.append(f"{span['name']} span {span['id']}: wrappers saw {calls} solver calls / "
                              f"{iterations} iterations, stats report {span['solver_calls']} / "
                              f"{span['total_iterations']}")
    expected = {
        "admission.run_nlpd": pool_size if "nlpd" in wl.answers else 0,
        "admission.run_lqmd": pool_size if "lqmd" in wl.answers else 0,
        "oracle.enumerate_l0": pool_size if "exact" in wl.answers else 0,
    }
    for name, count in expected.items():
        if len(tracer.named(name, spans)) != count:
            errors.append(f"{name}: {len(tracer.named(name, spans))} spans, expected {count}")
    if "exact" in wl.answers:
        per_instance = {}
        for s in tracer.named("oracle.admissible", spans):
            per_instance[s["instance"]] = per_instance.get(s["instance"], 0) + 1
        subsets = 2 ** wl.K - 1
        for index in range(pool_size):
            if per_instance.get(index, 0) != subsets:
                errors.append(f"instance {index}: oracle tested {per_instance.get(index, 0)} "
                              f"subsets, expected {subsets}")
    if not any(s["name"] in KERNEL_SPANS for s in spans):
        errors.append("no kernel call went through a traced binding")
    return errors


def per_layer(tracer: Tracer, setup_spans: list[dict], spans: list[dict], overhead: float) -> dict:
    kids = tracer.children()
    solves = [s for s in spans if s["name"] in KERNEL_SPANS]
    multistart = tracer.named("kernel.multistart_solve", spans)
    single = tracer.named("kernel.solve_potential_reduction", spans)
    steps = sum(max(s["iterations"]) + 1 for s in solves)
    slots = sum((max(s["iterations"]) + 1) * len(s["iterations"]) for s in solves)
    busy = sum(sum(i + 1 for i in s["iterations"]) for s in solves)
    terms = [t for s in solves for t in s["terminations"]]
    runs = [s for s in spans if s["name"] in RUN_SPANS]
    admissible = tracer.named("admission.admissible", spans)
    return {
        "scenario.generate_s": (duration(tracer.named("scenario.generate", setup_spans)), "s"),
        "network.normalize_s": (duration(tracer.named("network.normalize", setup_spans)), "s"),
        "network.select_alpha_calls": (len(tracer.named("network.select_alpha", spans)), "count"),
        "network.select_alpha_s": (duration(tracer.named("network.select_alpha", spans)), "s"),
        "network.restrict_calls": (len(tracer.named("network.restrict", spans)), "count"),
        "network.restrict_s": (duration(tracer.named("network.restrict", spans)), "s"),
        "kernel.multistart_calls": (len(multistart), "count"),
        "kernel.multistart_s": (duration(multistart), "s"),
        "kernel.single_solve_calls": (len(single), "count"),
        "kernel.single_solve_s": (duration(single), "s"),
        "kernel.iterations": (sum(sum(s["iterations"]) for s in solves), "count"),
        "kernel.lockstep_steps": (steps, "count"),
        "kernel.ms_per_step": (1e3 * duration(solves) / steps if steps else 0.0, "ms"),
        "kernel.batch_occupancy": (busy / slots if slots else 0.0, "ratio"),
        "kernel.kkt_starts": (terms.count(kernel.EPS_KKT), "count"),
        "kernel.optimal_starts": (terms.count(kernel.EPS_OPTIMAL), "count"),
        "kernel.capped_starts": (terms.count(kernel.ITERATION_CAP), "count"),
        "kernel.problem_k_mean": (statistics.fmean(s["K"] for s in solves) if solves else 0.0, "links"),
        "admission.run_s": (sum(tracer.self_time(s, kids) for s in runs), "s"),
        "admission.admissible_calls": (len(admissible), "count"),
        "admission.admissible_s": (duration(admissible), "s"),
        "admission.deflation_rounds": (sum(s["deflation_rounds"] for s in runs), "count"),
        "admission.preprocess_removed": (sum(s["preprocess_removed"] for s in runs), "count"),
        "admission.readmitted": (sum(s["readmitted"] for s in runs), "count"),
        "oracle.enumerate_s": (duration(tracer.named("oracle.enumerate_l0", spans)), "s"),
        "oracle.subsets_tested": (len(tracer.named("oracle.admissible", spans)), "count"),
        "trace.overhead": (overhead, "ratio"),
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--instances", type=int, default=None,
                    help="pool size (default: the workload's); smaller pools are for quick checks")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.instances is not None and args.instances < 1):
        ap.error("--seed must be >= 0, --seconds > 0 and --instances >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(jpac.__file__).resolve().parent != SRC / "jpac":
        raise SystemExit(f"imported jpac from {jpac.__file__}, expected the sources under {SRC}")
    wl = WORKLOADS[args.workload]
    pool_size = args.instances or wl.pool
    print("env " + json.dumps(environment()))

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = set_up(wl, args.seed, pool_size)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s() + statistics.median(setups)

    if not args.trace:
        run = run_pool(wl, pool, args.seconds)
        metrics = end_to_end(setup_s, run)
        correct = run.failed == 0
        solves = sum(len(t) for t in run.times)
        print(f"info {solves} solves of {pool_size} instances in {run.wall:.3f} s; "
              f"instance_s_p50 over n={len(instance_times(run))} instances; "
              f"unnormalized wall throughput {solves / run.wall_s!r} 1/s")
        print(f"info error_rate {run.failed / run.attempted!r} ratio "
              f"({run.failed} of {run.attempted} calls failed)")
        matches = [a.match for a in run.answers if a.algorithm == "lq"]
        if matches:
            print(f"info oracle_match_rate {statistics.fmean(matches)!r} ratio "
                  f"({sum(matches)} of {len(matches)} lq answers match the exact optimum)")
    else:
        # Untraced pass first: it is the base of trace.overhead.
        plain = run_pool(wl, pool, 0.0)
        tracer = Tracer()
        with tracer.installed(BINDINGS):
            traced_pool = set_up(wl, args.seed, pool_size)
            setup_spans = list(tracer.spans)
            first = len(tracer.spans)
            run = run_pool(wl, traced_pool, 0.0, tracer)
        spans = tracer.spans[first:]
        errors = completeness_errors(tracer, spans, wl, pool_size)
        for e in errors:
            print(f"trace incomplete: {e}", file=sys.stderr)
        metrics = per_layer(tracer, setup_spans, spans, run.wall / plain.wall)
        kids = tracer.children()
        self_s = {}
        for span in spans:
            self_s[span["name"]] = self_s.get(span["name"], 0.0) + tracer.self_time(span, kids)
        for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"info self_time {name} {secs:.4f} s = {100 * secs / run.wall:.1f}% of the traced pass")
        correct = plain.failed == 0 and run.failed == 0 and not errors
        run.attempted += plain.attempted + 1        # + the completeness check
        run.failed += plain.failed + bool(errors)
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"info {len(tracer.spans)} spans written to {out.relative_to(HERE.parent)}")

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
