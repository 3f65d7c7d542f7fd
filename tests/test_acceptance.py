"""Acceptance gate: one test per release criterion, one printed verdict each.

Criteria 5-8 and 10 are statistical; their bounds are wide enough that a
failure indicates a systematic defect, not sampling noise.
"""

import json
import sys
import time

import numpy as np
import pytest

from jpac import kernel
from jpac.admission import admissible
from jpac.harness import ExperimentConfig, run_experiment

import conftest
from conftest import X3_STAR, diag_problem, random_problem
from reference import foschini_miljanic, lp_exact


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} ({name}): {verdict} -- {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def _summary_value(summary, metric, **keys):
    hits = [r["value"] for r in summary
            if r["metric"] == metric and all(r[k] == v for k, v in keys.items())]
    assert len(hits) == 1, f"{metric} {keys} -> {hits}"
    return hits[0]


# ---------------------------------------------------------------------------
# Shared corpus for the per-iteration criteria (3 and 4): 50 seeded random
# instances spanning K in 3..10 and q in {0.3, 0.5, 1}, each solved with a
# JSON-lines trace so every intermediate potential value is observable, plus
# a few multistart runs and two near-zero-objective instances that terminate
# eps-optimal.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    runs = []
    certificates = []
    trace_dir = tmp_path_factory.mktemp("traces")
    q_grid = [0.3, 0.5, 1.0]
    for i in range(50):
        K = 3 + i % 8
        q = q_grid[i % 3]
        prob = random_problem(K, 1000 + i)
        aug = kernel.augment(prob, q=q)
        path = trace_dir / f"run_{i}.jsonl"
        config = kernel.SolverConfig(epsilon=1e-3, trace_path=str(path))
        w, cert = kernel.solve_potential_reduction(aug, config, kernel.interior_point_default(aug))
        potentials = [json.loads(line)["phi"] for line in path.read_text().splitlines()]
        runs.append({"K": K, "q": q, "potentials": potentials, "cap": config.iter_cap(K, q),
                     "iterations": cert.iterations, "cert": cert})
        certificates.append((cert, w, aug))

    ms_config = kernel.SolverConfig(epsilon=1e-4)
    for i in range(10):
        prob = random_problem(5, 2000 + i)
        aug = kernel.augment(prob, q=0.5)
        res = kernel.multistart_solve(aug, ms_config, 5, seed=i)
        for cert in res.certificates:
            certificates.append((cert, None, aug))

    # Orthogonal problems with a tiny power weight: the optimum objective is
    # below epsilon, so the solver terminates through the potential threshold.
    for K in (2, 3):
        prob = diag_problem(K, alpha=1e-9)
        aug = kernel.augment(prob, q=0.5)
        w, cert = kernel.solve_potential_reduction(
            aug, ms_config, kernel.interior_point_default(aug))
        certificates.append((cert, w, aug))

    return {"runs": runs, "certificates": certificates}


def test_criterion_01_worked_example_recovery(three_link):
    t0 = time.perf_counter()
    aug = kernel.augment(three_link, q=0.5)
    res = kernel.multistart_solve(aug, kernel.SolverConfig(epsilon=1e-4), 20, seed=0)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(res.x - X3_STAR)))
    _report(1, "worked-example recovery", err <= 1e-3 and elapsed < 1.0,
            f"max|x - x*| = {err:.2e}, runtime = {elapsed:.2f}s")


def test_criterion_02_l1_failure_case(three_link):
    x_lp = lp_exact(three_link)
    lp_obj = float(np.sum(three_link.b - three_link.A @ x_lp)
                   + three_link.alpha * (three_link.budgets @ x_lp))
    aug = kernel.augment(three_link, q=1.0)
    config = kernel.SolverConfig(epsilon=1e-6)
    w, cert = kernel.solve_potential_reduction(aug, config, kernel.interior_point_default(aug))
    x_ip, _ = kernel.round_to_power(w, aug, config.zero_tol)
    norm_lp = float(np.max(np.abs(x_lp)))
    norm_ip = float(np.max(np.abs(x_ip)))
    gap = abs(cert.f_value - lp_obj)
    ok = norm_lp <= 1e-4 and norm_ip <= 1e-4 and gap <= 1e-6
    _report(2, "l1 collapse to zero", ok,
            f"|x_lp| = {norm_lp:.1e}, |x_ip| = {norm_ip:.1e}, objective gap = {gap:.1e}")


def test_criterion_03_potential_decrease(corpus):
    worst = np.inf
    max_ratio = 0.0
    for run in corpus["runs"]:
        phis = run["potentials"]
        drops = [a - b for a, b in zip(phis, phis[1:])]
        if drops:
            worst = min(worst, min(drops))
        max_ratio = max(max_ratio, run["iterations"] / run["cap"])
    bound = kernel.MIN_POTENTIAL_DECREASE - 1e-9
    ok = worst >= bound and max_ratio < 1.0
    _report(3, "per-iteration potential decrease", ok,
            f"min decrease = {worst:.6f} (bound {bound:.6f}), "
            f"max iteration/cap ratio = {max_ratio:.3f} over {len(corpus['runs'])} runs")


def test_criterion_04_certificate_soundness(corpus):
    n_kkt = n_opt = 0
    worst_dual = np.inf
    worst_gap = -np.inf
    worst_f = -np.inf
    for cert, _, _ in corpus["certificates"]:
        if cert.termination == kernel.EPS_KKT:
            n_kkt += 1
            worst_dual = min(worst_dual, cert.dual_residual)
            worst_gap = max(worst_gap, cert.comp_gap - cert.epsilon)
        elif cert.termination == kernel.EPS_OPTIMAL:
            n_opt += 1
            worst_f = max(worst_f, cert.f_value - cert.epsilon)
    ok = (n_kkt > 0 and n_opt > 0
          and worst_dual >= -1e-8 and worst_gap <= 0.0 and worst_f <= 0.0)
    _report(4, "certificate soundness", ok,
            f"{n_kkt} eps-KKT (min dual residual {worst_dual:.1e}, "
            f"max gap excess {worst_gap:.1e}), {n_opt} eps-optimal "
            f"(max f excess {worst_f:.1e})")


def test_criterion_05_benchmark_comparison_k5():
    t0 = time.perf_counter()
    config = ExperimentConfig(experiment="approx-compare", K_list=[5], runs=100,
                              q_list=[0.1], n_starts=100, seed=0)
    _, summary = run_experiment(config)
    elapsed = time.perf_counter() - t0
    bench = _summary_value(summary, "mean_supported", algorithm="benchmark")
    lq = _summary_value(summary, "mean_supported", algorithm="lq0.1")
    match = _summary_value(summary, "match_rate", algorithm="lq0.1")
    ok = abs(lq - bench) <= 0.1 and match >= 0.5 and elapsed <= 600.0
    _report(5, "desk-scale benchmark, K=5", ok,
            f"mean supported {lq:.2f} vs benchmark {bench:.2f}, "
            f"recovery {match:.0%}, runtime {elapsed:.0f}s")


def test_criterion_06_lq_vs_l1_separation_k10():
    config = ExperimentConfig(experiment="approx-compare", K_list=[10], runs=100,
                              q_list=[0.1], n_starts=100, seed=0)
    _, summary = run_experiment(config)
    lq = _summary_value(summary, "mean_supported", algorithm="lq0.1")
    l1 = _summary_value(summary, "mean_supported", algorithm="l1")
    gap = lq - l1
    _report(6, "lq vs l1 separation, K=10", gap >= 0.5,
            f"mean supported {lq:.2f} (lq) vs {l1:.2f} (l1), gap {gap:.2f}")


def test_criterion_07_deflation_comparison_k20():
    config = ExperimentConfig(experiment="deflate-compare", K_list=[20], runs=100,
                              q_list=[0.5], n_starts=5, seed=0)
    _, summary = run_experiment(config)
    lq = _summary_value(summary, "mean_supported", algorithm="lqmd")
    nl = _summary_value(summary, "mean_supported", algorithm="nlpd")
    p_lq = _summary_value(summary, "mean_power_mw_equal", algorithm="lqmd")
    p_nl = _summary_value(summary, "mean_power_mw_equal", algorithm="nlpd")
    ok = lq >= nl - 0.05 and p_lq <= p_nl
    _report(7, "deflation comparison, K=20", ok,
            f"mean supported {lq:.2f} (lqmd) vs {nl:.2f} (nlpd); "
            f"equal-cardinality power {p_lq:.1f} vs {p_nl:.1f} mW")


def test_criterion_08_scaling_ratios():
    config = ExperimentConfig(experiment="scaling-ratio", K_list=[5, 10], runs=50,
                              q_list=[0.5], n_starts=5, seed=0)
    _, summary = run_experiment(config)
    details = []
    ok = True
    for K in (5, 10):
        count = _summary_value(summary, "mean_supported_ratio", K=K)
        power = _summary_value(summary, "mean_power_ratio", K=K)
        ok = ok and 0.95 <= count <= 1.05 and 3.5 <= power <= 4.5
        details.append(f"K={K}: count ratio {count:.3f}, power ratio {power:.2f}")
    _report(8, "distance-scaling ratios", ok, "; ".join(details))


def test_criterion_09_oracle_cross_validation():
    rng = np.random.default_rng(17)
    pairs = 0
    worst_fm = 0.0
    worst_inv = 0.0
    seed = 0
    while pairs < 200:
        prob = random_problem(8, 5000 + seed)
        seed += 1
        for _ in range(8):
            size = int(rng.integers(1, 6))
            S = sorted(rng.choice(8, size=size, replace=False).tolist())
            direct = admissible(prob, S)
            if direct is None:
                continue
            fm = foschini_miljanic(prob, S)
            worst_fm = max(worst_fm, float(np.max(np.abs(fm - direct))))
            inv = np.linalg.inv(prob.A[np.ix_(S, S)])
            worst_inv = min(worst_inv, float(np.min(inv)))
            pairs += 1
            if pairs == 200:
                break
    ok = worst_fm <= 1e-8 and worst_inv >= -1e-10
    _report(9, "fixed-point vs direct solve", ok,
            f"200 pairs, max fixed-point error {worst_fm:.1e}, "
            f"min inverse entry {worst_inv:.1e}")


def test_criterion_10_recovery_exponent_statistics():
    config = ExperimentConfig(experiment="recover-qbar", K_list=[5], runs=20,
                              n_starts=100, epsilon=1e-4, seed=0)
    rows, summary = run_experiment(config)
    success = _summary_value(summary, "match_rate", algorithm="lq-recovery")
    mean_q = _summary_value(summary, "mean_qbar", algorithm="lq-recovery")
    ok = success >= 0.8 and 0.3 <= mean_q <= 0.8 and all(r.error is None for r in rows)
    _report(10, "recovery-exponent statistics", ok,
            f"success rate {success:.0%}, mean recovery exponent {mean_q:.3f}")
