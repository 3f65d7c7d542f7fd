"""Desk-scale comparison of the l0.1 and l1 approximations against the exact
enumeration benchmark on random 5-link deployments.

The l0.1 multistart solver tracks the benchmark almost perfectly; the convex
l1 relaxation supports noticeably fewer links.

Run:  python3 demos/approximation_comparison.py   (a few seconds)
"""

from jpac.harness import ExperimentConfig, run_experiment

config = ExperimentConfig(
    experiment="approx-compare",
    K_list=[5],
    runs=50,
    q_list=[0.1],
    n_starts=100,
    seed=0,
)
rows, summary = run_experiment(config)

print(f"{'algorithm':<12} {'links':>6} {'power (mW)':>11} {'recovery':>9}")
for algo in ("benchmark", "lq0.1", "l1"):
    links = next(r["value"] for r in summary
                 if r["metric"] == "mean_supported" and r["algorithm"] == algo)
    power = next(r["value"] for r in summary
                 if r["metric"] == "mean_power_mw" and r["algorithm"] == algo)
    match = next(r["value"] for r in summary
                 if r["metric"] == "match_rate" and r["algorithm"] == algo)
    print(f"{algo:<12} {links:>6.2f} {power:>11.2f} {match:>8.0%}")
