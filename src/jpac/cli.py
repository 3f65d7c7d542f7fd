"""Command-line entry point.

Subcommands: generate (emit instance JSON files), solve (one instance, one
algorithm), enumerate (brute-force benchmark), recover-qbar, and experiment
(the full Monte-Carlo driver: `--config FILE` describes the experiment, its
seed and runs included, and `--out DIR` says where its CSVs go).  Exit
codes: 0 success, 1 usage or configuration error (a bad or unknown
argument, an invalid config or instance file), 2 when any experiment row
failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import kernel
from .admission import run_lqmd, run_nlpd
from .harness import ExperimentConfig, run_experiment, rows_to_csv, summary_to_csv
from .network import NetworkInstance, normalize
from .oracle import enumerate_l0, estimate_qbar
from .scenario import ScenarioConfig, generate

# solve --algo lqmd's --q, --n and --seed when left out; nlpd runs one start and takes none.
LQMD_DEFAULTS = {"q": 0.5, "n": 5, "seed": 0}


def _load_instance(path: str) -> NetworkInstance:
    return NetworkInstance.from_json(Path(path).read_text())


def _cmd_generate(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    # Rejects a bad K, seed or distance scale by name; each instance gets a child seed.
    base = ScenarioConfig(K=args.K, distance_scale=args.distance_scale, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    import numpy as np

    master = np.random.SeedSequence(args.seed)
    for i, child in enumerate(master.spawn(args.count)):
        cfg = dataclasses.replace(base, seed=int(child.generate_state(1)[0]))
        path = out / f"instance_K{args.K}_{i:04d}.json"
        path.write_text(generate(cfg).to_json() + "\n")
        print(path)
    return 0


def _cmd_solve(args) -> int:
    given = {name: getattr(args, name) for name in LQMD_DEFAULTS if getattr(args, name) is not None}
    problem = normalize(_load_instance(args.instance))
    config = kernel.SolverConfig(epsilon=args.epsilon, trace_path=args.trace)
    if args.algo == "nlpd":
        if given:
            raise ValueError(f"--algo nlpd takes no {', '.join('--' + name for name in given)}")
        result = run_nlpd(problem, config)
    else:
        lqmd = {**LQMD_DEFAULTS, **given}
        result = run_lqmd(problem, q=lqmd["q"], n_starts=lqmd["n"], config=config, seed=lqmd["seed"])
    print(result.to_json())
    return 0


def _cmd_enumerate(args) -> int:
    print(enumerate_l0(normalize(_load_instance(args.instance))).to_json())
    return 0


def _cmd_recover_qbar(args) -> int:
    problem = normalize(_load_instance(args.instance))
    config = kernel.SolverConfig(epsilon=args.epsilon)
    qbar, status = estimate_qbar(problem, n_starts=args.n, config=config, seed=args.seed)
    print(json.dumps({"qbar": qbar, "status": status}))
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(Path(args.config).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows, summary = run_experiment(config)
    rows_path = out / f"{config.experiment}_rows.csv"
    summary_path = out / f"{config.experiment}_summary.csv"
    rows_path.write_text(rows_to_csv(rows))
    summary_path.write_text(summary_to_csv(summary))
    print(rows_path)
    print(summary_path)
    return 2 if any(r.error is not None for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jpac", description="Joint power and admission control toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit random instance JSON files")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distance-scale", type=float, default=1.0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run one deflation algorithm on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", choices=["nlpd", "lqmd"], required=True)
    p.add_argument("--q", type=float, help="lq exponent (lqmd)")
    p.add_argument("--n", type=int, help="multistart count (lqmd)")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--seed", type=int, help="multistart seed (lqmd)")
    p.add_argument("--trace", default=None, help="JSON-lines solver trace path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="brute-force benchmark for one instance")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("recover-qbar", help="estimate the recovery exponent")
    p.add_argument("--instance", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_recover_qbar)

    p = sub.add_parser("experiment", help="run a Monte-Carlo experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
