"""Monte-Carlo experiment driver reproducing the desk-scale comparisons.

Every experiment walks a (K, run) grid, generates one instance per cell
from a child seed stream, executes the configured algorithms and oracles,
and emits one flat CSV row per (instance, algorithm).  A second long-format
CSV holds aggregates (means, win counts, ratios); aggregates carry no
information absent from the rows.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import kernel
from .admission import admissible, run_lqmd, run_nlpd
from .network import normalize
from .oracle import ENUMERATION_GUARD, enumerate_l0, estimate_qbar
from .scenario import ScenarioConfig, generate, is_int, is_real

SUMMARY_FIELDS = ["experiment", "K", "q", "algorithm", "metric", "value"]


@dataclass
class ExperimentConfig:
    experiment: str
    K_list: list[int] = field(default_factory=lambda: [5])
    runs: int = 100
    q_list: list[float] = field(default_factory=lambda: [0.5])
    n_starts: int = 5
    # 1e-6 keeps the q ~ 1 residuals well below the support threshold.
    epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        # JSON gives any value any type; a wrong one must fail here, by name,
        # not as a TypeError deep inside a run.
        for name in ("runs", "n_starts", "seed"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if not is_real(self.epsilon):
            raise ValueError("epsilon must be a number")
        if not isinstance(self.K_list, list) or not all(map(is_int, self.K_list)):
            raise ValueError("K_list must be a list of integers")
        if not isinstance(self.q_list, list) or not all(map(is_real, self.q_list)):
            raise ValueError("q_list must be a list of numbers")
        if self.runs < 0:
            raise ValueError("runs must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.q_list:
            raise ValueError("q_list must not be empty")
        if self.experiment in ("deflate-compare", "scaling-ratio") and len(self.q_list) > 1:
            raise ValueError(f"{self.experiment} runs one q: q_list must hold one value")
        if any(not (0.0 < q <= 1.0) for q in self.q_list):
            raise ValueError("all q must lie in (0, 1]")
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if any(K < 1 for K in self.K_list):
            raise ValueError("all K in K_list must be at least 1")
        # Unchecked, every cell would fail on the enumeration guard, approx-compare's after its solves.
        if (self.experiment in ("approx-compare", "recover-qbar")
                and any(K > ENUMERATION_GUARD for K in self.K_list)):
            raise ValueError(f"{self.experiment} enumerates subsets: "
                             f"all K in K_list must be at most {ENUMERATION_GUARD}")
        kernel.SolverConfig(epsilon=self.epsilon)   # raises on a bad value

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        if "experiment" not in doc:
            raise ValueError(f"config must name an experiment; choose from {EXPERIMENTS}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class MetricsRow:
    experiment: str
    K: int
    q: float | None
    algorithm: str
    seed: int
    supported: int | None = None
    power_mw: float | None = None
    runtime_ms: float | None = None
    match: bool | None = None
    qbar: float | None = None
    error: str | None = None


ROW_FIELDS = [f.name for f in fields(MetricsRow)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _instance_seed(master: int, K: int, run: int) -> int:
    return int(np.random.SeedSequence(entropy=[master, K, run]).generate_state(1)[0])


def _solver_seed(master: int, K: int, run: int) -> int:
    # The fourth entropy word keeps solver streams apart from instance streams.
    return int(np.random.SeedSequence(entropy=[master, K, run, 1]).generate_state(1)[0])


def _make_problem(config: ExperimentConfig, K: int, run: int, **changes):
    """The normalized instance of one grid cell; changes are the cell's own ScenarioConfig fields."""
    scen = ScenarioConfig(K=K, seed=_instance_seed(config.seed, K, run), **changes)
    return normalize(generate(scen))


def _revalidated_support(problem, x, support) -> int:
    """Supported-link count cross-checked by the exact admissibility oracle.

    An eps-accurate rounding can over-claim; if its tolerance-based support
    set is not exactly admissible, the worst-residual link is dropped until
    it is.
    """
    support = sorted(support)
    resid = problem.b - problem.A @ np.asarray(x, dtype=float)
    while support and admissible(problem, support) is None:
        support.remove(max(support, key=lambda k: resid[k]))
    return len(support)


def run_experiment(config: ExperimentConfig) -> tuple[list[MetricsRow], list[dict]]:
    cell = _CELLS[config.experiment]
    scfg = kernel.SolverConfig(epsilon=config.epsilon)
    rows = []
    for K in config.K_list:
        for run in range(config.runs):
            rows.extend(cell(config, scfg, K, run))
    rows.sort(key=lambda r: (r.K, r.q if r.q is not None else -1.0, r.algorithm, r.seed))
    summary = summarize(rows)
    return rows, summary


def _timed_row(config: ExperimentConfig, K: int, q, algorithm: str, run: int, solve) -> MetricsRow:
    """One row; solve(row) fills in the results, an exception it raises is recorded."""
    row = MetricsRow(config.experiment, K, q, algorithm, run)
    t0 = time.perf_counter()
    try:
        solve(row)
    except Exception as exc:  # pragma: no cover - recorded, not raised
        row.error = repr(exc)
    row.runtime_ms = (time.perf_counter() - t0) * 1e3
    return row


def _recover_qbar_cell(config, scfg, K, run) -> list[MetricsRow]:
    def solve(row):
        problem = _make_problem(config, K, run)
        row.qbar, status = estimate_qbar(
            problem, n_starts=config.n_starts, config=scfg,
            seed=_solver_seed(config.seed, K, run),
        )
        row.match = status == "success"

    return [_timed_row(config, K, None, "lq-recovery", run, solve)]


def _approx_compare_cell(config, scfg, K, run) -> list[MetricsRow]:
    problem = _make_problem(config, K, run)
    bench = None

    def benchmark(row):
        nonlocal bench
        bench = enumerate_l0(problem)
        row.supported = len(bench.best_support)
        row.power_mw = float(problem.budgets @ bench.best_x) * 1e3
        row.match = True

    def relaxation(q, n_starts):
        # l1 is the q = 1 relaxation from the default start alone.
        def solve(row):
            aug = kernel.augment(problem, q=q)
            res = kernel.multistart_solve(aug, scfg, n_starts, _solver_seed(config.seed, K, run))
            row.supported = _revalidated_support(problem, res.x, res.support)
            row.power_mw = float(problem.budgets @ res.x) * 1e3
            bench_power = float(problem.budgets @ bench.best_x) * 1e3
            row.match = (
                set(res.support) == set(bench.best_support)
                and abs(row.power_mw - bench_power) <= 1e-3 * max(bench_power, 1e-12)
            )
        return solve

    rows = [_timed_row(config, K, None, "benchmark", run, benchmark)]
    for q in config.q_list:
        rows.append(_timed_row(config, K, q, f"lq{q:g}", run, relaxation(q, config.n_starts)))
    rows.append(_timed_row(config, K, 1.0, "l1", run, relaxation(1.0, 1)))
    return rows


def _deflate_row(config, scfg, problem, K, q, run, algorithm) -> MetricsRow:
    def solve(row):
        result = (
            run_nlpd(problem, scfg)
            if algorithm == "nlpd"
            else run_lqmd(problem, q=q, n_starts=config.n_starts, config=scfg,
                          seed=_solver_seed(config.seed, K, run))
        )
        # Revalidate through the exact oracle before reporting.
        if result.admitted and admissible(problem, result.admitted) is None:
            raise RuntimeError("admitted set failed exact revalidation")
        row.supported = len(result.admitted)
        row.power_mw = result.total_power_mw

    return _timed_row(config, K, q, algorithm, run, solve)


def _deflate_compare_cell(config, scfg, K, run) -> list[MetricsRow]:
    problem = _make_problem(config, K, run)
    return [_deflate_row(config, scfg, problem, K, 1.0, run, "nlpd"),
            _deflate_row(config, scfg, problem, K, config.q_list[0], run, "lqmd")]


def _q_sensitivity_cell(config, scfg, K, run) -> list[MetricsRow]:
    problem = _make_problem(config, K, run)
    return [_deflate_row(config, scfg, problem, K, q, run, f"lqmd-q{q:g}") for q in config.q_list]


def _scaling_ratio_cell(config, scfg, K, run) -> list[MetricsRow]:
    # Paired setups share geometry and solver seeds; only distances scale.
    return [_deflate_row(config, scfg, _make_problem(config, K, run, distance_scale=scale),
                         K, config.q_list[0], run, name)
            for name, scale in (("lqmd-setup1", 1.0), ("lqmd-setup2", 0.707))]


# Each experiment runs one cell function per (K, run) of its grid.
_CELLS = {
    "recover-qbar": _recover_qbar_cell,
    "approx-compare": _approx_compare_cell,
    "deflate-compare": _deflate_compare_cell,
    "q-sensitivity": _q_sensitivity_cell,
    "scaling-ratio": _scaling_ratio_cell,
}
EXPERIMENTS = tuple(_CELLS)


# (summary metric, MetricsRow field) of each per-group mean, in record order.
_GROUP_MEANS = (
    ("mean_supported", "supported"),
    ("mean_power_mw", "power_mw"),
    ("match_rate", "match"),
    ("mean_qbar", "qbar"),
)


def summarize(rows: list[MetricsRow]) -> list[dict]:
    """Aggregate records for the rows of a single experiment."""
    experiments = {r.experiment for r in rows}
    if len(experiments) > 1:
        raise ValueError(f"rows mix experiments: {sorted(experiments)}")
    records: list[dict] = []
    if not rows:
        return records
    experiment = rows[0].experiment
    good = [r for r in rows if r.error is None]
    skipped = len(rows) - len(good)

    def add(K, q, algorithm, metric, value):
        records.append({"experiment": experiment, "K": K, "q": q,
                        "algorithm": algorithm, "metric": metric, "value": value})

    add(None, None, None, "rows_skipped", skipped)

    groups: dict[tuple, list[MetricsRow]] = {}
    for r in good:
        groups.setdefault((r.K, r.q, r.algorithm), []).append(r)
    for (K, q, algorithm), grp in sorted(groups.items(), key=lambda kv: (
            kv[0][0], kv[0][1] if kv[0][1] is not None else -1.0, kv[0][2])):
        for metric, name in _GROUP_MEANS:
            values = [getattr(r, name) for r in grp if getattr(r, name) is not None]
            if values:
                add(K, q, algorithm, metric, float(np.mean(values)))

    if experiment == "deflate-compare":
        for K in sorted({r.K for r in good}):
            paired = _pair_by_seed(good, K, "lqmd", "nlpd")
            lq_wins = sum(1 for a, b in paired if a.supported > b.supported)
            nl_wins = sum(1 for a, b in paired if a.supported < b.supported)
            equal = [(a, b) for a, b in paired if a.supported == b.supported]
            add(K, None, None, "lqmd_wins", lq_wins)
            add(K, None, None, "nlpd_wins", nl_wins)
            add(K, None, None, "equal_count", len(equal))
            if equal:
                add(K, None, "lqmd", "mean_power_mw_equal", float(np.mean([a.power_mw for a, _ in equal])))
                add(K, None, "nlpd", "mean_power_mw_equal", float(np.mean([b.power_mw for _, b in equal])))

    if experiment == "q-sensitivity":
        # One lqmd algorithm per q, so each mean_supported record is one q's mean.
        means = [rec for rec in records if rec["metric"] == "mean_supported"]
        for K in sorted({rec["K"] for rec in means}):
            at_K = [rec for rec in means if rec["K"] == K]
            best = max(rec["value"] for rec in at_K)
            for rec in at_K:
                add(K, rec["q"], None, "supported_deficit", rec["value"] - best)

    if experiment == "scaling-ratio":
        for K in sorted({r.K for r in good}):
            paired = _pair_by_seed(good, K, "lqmd-setup1", "lqmd-setup2")
            count_ratios = [a.supported / b.supported for a, b in paired
                            if a.supported and b.supported]
            power_ratios = [a.power_mw / b.power_mw for a, b in paired
                            if a.power_mw and b.power_mw]
            if count_ratios:
                add(K, None, None, "mean_supported_ratio", float(np.mean(count_ratios)))
            if power_ratios:
                add(K, None, None, "mean_power_ratio", float(np.mean(power_ratios)))
    return records


def _pair_by_seed(rows, K, algo_a, algo_b):
    a = {r.seed: r for r in rows if r.K == K and r.algorithm == algo_a and r.supported is not None}
    b = {r.seed: r for r in rows if r.K == K and r.algorithm == algo_b and r.supported is not None}
    return [(a[s], b[s]) for s in sorted(set(a) & set(b))]


def _to_csv(header: list[str], records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(rec[f]) for f in header] for rec in records)
    return buf.getvalue()


def rows_to_csv(rows: list[MetricsRow]) -> str:
    return _to_csv(ROW_FIELDS, map(vars, rows))


def summary_to_csv(records: list[dict]) -> str:
    return _to_csv(SUMMARY_FIELDS, records)
