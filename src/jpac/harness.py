"""Monte-Carlo experiment driver reproducing the desk-scale comparisons.

Every experiment is one entry of one table, _RUNS, of the runs of its
(K, run) cells, and run_experiment is the one loop over that grid: it
generates each cell's instance from a child seed stream, executes the
entry's runs, and emits one flat CSV row per (instance, algorithm).  A
second long-format CSV holds aggregates (means, win counts, ratios);
aggregates carry no information absent from the rows.  A deflation row
reports the admitted set as the run returns it, exactly admissible.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import kernel
from .admission import admissible, run_lqmd, run_nlpd
from .network import is_int, is_real, json_object, normalize
from .oracle import ENUMERATION_GUARD, EnumerationResult, enumerate_l0, estimate_qbar, matches_optimum
from .scenario import ScenarioConfig, generate

SUMMARY_FIELDS = ["experiment", "K", "q", "algorithm", "metric", "value"]


@dataclass
class ExperimentConfig:
    experiment: str
    K_list: list[int] = field(default_factory=lambda: [5])
    runs: int = 100
    q_list: list[float] | None = None
    n_starts: int = 5
    # 1e-6 keeps the q ~ 1 residuals well below the support threshold.
    epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.experiment not in _RUNS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choose from {tuple(_RUNS)}")
        # JSON gives any value any type; a wrong one must fail here, by name,
        # not as a TypeError deep inside a run.
        if not (is_int(self.runs) and self.runs >= 0):
            raise ValueError(f"runs must be a nonnegative integer, got {self.runs!r}")
        kernel.check_starts(self.n_starts, self.seed)
        kernel.SolverConfig(epsilon=self.epsilon)   # raises on a bad value
        if not isinstance(self.K_list, list) or not all(map(is_int, self.K_list)):
            raise ValueError("K_list must be a list of integers")
        # A repeated value would run its cells again and emit their rows twice.
        if len(set(self.K_list)) != len(self.K_list):
            raise ValueError(f"K_list must not repeat a value, got {self.K_list}")
        if any(K < 1 for K in self.K_list):
            raise ValueError("all K in K_list must be at least 1")
        # recover-qbar walks estimate_qbar's own q grid and takes no q_list.
        if self.experiment == "recover-qbar":
            if self.q_list is not None:
                raise ValueError("recover-qbar takes no q_list: estimate_qbar walks its own q grid")
        else:
            if self.q_list is None:
                self.q_list = [0.5]
            if not isinstance(self.q_list, list) or not all(map(is_real, self.q_list)):
                raise ValueError("q_list must be a list of numbers")
            if len(set(self.q_list)) != len(self.q_list):
                raise ValueError(f"q_list must not repeat a value, got {self.q_list}")
            if not self.q_list:
                raise ValueError("q_list must not be empty")
            if any(not (0.0 < q <= 1.0) for q in self.q_list):
                raise ValueError("all q must lie in (0, 1]")
        # The other rules read the entry's own runs, so a new entry gets them without an edit here.
        runs = _RUNS[self.experiment](self)
        solves = {getattr(solve, "func", solve) for *_, solve in runs}
        # Unchecked, every cell would fail at the enumeration guard, and each row matched against its optimum with it.
        if solves & _ENUMERATING and any(K > ENUMERATION_GUARD for K in self.K_list):
            raise ValueError(f"{self.experiment} enumerates subsets: "
                             f"all K in K_list must be at most {ENUMERATION_GUARD}")
        q_list = self.q_list or []
        # Unchecked, a q that no run takes would be ignored.
        unused = sorted(set(q_list) - {q for _, q, *_ in runs})
        if unused:
            raise ValueError(f"{self.experiment} runs no q in {unused}: q_list may hold only the q of its runs")
        if 1.0 in q_list and _lqmd in solves:
            raise ValueError(f"{self.experiment} runs LQMD, which needs q < 1: q_list must not hold 1")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json_object(text, "config", ("experiment",), [f.name for f in fields(cls)]))


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


def _seed(master: int, K: int, run: int, *stream: int) -> int:
    # A cell's instance seed; stream (1,) keeps its solver stream apart from it.
    return int(np.random.SeedSequence(entropy=[master, K, run, *stream]).generate_state(1)[0])


def _grid_key(K: int, q: float | None, algorithm: str) -> tuple:
    """The order of rows and of summary groups: K, then q (none first), then algorithm."""
    return (K, -1.0 if q is None else q, algorithm)


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


@dataclass
class _Cell:
    """What the runs of one (K, run) grid cell share; an exact run sets optimum for the runs after it."""
    scfg: kernel.SolverConfig
    n_starts: int
    seed: int   # the cell's solver seed
    optimum: EnumerationResult | None = None


def _qbar(row, problem, cell):
    row.qbar, status = estimate_qbar(problem, n_starts=cell.n_starts, config=cell.scfg, seed=cell.seed)
    row.match = status == "success"


def _exact(row, problem, cell):
    cell.optimum = enumerate_l0(problem)
    row.supported = len(cell.optimum.best_support)
    row.power_mw = float(problem.budgets @ cell.optimum.best_x) * 1e3
    row.match = True


# The solves that call enumerate_l0, which is guarded to K <= ENUMERATION_GUARD.
_ENUMERATING = {_exact, _qbar}


def _lq(row, problem, cell, n_starts=None):
    """The row's q relaxation from the cell's starts (or n_starts), matched against the cell's optimum."""
    aug = kernel.augment(problem, q=row.q)
    res = kernel.multistart_solve(aug, cell.scfg, n_starts or cell.n_starts, cell.seed)
    row.supported = _revalidated_support(problem, res.x, res.support)
    row.power_mw = float(problem.budgets @ res.x) * 1e3
    row.match = matches_optimum(problem, cell.optimum, res.x, res.support)


def _nlpd(row, problem, cell):
    result = run_nlpd(problem, cell.scfg)
    row.supported, row.power_mw = len(result.admitted), result.total_power_mw


def _lqmd(row, problem, cell):
    result = run_lqmd(problem, q=row.q, n_starts=cell.n_starts, config=cell.scfg, seed=cell.seed)
    row.supported, row.power_mw = len(result.admitted), result.total_power_mw


# The (algorithm, q, distance scale, solve) runs of each experiment's cell,
# given its config; solve(row, problem, cell) fills in the row.  Runs at one
# distance scale share one instance; paired setups share geometry and solver
# seeds, and only distances scale.  l1 is the q = 1 relaxation from the
# default start alone.
_RUNS = {
    "recover-qbar": lambda c: [("lq-recovery", None, 1.0, _qbar)],
    "approx-compare": lambda c: [("benchmark", None, 1.0, _exact),
                                 *[(f"lq{q:g}", q, 1.0, _lq) for q in c.q_list],
                                 ("l1", 1.0, 1.0, partial(_lq, n_starts=1))],
    "deflate-compare": lambda c: [("nlpd", 1.0, 1.0, _nlpd), ("lqmd", c.q_list[0], 1.0, _lqmd)],
    "q-sensitivity": lambda c: [(f"lqmd-q{q:g}", q, 1.0, _lqmd) for q in c.q_list],
    "scaling-ratio": lambda c: [("lqmd-setup1", c.q_list[0], 1.0, _lqmd),
                                ("lqmd-setup2", c.q_list[0], 0.707, _lqmd)],
}
EXPERIMENTS = tuple(_RUNS)


def run_experiment(config: ExperimentConfig) -> tuple[list[MetricsRow], list[dict]]:
    """One row per run of the experiment on each (K, run) cell; a run's exception is its row's error."""
    scfg = kernel.SolverConfig(epsilon=config.epsilon)
    runs = _RUNS[config.experiment](config)
    rows = []
    for K in config.K_list:
        for run in range(config.runs):
            cell, problems = _Cell(scfg, config.n_starts, _seed(config.seed, K, run, 1)), {}
            for algorithm, q, scale, solve in runs:
                if scale not in problems:
                    scen = ScenarioConfig(K=K, seed=_seed(config.seed, K, run), distance_scale=scale)
                    problems[scale] = normalize(generate(scen))
                row = MetricsRow(config.experiment, K, q, algorithm, run)
                t0 = time.perf_counter()
                try:
                    solve(row, problems[scale], cell)
                except Exception as exc:  # pragma: no cover - recorded, not raised
                    row.error = repr(exc)
                row.runtime_ms = (time.perf_counter() - t0) * 1e3
                rows.append(row)
    rows.sort(key=lambda r: (*_grid_key(r.K, r.q, r.algorithm), r.seed))
    return rows, summarize(rows)


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
    for (K, q, algorithm), grp in sorted(groups.items(), key=lambda kv: _grid_key(*kv[0])):
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
