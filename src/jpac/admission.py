"""Deflation algorithms and exact supportability primitives.

Both deflation variants share one skeleton: preprocess away links that make
an easy necessary condition fail, then alternate a power-control solve with
the removal of the strongest interferer until the remaining set is exactly
admissible, and finally try to re-admit removed links.  NLPD runs the
convex q = 1 power control from the single default start; LQMD runs the
non-convex lq power control from multiple random starts.

Every exact admissibility decision is one single-column solve.  A has unit
diagonal and non-positive off-diagonals and b > 0, so a solution x >= 0 of
A_SS x = b_S already proves that A_SS is a nonsingular M-matrix with an
entrywise nonnegative inverse (network.m_matrix_solve).  It follows that
admissibility is closed under subsets: dropping a link only removes
interference.

Index convention: every set handed to these functions is a set of row
positions of the problem argument.  run_nlpd / run_lqmd report original
link ids (via link_ids) in their results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernel
from .network import NormalizedProblem, m_matrix_solve, restrict, select_alpha

ADMISSIBLE_ATOL = 1e-10   # bound slack of the [0, 1] test on x_S


@dataclass
class AdmissionResult:
    """Admitted links, their minimum-power allocation, and the removal trace."""

    admitted: list[int]                 # original link ids, ascending
    powers_w: np.ndarray                # per-admitted-link power, watts
    removal_trace: list[dict]           # {"link": id, "stage": ..., ...} in removal order
    readmitted: list[int]
    stats: dict

    @property
    def total_power_mw(self) -> float:
        return float(np.sum(self.powers_w)) * 1e3

    def to_json(self) -> str:
        return json.dumps({
            "admitted": self.admitted,
            "powers_mw": (np.asarray(self.powers_w) * 1e3).tolist(),
            "removal_trace": self.removal_trace,
            "readmitted": self.readmitted,
            "stats": self.stats,
        })


def _within_box(lo, hi):
    """-ADMISSIBLE_ATOL <= lo and hi <= 1 + ADMISSIBLE_ATOL, for lo and hi the min and max of x.

    Takes scalars (one x) or per-row arrays (a stack); NaN fails both tests.
    """
    return (lo >= -ADMISSIBLE_ATOL) & (hi <= 1.0 + ADMISSIBLE_ATOL)


def admissible(problem: NormalizedProblem, S) -> np.ndarray | None:
    """Minimum-power x_S if S is admissible, else None.

    S is admissible iff A_SS x = b_S has a solution inside [0, 1]^|S| (other
    links silent).  A_SS is a Z-matrix and b_S > 0, so x >= 0 already
    certifies that A_SS is a nonsingular M-matrix with A_SS^{-1} >= 0 (see
    network.m_matrix_solve); no inverse columns are needed.  A singular
    A_SS yields NaN, which the bound test rejects.
    """
    idx = np.asarray(sorted(S), dtype=int)
    if idx.size == 0:
        raise ValueError("S must be nonempty")
    x_s = m_matrix_solve(problem.A[idx[:, None], idx], problem.b[idx])
    if not _within_box(x_s.min(), x_s.max()):
        return None
    return np.minimum(np.maximum(x_s, 0.0), 1.0)


def foschini_miljanic(
    problem: NormalizedProblem, S, x0=None, tol: float = 1e-12, max_iter: int = 100_000
) -> np.ndarray:
    """Fixed-point power control x+ = b_S + (I - A)_SS x on an admissible S."""
    idx = np.asarray(sorted(S), dtype=int)
    b_s = problem.b[idx]
    B = np.eye(idx.size) - problem.A[np.ix_(idx, idx)]
    x = np.zeros(idx.size) if x0 is None else np.asarray(x0, dtype=float).copy()
    if np.any(x < 0):
        raise ValueError("x0 must be nonnegative")
    for _ in range(max_iter):
        x_next = b_s + B @ x
        if np.max(np.abs(x_next - x)) <= tol:
            return x_next
        x = x_next
    raise RuntimeError("fixed-point iteration did not converge (set numerically marginal)")


def _necessary(mu: np.ndarray, b: np.ndarray) -> bool:
    # mu = A^T e, the column sums of A.
    mu_pos = np.maximum(mu, 0.0)
    mu_neg = np.maximum(-mu, 0.0)
    return float(np.sum(mu_pos) - (mu_neg + 1.0) @ b) >= 0.0


def necessary_condition(problem: NormalizedProblem) -> bool:
    """Easy-to-check necessary condition for all links to be supportable."""
    return _necessary(problem.A.T @ np.ones(problem.K), problem.b)


def preprocess(problem: NormalizedProblem) -> tuple[list[int], list[int]]:
    """Iteratively drop the heaviest interferer until the necessary condition holds.

    Returns the kept positions (ascending) and the removed positions of the
    input problem in removal order.  The last remaining link is never
    removed, and ties go to the smallest index.  The row and column sums of
    |A| (diagonal zeroed) and A^T e are carried as running sums: a removal
    subtracts the removed link's column and row.
    """
    A, b = problem.A, problem.b
    absA = np.abs(A)
    np.fill_diagonal(absA, 0.0)
    row, col, mu = absA.sum(axis=1), absA.sum(axis=0), A.T @ np.ones(problem.K)
    kept = np.ones(problem.K, dtype=bool)
    removed: list[int] = []
    while len(removed) <= problem.K - 2 and not _necessary(mu[kept], b[kept]):
        # argmax takes the first maximum, so ties go to the smallest kept index.
        r = int(np.argmax(np.where(kept, row + col + b, -np.inf)))
        kept[r] = False
        removed.append(r)
        row -= absA[:, r]
        col -= absA[r]
        mu -= A[r]
    return np.flatnonzero(kept).tolist(), removed


def removal_candidate(problem: NormalizedProblem, x) -> int:
    """Index of the link to drop, scored from the residuals of an approximate x."""
    x = np.asarray(x, dtype=float)
    r = problem.b - problem.A @ x
    absA = np.abs(problem.A)
    np.fill_diagonal(absA, 0.0)
    scores = absA @ r + r * absA.sum(axis=0)
    return int(np.argmax(scores))


def postprocess(problem: NormalizedProblem, admitted, removed) -> tuple[list[int], np.ndarray | None]:
    """Re-admit removed links, trying them in reverse removal order.

    Each scan tests every remaining candidate against the current set in one
    stacked solve, admits the first that passes, and continues after it.
    Admissibility is closed under subsets, so a link that fails against a
    set also fails against every superset: a second pass over the rejected
    links could admit nothing, and one reverse pass is the fixpoint.

    Returns the sorted final set and the minimum-power x of its last
    admitting scan, over that sorted set as admissible returns it; x is None
    when nothing was readmitted.
    """
    current = sorted(admitted)
    pending = list(reversed(removed))
    x_current = None
    while pending:
        # Row i holds the sorted positions of current + [pending[i]].
        idx = np.sort(np.column_stack([np.tile(np.asarray(current, dtype=int), (len(pending), 1)),
                                       pending]), axis=1)
        x = m_matrix_solve(problem.A[idx[:, :, None], idx[:, None, :]], problem.b[idx])
        passed = np.flatnonzero(_within_box(x.min(axis=1), x.max(axis=1)))
        if passed.size == 0:
            break
        first = int(passed[0])
        current = sorted(current + [pending[first]])
        x_current = np.clip(x[first], 0.0, 1.0)
        pending = pending[first + 1:]
    return current, x_current


def _deflate(
    problem: NormalizedProblem,
    config: kernel.SolverConfig,
    q: float,
    n_starts: int,
    seed: int,
    reselect_alpha: bool,
) -> AdmissionResult:
    """Shared NLPD / LQMD skeleton on a problem whose alpha is already set."""
    base = problem
    removal_trace: list[dict] = []
    # ridge_retries sums KktCertificate.ridge_retries over every start;
    # terminations counts the starts per termination string;
    # max_primal_residual is the largest KktCertificate.primal_residual.
    stats = {"solver_calls": 0, "total_iterations": 0, "ridge_retries": 0, "terminations": {},
             "max_primal_residual": 0.0}

    # keep and removed are positions of base; restrict keeps keep's ascending
    # order, so position k0 of a round's subproblem is keep[k0].
    keep, removed = preprocess(base)
    for pos in removed:
        removal_trace.append({"link": int(base.link_ids[pos]), "stage": "preprocess"})

    round_idx = 0
    # x_keep is the minimum-power x of keep once the exit check accepts it.
    while keep and (x_keep := admissible(base, keep)) is None:
        sub = restrict(base, keep)
        if reselect_alpha:
            sub = sub.with_alpha(select_alpha(sub))
        res = kernel.multistart_solve(kernel.augment(sub, q=q), config, n_starts, seed + round_idx)
        stats["solver_calls"] += n_starts
        stats["total_iterations"] += res.total_iterations
        for cert in res.certificates:
            stats["ridge_retries"] += cert.ridge_retries
            stats["max_primal_residual"] = max(stats["max_primal_residual"], cert.primal_residual)
            stats["terminations"][cert.termination] = stats["terminations"].get(cert.termination, 0) + 1
        k0 = removal_candidate(sub, res.x)
        removal_trace.append({
            "link": int(sub.link_ids[k0]),
            "stage": "deflate",
            "round": round_idx,
        })
        removed.append(keep.pop(k0))
        round_idx += 1

    final, x_final = postprocess(base, keep, removed)
    readmitted = sorted(int(base.link_ids[p]) for p in set(final) - set(keep))

    # The powers come from the solve that accepted the final set: the last
    # readmitting scan, else the loop's exit check.
    if x_final is None:
        x_final = x_keep if keep else np.zeros(0)   # empty: no link is admissible, even alone
    powers_w = x_final * base.budgets[final]
    return AdmissionResult(
        admitted=sorted(int(base.link_ids[p]) for p in final),
        powers_w=powers_w,
        removal_trace=removal_trace,
        readmitted=readmitted,
        stats=stats,
    )


def run_nlpd(problem: NormalizedProblem, config: kernel.SolverConfig | None = None) -> AdmissionResult:
    """Deflation with the convex q = 1 power control from the default start."""
    if problem.alpha is None:
        raise ValueError("problem must have alpha set")
    config = config or kernel.SolverConfig()
    return _deflate(problem, config, q=1.0, n_starts=1, seed=0, reselect_alpha=False)


def run_lqmd(
    problem: NormalizedProblem,
    q: float,
    n_starts: int,
    config: kernel.SolverConfig | None = None,
    seed: int = 0,
) -> AdmissionResult:
    """Deflation with the non-convex lq power control from n_starts starts.

    alpha is recomputed by select_alpha on every deflation round's
    restricted problem.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    config = config or kernel.SolverConfig()
    work = problem.with_alpha(select_alpha(problem))
    return _deflate(work, config, q=q, n_starts=n_starts, seed=seed, reselect_alpha=True)
