"""Deflation algorithms and exact supportability primitives.

Both deflation variants share one skeleton: preprocess away links that make
an easy necessary condition fail, then alternate a power-control solve with
the removal of the strongest interferer until the remaining set is exactly
admissible, and finally try to re-admit removed links.  NLPD runs the
convex q = 1 power control from the single default start; LQMD runs the
non-convex lq power control from multiple random starts.

Index convention: every set handed to these functions is a set of row
positions of the problem argument.  run_nlpd / run_lqmd report original
link ids (via link_ids) in their results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernel
from .network import NormalizedProblem, restrict, select_alpha


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


def admissible(problem: NormalizedProblem, S, atol: float = 1e-10) -> np.ndarray | None:
    """Minimum-power x_S if S is admissible, else None.

    S is admissible iff A_SS x = b_S has a solution inside [0, 1]^|S| (other
    links silent).  On success the solve's column responses also certify
    that A_SS^{-1} is entrywise nonnegative; a violation beyond tolerance is
    treated as numerically inadmissible.
    """
    idx = np.asarray(sorted(S), dtype=int)
    if idx.size == 0:
        raise ValueError("S must be nonempty")
    A_ss = problem.A[np.ix_(idx, idx)]
    rhs = np.column_stack([problem.b[idx], np.eye(idx.size)])
    try:
        sol = np.linalg.solve(A_ss, rhs)
    except np.linalg.LinAlgError:
        return None
    x_s, inv = sol[:, 0], sol[:, 1:]
    if np.any(x_s < -atol) or np.any(x_s > 1.0 + atol):
        return None
    if np.any(inv < -atol):
        return None
    return np.clip(x_s, 0.0, 1.0)


def min_power_allocation(problem: NormalizedProblem, S) -> np.ndarray:
    """Full-length minimum-power vector supporting exactly the links in S."""
    idx = np.asarray(sorted(S), dtype=int)
    x_s = admissible(problem, idx)
    if x_s is None:
        raise ValueError("S is not admissible")
    x = np.zeros(problem.K)
    x[idx] = x_s
    return x


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


def _necessary(A: np.ndarray, b: np.ndarray) -> bool:
    mu = A.T @ np.ones(b.size)
    mu_pos = np.maximum(mu, 0.0)
    mu_neg = np.maximum(-mu, 0.0)
    return float(np.sum(mu_pos) - (mu_neg + 1.0) @ b) >= 0.0


def necessary_condition(problem: NormalizedProblem) -> bool:
    """Easy-to-check necessary condition for all links to be supportable."""
    return _necessary(problem.A, problem.b)


def _preprocess_scores(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    absA = np.abs(A)
    np.fill_diagonal(absA, 0.0)
    return absA.sum(axis=1) + absA.sum(axis=0) + b


def _preprocess_positions(problem: NormalizedProblem) -> tuple[list[int], list[int]]:
    """Kept and removed positions of the preprocess loop (see preprocess)."""
    keep = list(range(problem.K))
    removed: list[int] = []
    A, b = problem.A, problem.b
    while len(keep) >= 2 and not _necessary(A, b):
        k0 = int(np.argmax(_preprocess_scores(A, b)))  # argmax takes the first maximum
        removed.append(keep.pop(k0))
        A, b = problem.A[np.ix_(keep, keep)], problem.b[keep]
    return keep, removed


def preprocess(problem: NormalizedProblem) -> tuple[NormalizedProblem, list[int]]:
    """Iteratively drop the heaviest interferer until the necessary condition holds.

    Removed entries are positions of the *input* problem; the last remaining
    link is never removed.  Ties go to the smallest index.  The loop works on
    slices of A and b; the remaining links are restricted once at the end.
    """
    keep, removed = _preprocess_positions(problem)
    return (restrict(problem, keep) if removed else problem), removed


def removal_candidate(problem: NormalizedProblem, x) -> int:
    """Index of the link to drop, scored from the residuals of an approximate x."""
    x = np.asarray(x, dtype=float)
    r = problem.b - problem.A @ x
    absA = np.abs(problem.A)
    np.fill_diagonal(absA, 0.0)
    scores = absA @ r + r * absA.sum(axis=0)
    return int(np.argmax(scores))


def postprocess(problem: NormalizedProblem, admitted, removed) -> list[int]:
    """Re-admit removed links (reverse removal order, passes to fixpoint)."""
    current = sorted(admitted)
    pending = list(removed)
    changed = True
    while changed and pending:
        changed = False
        for link in reversed(list(pending)):
            if admissible(problem, current + [link]) is not None:
                current = sorted(current + [link])
                pending.remove(link)
                changed = True
    return current


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
    # terminations counts the starts per termination string.
    stats = {"solver_calls": 0, "total_iterations": 0, "ridge_retries": 0, "terminations": {}}

    keep, removed_pre = _preprocess_positions(base)
    for pos in removed_pre:
        removal_trace.append({"link": int(base.link_ids[pos]), "stage": "preprocess"})

    round_idx = 0
    while keep and admissible(base, keep) is None:
        sub = restrict(base, keep)
        if reselect_alpha:
            sub = sub.with_alpha(select_alpha(sub))
        res = kernel.multistart_solve(kernel.augment(sub, q=q), config, n_starts, seed + round_idx)
        stats["solver_calls"] += n_starts
        stats["total_iterations"] += res.total_iterations
        for cert in res.certificates:
            stats["ridge_retries"] += cert.ridge_retries
            stats["terminations"][cert.termination] = stats["terminations"].get(cert.termination, 0) + 1
        k0 = removal_candidate(sub, res.x)
        removal_trace.append({
            "link": int(sub.link_ids[k0]),
            "stage": "deflate",
            "round": round_idx,
        })
        keep.pop(k0)
        round_idx += 1

    removed_positions = [pos for pos in range(base.K) if pos not in set(keep)]
    removal_order = {rec["link"]: i for i, rec in enumerate(removal_trace)}
    removed_positions.sort(key=lambda pos: removal_order[int(base.link_ids[pos])])
    final = postprocess(base, keep, removed_positions)
    readmitted = sorted(int(base.link_ids[p]) for p in set(final) - set(keep))

    if final:
        powers_w = min_power_allocation(base, final)[final] * base.budgets[final]
    else:  # no link is admissible, even alone
        powers_w = np.zeros(0)
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

    alpha is recomputed by the spectral-radius rule on every deflation
    round's restricted problem.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    config = config or kernel.SolverConfig()
    work = problem.with_alpha(select_alpha(problem))
    return _deflate(work, config, q=q, n_starts=n_starts, seed=seed, reselect_alpha=True)
