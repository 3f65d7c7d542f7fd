"""Deflation algorithms and exact supportability primitives.

Both deflation variants share one skeleton: preprocess away links that make
an easy necessary condition fail, then alternate a power-control solve with
the removal of the strongest interferer until the remaining set is exactly
admissible, and finally try to re-admit removed links.  NLPD runs the
convex q = 1 power control from the single default start; LQMD runs the
non-convex lq power control from multiple random starts.

Every exact admissibility decision of admissible is one single-column
solve.  A has unit diagonal and non-positive off-diagonals and b > 0, so a
solution x >= 0 of A_SS x = b_S already proves that A_SS is a nonsingular
M-matrix with an entrywise nonnegative inverse (network.m_matrix_solve).
It follows that admissibility is closed under subsets: dropping a link only
removes interference.  postprocess decides all candidates of a scan from
one solve with the current set's matrix, through the Schur complement of
each bordered matrix (_bordered_scan).

Index convention: every set handed to these functions, and every link that
run_nlpd / run_lqmd report, is a row position of the problem argument.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernel
from .network import NormalizedProblem, index_set, m_matrix_solve, restrict, select_alpha

ADMISSIBLE_ATOL = 1e-10   # bound slack of the [0, 1] test on x_S


@dataclass
class AdmissionResult:
    """Admitted links, their minimum-power allocation, and the removal trace."""

    admitted: list[int]                 # row positions of the problem, ascending
    powers_w: np.ndarray                # per-admitted-link power, watts
    removal_trace: list[dict]           # {"link": position, "stage": ..., ...} in removal order
    readmitted: list[int]               # row positions, ascending
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


def _admissible_rows(problem: NormalizedProblem, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clipped minimum-power x and [0, 1] verdict per sorted index row, idx of shape (m,) or (n, m).

    One m_matrix_solve covers every row; NaN, from a singular block, fails.  Read passing rows only.
    """
    x = m_matrix_solve(problem.A[idx[..., :, None], idx[..., None, :]], problem.b[idx])
    ok = (x.min(axis=-1) >= -ADMISSIBLE_ATOL) & (x.max(axis=-1) <= 1.0 + ADMISSIBLE_ATOL)
    # A rejected single set, as most of the oracle's are, skips the clip: ~10% of the call.
    return (x if idx.ndim == 1 and not ok else np.minimum(np.maximum(x, 0.0), 1.0)), ok


def admissible(problem: NormalizedProblem, S) -> np.ndarray | None:
    """Minimum-power x_S if S is admissible, else None.

    S is admissible iff A_SS x = b_S has a solution inside [0, 1]^|S| (other
    links silent).  A_SS is a Z-matrix and b_S > 0, so x >= 0 already
    certifies that A_SS is a nonsingular M-matrix with A_SS^{-1} >= 0 (see
    network.m_matrix_solve); no inverse columns are needed.  S is checked
    as restrict checks it.
    """
    x_s, ok = _admissible_rows(problem, index_set(S, problem.K))
    return x_s if ok else None


def _necessary(mu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(max(mu, 0)) >= sum((max(-mu, 0) + 1) o b), with mu = A^T e the column sums of A.

    mu and b are one link set's (K,) vectors, or (n, K) stacks of one set per row.
    """
    return np.sum(np.maximum(mu, 0.0), axis=-1) - np.sum((np.maximum(-mu, 0.0) + 1.0) * b, axis=-1) >= 0.0


def preprocess(problem: NormalizedProblem) -> tuple[list[int], list[int]]:
    """Iteratively drop the heaviest interferer until the necessary condition holds.

    Returns the kept positions (ascending) and the removed positions of the
    input problem in removal order.  The last remaining link is never
    removed, and ties go to the smallest index.

    Where the loop stops does not change which link goes next, so all K - 1
    removals are made first, scoring each link by row sum + column sum of
    |A| (diagonal zeroed) + b.  The sums are running sums: a removal
    subtracts the removed link's column and row.  The stopping point is then
    the shortest prefix of that order whose kept set meets the necessary
    condition, found by one stacked test over all prefixes: row t holds
    mu = A^T e minus the first t removed rows of A, subtracted in removal
    order, with the removed links masked to 0.
    """
    A, b, k = problem.A, problem.b, problem.K
    absA = np.abs(A)
    np.fill_diagonal(absA, 0.0)
    sums = np.stack([absA.sum(axis=1), absA.sum(axis=0)])
    lines = np.stack([absA.T, absA], axis=1)      # lines[r]: link r's column and row of |A|
    row, col = sums
    score = np.empty(k)
    order: list[int] = []
    for _ in range(k - 1):
        np.add(row, col, out=score)
        score += b
        # A removed link's row sum is -inf, so it never scores highest again;
        # argmax takes the first maximum, so ties go to the smallest index.
        r = int(score.argmax())
        order.append(r)
        row[r] = -np.inf
        sums -= lines[r]
    mu = np.cumsum(np.vstack([A.T @ np.ones(k), -A[order]]), axis=0)
    removed_at = np.full(k, k)          # the prefix length that first leaves a link out
    removed_at[order] = np.arange(1, k)
    kept = removed_at > np.arange(k)[:, None]
    met = _necessary(np.where(kept, mu, 0.0), np.where(kept, b, 0.0))
    t = int(np.argmax(met)) if met.any() else k - 1
    return np.flatnonzero(kept[t]).tolist(), order[:t]


def removal_candidate(problem: NormalizedProblem, x) -> int:
    """Index of the link to drop, scored from the residuals of an approximate x."""
    x = np.asarray(x, dtype=float)
    r = problem.b - problem.A @ x
    absA = np.abs(problem.A)
    np.fill_diagonal(absA, 0.0)
    scores = absA @ r + r * absA.sum(axis=0)
    return int(np.argmax(scores))


def _bordered_scan(problem: NormalizedProblem, current: list[int], pending: list[int]) -> np.ndarray:
    """Admissibility of current + [p] for each p in pending, from one solve with A_CC.

    current is an admissible set C, so A_CC is a nonsingular M-matrix.  One
    solve gives A_CC [x_C | Y] = [b_C | A_CP].  Bordering A_CC with link p
    gives a nonsingular M-matrix iff its Schur complement
    s_p = 1 - a_pC Y_p is positive (Berman & Plemmons, ch. 6); then
    x_p = (b_p - a_pC x_C) / s_p and x_C' = x_C - Y_p x_p solve the bordered
    system, and p passes iff both lie in the [0, 1] box up to ADMISSIBLE_ATOL.
    A link with s_p <= 0 fails without being divided by s_p.  With C empty,
    p alone passes iff b_p <= 1.
    """
    A, b, P = problem.A, problem.b, np.asarray(pending)
    lo, hi = -ADMISSIBLE_ATOL, 1.0 + ADMISSIBLE_ATOL
    if not current:
        return b[P] <= hi
    C = np.asarray(current)
    try:
        sol = np.linalg.solve(A[np.ix_(C, C)], np.column_stack([b[C], A[np.ix_(C, P)]]))
    except np.linalg.LinAlgError:
        return np.zeros(P.size, dtype=bool)     # A_CC singular: no superset of C is admissible
    x_c, Y = sol[:, 0], sol[:, 1:].T            # Y[i] = A_CC^{-1} a_{C, pending[i]}
    A_PC = A[np.ix_(P, C)]
    s = 1.0 - np.sum(A_PC * Y, axis=1)
    positive = s > 0.0
    x_p = (b[P] - A_PC @ x_c) / np.where(positive, s, 1.0)
    x_C = x_c - Y * x_p[:, None]                # row i: x_C' of current + [pending[i]]
    return positive & (x_p >= lo) & (x_p <= hi) & (x_C.min(axis=1) >= lo) & (x_C.max(axis=1) <= hi)


def postprocess(problem: NormalizedProblem, admitted, removed) -> tuple[list[int], np.ndarray | None]:
    """Re-admit removed links into the admissible set admitted, in reverse removal order.

    Each scan tests every remaining candidate against the current set with
    one bordered solve (_bordered_scan), admits the first that passes, and
    continues after it.  Admissibility is closed under subsets, so a link
    that fails against a set also fails against every superset: a second
    pass over the rejected links could admit nothing, and one reverse pass
    is the fixpoint.

    Returns the sorted final set and its minimum-power x from one admissible
    solve of that set; x is None when nothing was readmitted.  A final set
    that the bordered scans passed but the direct solve rejects raises
    RuntimeError.
    """
    current = sorted(admitted)
    n_admitted = len(current)
    pending = list(reversed(removed))
    while pending:
        passed = np.flatnonzero(_bordered_scan(problem, current, pending))
        if passed.size == 0:
            break
        first = int(passed[0])
        current = sorted(current + [pending[first]])
        pending = pending[first + 1:]
    if len(current) == n_admitted:
        return current, None
    x = admissible(problem, current)
    if x is None:
        raise RuntimeError(f"readmitted set {current} fails the direct admissibility solve")
    return current, x


def _deflate(
    problem: NormalizedProblem,
    config: kernel.SolverConfig,
    q: float,
    n_starts: int,
    seed: int,
    reselect_alpha: bool,
) -> AdmissionResult:
    """Shared NLPD / LQMD skeleton; LQMD reselects alpha on each round's sub-problem."""
    base = problem
    removal_trace: list[dict] = []
    # ridge_retries sums KktCertificate.ridge_retries over every start;
    # terminations counts the starts per termination string;
    # max_primal_residual is the largest KktCertificate.primal_residual.
    stats = {"solver_calls": 0, "total_iterations": 0, "ridge_retries": 0, "terminations": {},
             "max_primal_residual": 0.0}

    # keep and removed are positions of base; restrict keeps keep's ascending
    # order, so row i of a round's sub-problem is keep[i].
    keep, removed = preprocess(base)
    for pos in removed:
        removal_trace.append({"link": pos, "stage": "preprocess"})

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
        link = keep.pop(removal_candidate(sub, res.x))
        removal_trace.append({"link": link, "stage": "deflate", "round": round_idx})
        removed.append(link)
        round_idx += 1

    final, x_final = postprocess(base, keep, removed)
    readmitted = sorted(set(final) - set(keep))

    # The powers come from a direct solve of the final set: postprocess's when
    # it readmitted a link, else the loop's exit check.
    if x_final is None:
        x_final = x_keep if keep else np.zeros(0)   # empty: no link is admissible, even alone
    powers_w = x_final * base.budgets[final]
    return AdmissionResult(
        admitted=final,
        powers_w=powers_w,
        removal_trace=removal_trace,
        readmitted=readmitted,
        stats=stats,
    )


def run_nlpd(problem: NormalizedProblem, config: kernel.SolverConfig | None = None) -> AdmissionResult:
    """Deflation with the convex q = 1 power control from the default start."""
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
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    config = config or kernel.SolverConfig()
    return _deflate(problem, config, q=q, n_starts=n_starts, seed=seed, reselect_alpha=True)
