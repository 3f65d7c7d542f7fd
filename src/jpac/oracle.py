"""Exact small-scale references: brute-force enumeration, an exact LP oracle,
and the heuristic grid search for the recovery exponent.

These are test-time ground truth, guarded to desk-scale sizes (the
enumeration costs 2^K linear solves, the LP oracle enumerates all K-subsets
of 3K constraints).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import kernel
from .admission import admissible
from .network import NormalizedProblem, select_alpha

ENUMERATION_GUARD = 20
LP_GUARD = 8
ZERO_TOL = 1e-9   # enumerate_l0 counts a link as served when |b - A x|_k <= ZERO_TOL


@dataclass(frozen=True)
class EnumerationResult:
    best_support: tuple[int, ...]
    best_x: np.ndarray
    objective: float
    is_unique_support: bool

    def to_json(self) -> str:
        return json.dumps({
            "best_support": list(self.best_support),
            "best_x": self.best_x.tolist(),
            "objective": self.objective,
            "is_unique_support": self.is_unique_support,
        })


def enumerate_l0(problem: NormalizedProblem) -> EnumerationResult:
    """Global optimum of the thresholded-count objective by subset sweep.

    Tests every non-empty subset with one `admissible` call, in
    `combinations` order by size, and scatters the minimum-power x_S of each
    admissible subset into one row of an (n + 1, K) array whose row 0 is
    x = 0 for the empty set.  Residual counts, powers and objectives are
    then computed for all rows at once.  Ties break toward the larger
    support, then the lower total power, then the lexicographically
    smallest set; the support is unique when no other row comes within
    1e-9 of the best objective.
    """
    if problem.alpha is None:
        raise ValueError("problem must have alpha set")
    k = problem.K
    if k > ENUMERATION_GUARD:
        raise ValueError(f"enumeration guarded to K <= {ENUMERATION_GUARD}")

    # The admissible subsets and their x_S, the empty set first.
    supports: list[tuple[int, ...]] = [()]
    values: list[np.ndarray] = [np.zeros(0)]
    for size in range(1, k + 1):
        for S in combinations(range(k), size):
            x_s = admissible(problem, S)
            if x_s is not None:
                supports.append(S)
                values.append(x_s)

    sizes = np.fromiter(map(len, supports), dtype=int, count=len(supports))
    rows = np.repeat(np.arange(len(supports)), sizes)
    cols = np.fromiter(chain.from_iterable(supports), dtype=int, count=rows.size)
    X = np.zeros((len(supports), k))
    X[rows, cols] = np.concatenate(values)
    # Stacked products work one row at a time, so each row gets the same
    # bits as A @ x and budgets @ x on that row alone.
    resid = problem.b - (problem.A @ X[:, :, None])[:, :, 0]
    power = (X[:, None, :] @ problem.budgets)[:, 0]
    obj = np.count_nonzero(np.abs(resid) > ZERO_TOL, axis=1) + problem.alpha * power

    # lexsort is stable and rows are in combinations order, which is
    # lexicographic within a size, so equal keys go to the smallest set.
    best = int(np.lexsort((power, -sizes, obj))[0])
    return EnumerationResult(
        best_support=supports[best],
        best_x=X[best].copy(),
        objective=float(obj[best]),
        is_unique_support=int(np.count_nonzero(obj <= obj[best] + 1e-9)) == 1,
    )


def lp_exact(problem: NormalizedProblem) -> np.ndarray:
    """Exact optimum of the l1 reformulation's LP by vertex enumeration.

    The polyhedron {A x <= b, 0 <= x <= e} has 3K inequality rows; every
    vertex is the solution of K active rows.  Feasibility filtering handles
    degeneracy; ties go to the lexicographically smallest x.
    """
    if problem.alpha is None:
        raise ValueError("problem must have alpha set")
    k = problem.K
    if k > LP_GUARD:
        raise ValueError(f"LP oracle guarded to K <= {LP_GUARD}")
    alpha = problem.alpha
    G = np.vstack([problem.A, np.eye(k), -np.eye(k)])
    h = np.concatenate([problem.b, np.ones(k), np.zeros(k)])

    best_x = None
    best_obj = None
    for rows in combinations(range(3 * k), k):
        sub = G[list(rows)]
        try:
            x = np.linalg.solve(sub, h[list(rows)])
        except np.linalg.LinAlgError:
            continue
        if np.any(G @ x > h + 1e-9):
            continue
        obj = float(np.sum(problem.b - problem.A @ x) + alpha * (problem.budgets @ x))
        if (
            best_obj is None
            or obj < best_obj - 1e-12
            or (abs(obj - best_obj) <= 1e-12 and tuple(x) < tuple(best_x))
        ):
            best_obj, best_x = obj, x
    if best_x is None:
        raise RuntimeError("no feasible vertex found")
    return np.clip(best_x, 0.0, 1.0)


def estimate_qbar(
    problem: NormalizedProblem,
    n_starts: int = 100,
    Q=None,
    config: kernel.SolverConfig | None = None,
    seed: int = 0,
) -> tuple[float, str]:
    """Largest grid exponent whose multistart solution matches the enumeration.

    Walks the grid from the largest q down; a match requires equal support
    sets and an infinity-norm power gap of at most 1e-3.  Returns (0.0,
    "failure") when the grid is exhausted.
    """
    if Q is None:
        Q = np.round(np.arange(0.01, 1.0 + 1e-12, 0.01), 10)
    Q = sorted(float(q) for q in Q)
    if not Q:
        raise ValueError("Q must be nonempty")
    config = config or kernel.SolverConfig()

    work = problem.with_alpha(select_alpha(problem))
    exact = enumerate_l0(work)
    exact_support = set(exact.best_support)

    for q in reversed(Q):
        aug = kernel.augment(work, q=q)
        try:
            res = kernel.multistart_solve(aug, config, n_starts, seed)
        except RuntimeError:
            # Every start hit the cap (possible at very small q); no match.
            continue
        if set(res.support) == exact_support and np.max(np.abs(res.x - exact.best_x)) <= 1e-3:
            return q, "success"
    return 0.0, "failure"
