"""Exact small-scale optimum by subset enumeration (2^K - 1 solves, guarded to
desk-scale K), the one rule for matching it, and the recovery-exponent grid
search scored by that rule.  The l1 LP oracle is in tests/reference.py.
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
ZERO_TOL = 1e-9   # enumerate_l0 counts a link as served when |b - A x|_k <= ZERO_TOL
# estimate_qbar's exponents 0.01, 0.02, ..., 1.00, ascending.
QBAR_GRID = tuple(float(q) for q in np.round(np.arange(0.01, 1.0 + 1e-12, 0.01), 10))


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


def matches_optimum(problem: NormalizedProblem, exact: EnumerationResult, x, support) -> bool:
    """Whether an answer (x, support) matches the exact optimum: the same
    support set, and total power within 1e-3 relative (in mW, 1e-12 floor)."""
    power_mw = float(problem.budgets @ x) * 1e3
    exact_mw = float(problem.budgets @ exact.best_x) * 1e3
    return (set(support) == set(exact.best_support)
            and abs(power_mw - exact_mw) <= 1e-3 * max(exact_mw, 1e-12))


def estimate_qbar(
    problem: NormalizedProblem,
    n_starts: int = 100,
    config: kernel.SolverConfig | None = None,
    seed: int = 0,
) -> tuple[float, str]:
    """Largest QBAR_GRID exponent whose multistart solution matches the enumeration.

    Walks the grid from the largest q down and stops at the first answer that
    `matches_optimum`.  Returns (0.0, "failure") when the grid is exhausted.
    It enumerates and solves at the select_alpha rule's alpha
    (`problem.with_alpha(select_alpha(problem))`), not at the alpha the
    caller's problem carries.
    """
    # Checked here too: the enumeration below costs 2^K - 1 solves before
    # multistart_solve would reject n_starts or seed.
    kernel.check_starts(n_starts, seed)
    config = config or kernel.SolverConfig()

    work = problem.with_alpha(select_alpha(problem))
    exact = enumerate_l0(work)

    for q in reversed(QBAR_GRID):
        aug = kernel.augment(work, q=q)
        try:
            res = kernel.multistart_solve(aug, config, n_starts, seed)
        except kernel.NoCleanStartError:
            # Every start hit the cap or underflowed (possible at very small q); no match.
            continue
        if matches_optimum(work, exact, res.x, res.support):
            return q, "success"
    return 0.0, "failure"
