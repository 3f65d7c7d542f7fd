"""Reference formulations that the tests check jpac against.

None of this runs in jpac itself.  Each function is either an independent
route to an answer jpac computes another way, or an older, longer
formulation that a jpac primitive replaced:

- lp_exact: the l1 reformulation's LP optimum by vertex enumeration;
- foschini_miljanic: fixed-point power control, against admissible's solve;
- necessary_condition: the full-set necessary condition, on jpac's own
  admission._necessary, which preprocess runs;
- a_tilde / b_tilde: the slack form A~ and b~ that the kernel works on as
  blocks;
- potential: phi = rho log f - sum log w, which the kernel's solve works
  out from the objective it already holds;
- admissible, postprocess, preprocess: the identity-column admissibility
  solve, the sequential re-admission loop and the re-slicing preprocess
  loop.
"""

from itertools import combinations

import numpy as np

from jpac.admission import _necessary
from jpac.kernel import AugmentedProblem, _batch_objective
from jpac.network import NormalizedProblem

LP_GUARD = 8


def lp_exact(problem: NormalizedProblem) -> np.ndarray:
    """Exact optimum of the l1 reformulation's LP by vertex enumeration.

    The polyhedron {A x <= b, 0 <= x <= e} has 3K inequality rows; every
    vertex is the solution of K active rows.  Feasibility filtering handles
    degeneracy; ties go to the lexicographically smallest x.
    """
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


def foschini_miljanic(problem: NormalizedProblem, S) -> np.ndarray:
    """Fixed-point power control x+ = b_S + (I - A)_SS x from x = 0, on an admissible S."""
    idx = np.asarray(sorted(S), dtype=int)
    b_s = problem.b[idx]
    B = np.eye(idx.size) - problem.A[np.ix_(idx, idx)]
    x = np.zeros(idx.size)
    for _ in range(100_000):
        x_next = b_s + B @ x
        if np.max(np.abs(x_next - x)) <= 1e-12:
            return x_next
        x = x_next
    raise RuntimeError("fixed-point iteration did not converge (set numerically marginal)")


def necessary_condition(problem: NormalizedProblem) -> bool:
    """Easy-to-check necessary condition for all links to be supportable."""
    return bool(_necessary(problem.A.T @ np.ones(problem.K), problem.b))


def a_tilde(aug: AugmentedProblem) -> np.ndarray:
    """A~ = [[A, I, 0], [I, 0, I]], of shape (2K, 3K)."""
    eye, zero = np.eye(aug.K), np.zeros((aug.K, aug.K))
    return np.block([[aug.A, eye, zero], [eye, zero, eye]])


def b_tilde(aug: AugmentedProblem) -> np.ndarray:
    """b~ = (b; e), of length 2K."""
    return np.concatenate([aug.b, np.ones(aug.K)])


def potential(W: np.ndarray, aug: AugmentedProblem, rho: float) -> np.ndarray:
    """phi(w) = rho log f(w) - sum_n log w_n for each row w of W."""
    return rho * np.log(_batch_objective(W, aug)) - np.sum(np.log(W), axis=-1)


def admissible(problem, S, atol=1e-10):
    """Identity-column formulation: x_S plus the columns of A_SS^{-1}."""
    idx = np.asarray(sorted(S), dtype=int)
    A_ss = problem.A[np.ix_(idx, idx)]
    rhs = np.column_stack([problem.b[idx], np.eye(idx.size)])
    try:
        sol = np.linalg.solve(A_ss, rhs)
    except np.linalg.LinAlgError:
        return None
    x_s, inv = sol[:, 0], sol[:, 1:]
    if np.any(x_s < -atol) or np.any(x_s > 1.0 + atol) or np.any(inv < -atol):
        return None
    return np.clip(x_s, 0.0, 1.0)


def postprocess(problem, admitted, removed):
    """Sequential re-admission in reverse removal order, passes to fixpoint."""
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


def preprocess(problem):
    """Slice loop: rescore the restricted A after every removal."""

    def necessary(A, b):
        mu = A.T @ np.ones(b.size)
        return float(np.sum(np.maximum(mu, 0.0)) - (np.maximum(-mu, 0.0) + 1.0) @ b) >= 0.0

    def scores(A, b):
        absA = np.abs(A)
        np.fill_diagonal(absA, 0.0)
        return absA.sum(axis=1) + absA.sum(axis=0) + b

    keep = list(range(problem.K))
    removed = []
    A, b = problem.A, problem.b
    while len(keep) >= 2 and not necessary(A, b):
        removed.append(keep.pop(int(np.argmax(scores(A, b)))))
        A, b = problem.A[np.ix_(keep, keep)], problem.b[keep]
    return keep, removed
