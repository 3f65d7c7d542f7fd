"""Potential-reduction interior-point solver for the slack-augmented lq problem.

The box-constrained lq objective over x is rewritten with slack variables as

    min  c~^T w1 + ||w2||_q^q   s.t.  A~ w = b~,  w >= 0,

with w = (w1; w2; w3) = (powers; residual slacks; budget slacks) and the
2K x 3K block matrix A~ = [[A, I, 0], [I, 0, I]].  Each iteration solves a
projection problem in the space scaled by W = Diag(w) for the projected
scaled gradient g.  Its normal equations A~ W^2 A~^T lambda = r, with
r = (r1; r2) = A~ W (W grad f - f / rho), have the blocks
[[A D1 A^T + D2, A D1], [D1 A^T, D1 + D3]] with D_i = Diag(d_i), d_i = w_i^2,
so the second block row is eliminated exactly: lambda_1 solves the K x K SPD
Schur system

    (A Diag(d1 d3 / (d1 + d3)) A^T + D2) lambda_1 = r1 - A (d1 / (d1 + d3) o r2)

and lambda_2 = (r2 - d1 o A^T lambda_1) / (d1 + d3).  Each step is one LU
solve of that system; an exactly zero pivot triggers a ridge retry.  The
iteration then line-searches the potential

    phi(w) = rho * log f(w) - sum_n log w_n

along w o (1 + t g).  The candidates are the step of radius beta, t = beta /
||g||, which lowers phi by at least 2 - sqrt(3) while ||g|| > 1, and fixed
fractions of the distance to the boundary w > 0; the lowest phi wins, so
every step keeps that guarantee.  The iteration stops once phi falls below
the eps-optimality threshold or every component of g lies in [-1, 1],
max_n |g_n| <= 1, which certifies an eps-KKT point: with s = grad f - A~^T
lambda, (rho / f) w o s = e - g lies in [0, 2], so s >= 0 and w^T s / f <=
2 * 3K / rho <= eps (Ye 1998, Math. Program. 80, uses only these component
bounds).  A step is taken only while max_n |g_n| > 1, hence ||g|| > 1 and
the 2 - sqrt(3) decrease still holds.

All starts advance in lockstep through one batched core; a single solve is
that core on a batch of one, so every caller runs the same arithmetic.  The
line search hands the objective and potential of the chosen step to the next
iteration, and a start that stops leaves the batch, so each step works on the
active starts only.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .network import NormalizedProblem, is_int, is_real, lu_solve, numeric_array

EPS_OPTIMAL = "eps-optimal"
EPS_KKT = "eps-kkt"
ITERATION_CAP = "iteration-cap"
UNDERFLOW = "underflow"

STEP_BETA = 1.0 - math.sqrt(3.0) / 3.0
# Line-search step lengths as fractions of the distance to the boundary,
# tried next to the guaranteed step beta / ||g||.
LINE_SEARCH_FRACTIONS = np.array([0.3, 0.5, 0.7, 0.9, 0.99])
# beta - beta^2 / (2 (1 - beta)) at beta = STEP_BETA.
MIN_POTENTIAL_DECREASE = 2.0 - math.sqrt(3.0)
ITER_CAP_FACTOR = 10.0
ITER_CAP_ABS = 100_000  # no start takes more steps, whatever iter_cap's formula gives
SUPPORT_TOL = 1e-6  # a link is supported when [b - A x]_k <= SUPPORT_TOL
INIT_MARGIN = 1e-3  # random starts draw xi from [margin, 1 - margin]
_W_FLOOR = 1e-280  # retire a start once a component nears the float64 range
# A start w_init must meet A~ w = b~ to START_TOL (1 + ||A||_inf): with w1 <= 1,
# ||A||_inf bounds A w1, so the tolerance scales with the terms that round.
START_TOL = 1e-9


@dataclass(frozen=True)
class AugmentedProblem:
    """Slack form with exponent q: A~ = [[A, I, 0], [I, 0, I]], b~ = (b; e).

    Only A (K x K), b and c~ (K,) are stored, since the iteration works on
    the blocks; tests/reference.py builds A~ and b~ for the tests.
    """

    A: np.ndarray
    b: np.ndarray
    c_tilde: np.ndarray
    q: float

    def __post_init__(self):
        if not is_real(self.q):
            raise ValueError(f"q must be a number, got {self.q!r}")
        object.__setattr__(self, "q", float(self.q))
        if not (0.0 < self.q <= 1.0):
            raise ValueError("q must lie in (0, 1]")
        k = self.K
        if self.A.shape != (k, k) or self.c_tilde.shape != (k,):
            raise ValueError("A must be K x K and c_tilde of length K, for K = len(b)")
        if np.any(self.b <= 0):
            raise ValueError("b must be strictly positive")

    @property
    def K(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class KktCertificate:
    """Multipliers and residuals backing a solver termination claim.

    dual_residual is the minimum component of grad f(w) - A~^T lambda;
    comp_gap is w^T (grad f - A~^T lambda) / f(w).  ridge_retries counts the
    ridge retries of the start's normal solves; a retry on a lockstep batch
    counts for every start in that batch.
    primal_residual is max|A~ w - b~| at the returned iterate, the larger of
    max|A w1 + w2 - b| and max|w1 + w3 - 1|; it is recorded, not enforced.
    An eps-KKT termination means max_n |g_n| <= 1 for the projected direction
    g = e - (rho / f) w o (grad f - A~^T lambda), so that (rho / f) w o (grad
    f - A~^T lambda) lies in [0, 2]: dual_residual >= 0 and comp_gap <= 6K /
    rho <= eps.
    """

    lam: np.ndarray
    dual_residual: float
    comp_gap: float
    epsilon: float
    termination: str
    f_value: float
    iterations: int = 0
    ridge_retries: int = 0
    primal_residual: float = float("nan")


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-4
    trace_path: str | os.PathLike | None = None
    zero_tol: ClassVar[float] = SUPPORT_TOL   # readable as config.zero_tol, not settable

    def __post_init__(self):
        if not is_real(self.epsilon):
            raise ValueError(f"epsilon must be a number, got {self.epsilon!r}")
        # NaN fails every comparison, so the test rejects it too.
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        # open() takes an int as a file descriptor, which the solve would then close.
        if not (self.trace_path is None or isinstance(self.trace_path, (str, os.PathLike))):
            raise ValueError(f"trace_path must be a path, got {self.trace_path!r}")

    def rho(self, K: int, q: float) -> float:
        # rho >= 6K/eps certifies the eps-KKT gap; rho > K/q is needed by
        # the eps-optimality threshold.
        rho = max(6.0 * K / self.epsilon, 2.0 * K / q)
        if rho == math.inf:
            raise ValueError(f"rho = max(6K/epsilon, 2K/q) overflows at epsilon = {self.epsilon!r}, K = {K}")
        return rho

    def iter_cap(self, K: int, q: float) -> int:
        cap = ITER_CAP_FACTOR * (K / min(self.epsilon, q)) * math.log(1.0 / self.epsilon)
        return int(min(max(cap, 1.0), ITER_CAP_ABS))


def augment(normalized: NormalizedProblem, q: float = 1.0) -> AugmentedProblem:
    """The slack form of a normalized problem, weighting power by its alpha."""
    return AugmentedProblem(A=normalized.A, b=normalized.b,
                            c_tilde=normalized.alpha * normalized.budgets, q=q)


def interior_point_default(problem: AugmentedProblem) -> np.ndarray:
    """Deterministic strictly interior start w0 = (m/2; b - A m/2; e - m/2)."""
    return interior_point_random(problem, np.full(problem.K, 0.5))


def interior_point_random(problem: AugmentedProblem, xi: np.ndarray) -> np.ndarray:
    """Strictly interior start w(xi) = (xi o m; b - A(xi o m); e - xi o m), m = min(b, e).

    xi of shape (K,) gives one start of shape (3K,); xi of shape (n, K) gives
    one start per row, shape (n, 3K).
    """
    shape = f"({problem.K},) or (n, {problem.K})"
    xi = numeric_array(xi, "xi", shape)
    if xi.shape[-1:] != (problem.K,) or xi.ndim > 2:
        raise ValueError(f"xi must have shape {shape}")
    # A NaN makes min or max NaN, which fails both comparisons.
    if xi.size and not (INIT_MARGIN <= xi.min() and xi.max() <= 1.0 - INIT_MARGIN):
        raise ValueError("xi must be finite and lie in [INIT_MARGIN, 1 - INIT_MARGIN]")
    w1 = xi * np.minimum(problem.b, 1.0)
    # One matrix-vector product per row: a matrix-matrix product rounds differently.
    return np.concatenate([w1, problem.b - (problem.A @ w1[..., None])[..., 0], 1.0 - w1], axis=-1)


# ---------------------------------------------------------------------------
# Batched core: N starts advance in lockstep; converged starts are frozen.
# ---------------------------------------------------------------------------


def _batch_objective(W: np.ndarray, problem: AugmentedProblem) -> np.ndarray:
    k = problem.K
    return W[..., :k] @ problem.c_tilde + np.sum(W[..., k : 2 * k] ** problem.q, axis=-1)


def _solve_normal(normal: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the batched SPD systems normal x = rhs: one LU solve, with ridge retries.

    While any system hits an exactly zero LU pivot (possible once the
    condition number nears 1 / eps), every system gets a ridge of trace / m *
    1e-12 and is solved again, at most 3 times.  Returns the solutions and
    the number of ridge retries (0 when the systems solve as given).
    """
    for attempt in range(4):
        try:
            return lu_solve(normal, rhs), attempt
        except np.linalg.LinAlgError:
            if attempt == 3:
                raise
            m = normal.shape[-1]
            ridge = np.trace(normal, axis1=-2, axis2=-1) / m * 1e-12
            normal = normal + ridge[..., None, None] * np.eye(m)


def _projected_direction(W: np.ndarray, f: np.ndarray, problem: AugmentedProblem, rho: float):
    """lambda_1, lambda_2, reduced gradient, direction g, ||g|| and ridge retries per row of W.

    f holds the objective of each row.  g = e - (rho / f) W (grad f - A~^T
    lambda) is the projection of the scaled potential gradient onto the null
    space of A~ W, so A~ W g = 0; lambda = (lambda_1; lambda_2) comes from
    the K x K Schur system of the module docstring.  The blocks w1, w2, w3
    are handled apart, as views of one pass over W: the gradient is (c~; q
    w2^(q-1); 0).
    """
    k = problem.K
    A = problem.A
    D = W * W
    WS = W * (f / rho)[:, None]
    d1, d2, d3 = D[:, :k], D[:, k : 2 * k], D[:, 2 * k :]
    v1 = d1 * problem.c_tilde - WS[:, :k]                # blocks of W (W grad f - f / rho)
    r2 = v1 - WS[:, 2 * k :]
    d13 = d1 + d3
    S = (A * (d1 * d3 / d13)[:, None, :]) @ A.T          # A Diag(d1 d3 / (d1 + d3)) A^T
    S.reshape(-1, k * k)[:, :: k + 1] += d2              # + D2, through a strided view of each diagonal
    # v2 = d2 o grad2 - w2 o s.  At q = 1, grad2 = q w2^0 is exactly 1 and
    # d2 o 1 is exactly d2, so both are left out.
    if problem.q == 1.0:
        grad2, v2 = 1.0, d2 - WS[:, k : 2 * k]
    else:
        grad2 = problem.q * W[:, k : 2 * k] ** (problem.q - 1.0)
        v2 = d2 * grad2 - WS[:, k : 2 * k]
    # r1 - A (d1 / (d1 + d3) o r2) with r1 = A v1 + v2
    # Products with A go one row at a time (stacked matmul), so a row's
    # arithmetic is the same in a batch of any size.
    rhs = (A @ (v1 - d1 / d13 * r2)[:, :, None])[:, :, 0] + v2
    lam1, retries = _solve_normal(S, rhs)
    lam1_a = (lam1[:, None, :] @ A)[:, 0, :]
    lam2 = (r2 - d1 * lam1_a) / d13
    # grad f - A~^T lambda, block by block into one array
    resid = np.empty_like(W)
    resid1 = np.add(lam1_a, lam2, out=resid[:, :k])
    np.subtract(problem.c_tilde, resid1, out=resid1)
    np.subtract(grad2, lam1, out=resid[:, k : 2 * k])
    np.negative(lam2, out=resid[:, 2 * k :])
    # g = 1 - (rho / f) W resid; the products commute exactly.
    g = W * (rho / f)[:, None]
    g *= resid
    np.subtract(1.0, g, out=g)
    norm_g = np.sqrt(np.einsum("ij,ij->i", g, g))
    return lam1, lam2, resid, g, norm_g, retries


# A step length, a candidate and its log may overflow, divide by zero or be
# invalid (a candidate past the boundary); each such case is rejected below.
# The error state is applied as a decorator, once per call.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _line_search(
    W: np.ndarray, g: np.ndarray, norm_g: np.ndarray, problem: AugmentedProblem, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move each row w of W to w o (1 + t g) at the candidate t of lowest potential.

    The candidates are t = STEP_BETA / ||g||, whose potential drop is at least
    2 - sqrt(3) while ||g|| > 1, and LINE_SEARCH_FRACTIONS of t_max, the
    distance to the boundary of w o (1 + t g) > 0.  Every candidate keeps
    A~ w = b~ because A~ W g = 0.  The log of the candidates is taken once:
    it gives the barrier sum and, for q < 1, w2^q = exp(q log w2).  At q = 1
    the objective is linear and sums w2 itself, with no rounding from exp and
    log.  A candidate with a component <= 0 has a log of -inf or NaN, so its
    potential is not finite and it is rejected.  Returns the new rows with
    their objective and potential values.
    """
    n = W.shape[0]
    k = problem.K
    g_min = g.min(axis=1)
    t = np.empty((n, 1 + LINE_SEARCH_FRACTIONS.size))
    t[:, 0] = STEP_BETA / norm_g
    # t_max = min over g_n < 0 of -1 / g_n: -1 / -0.0 = inf once g >= 0
    t[:, 1:] = (-1.0 / np.minimum(g_min, -0.0))[:, None] * LINE_SEARCH_FRACTIONS
    # W o (1 + t g) in place, (N, C, 3K); the products commute exactly.
    cand = t[:, :, None] * g[:, None, :]
    cand += 1.0
    cand *= W[:, None, :]
    log_cand = np.log(cand)
    w2q = cand[..., k : 2 * k] if problem.q == 1.0 else np.exp(problem.q * log_cand[..., k : 2 * k])
    f = cand[..., :k] @ problem.c_tilde + w2q.sum(axis=-1)
    phi = rho * np.log(f) - log_cand.sum(axis=-1)
    phi[~np.isfinite(phi)] = np.inf
    rows = np.arange(n)
    best = phi.argmin(axis=1)
    phi = phi[rows, best]
    if phi.max() == np.inf:
        raise RuntimeError("no step candidate keeps the iterate strictly positive")
    return cand[rows, best], f[rows, best], phi


def _primal_residual(problem: AugmentedProblem, w: np.ndarray) -> float:
    """max|A~ w - b~|: the larger of max|A w1 + w2 - b| and max|w1 + w3 - 1|."""
    k = problem.K
    w1, w2, w3 = w[:k], w[k : 2 * k], w[2 * k :]
    return float(max(np.max(np.abs(problem.A @ w1 + w2 - problem.b)), np.max(np.abs(w1 + w3 - 1.0))))


def _certificate(
    problem: AugmentedProblem, config: SolverConfig, w: np.ndarray, lam: np.ndarray,
    resid: np.ndarray, f_val: float, termination: str, iterations: int, ridge_retries: int,
) -> KktCertificate:
    return KktCertificate(
        lam=lam,
        dual_residual=float(np.min(resid)),
        comp_gap=float(w @ resid / f_val),
        epsilon=config.epsilon,
        termination=termination,
        f_value=float(f_val),
        iterations=int(iterations),
        ridge_retries=int(ridge_retries),
        primal_residual=_primal_residual(problem, w),
    )


def _solve_batch(
    problem: AugmentedProblem, config: SolverConfig, W0: np.ndarray
) -> list[tuple[np.ndarray, KktCertificate]]:
    """Run the potential-reduction iteration from each row of W0.

    A start retires as eps-optimal once phi <= threshold, and as eps-KKT at
    the first iterate whose projected direction has max_n |g_n| <= 1, the
    componentwise bound behind the certificate (module docstring); ||g||
    sets the beta step and the trace record only.  The batch holds the
    active starts only: a start that stops is written to its result and its
    row is dropped from every per-row array.  Every start retires by the
    iteration cap at the latest, so the result is one (w, certificate) pair
    per start, in start order.  With config.trace_path set, one JSON line per
    start and iteration is appended to that file.
    """
    n_starts = W0.shape[0]
    k = problem.K
    q = problem.q
    rho = config.rho(k, q)
    cap = config.iter_cap(k, q)
    threshold = (rho - k / q) * math.log(config.epsilon) + (k / q) * math.log(k) + k * math.log(4.0)

    # Per active row: start index, iterate, objective and potential.  Every
    # active start has taken the same `it` steps and the same ridge retries.
    start = np.arange(n_starts)
    W = W0.copy()
    f = _batch_objective(W, problem)
    phi = rho * np.log(f) - np.sum(np.log(W), axis=-1)
    retries = 0
    results = [None] * n_starts

    def retire(row, termination):
        w = W[row].copy()
        lam = np.concatenate([lam1[row], lam2[row]])
        results[start[row]] = (w, _certificate(
            problem, config, w, lam, resid[row], f[row], termination, it, retries))

    trace = open(config.trace_path, "a") if config.trace_path is not None else contextlib.nullcontext()
    with trace as trace_file:
        for it in range(cap + 1):
            lam1, lam2, resid, g, norm_g, step_retries = _projected_direction(W, f, problem, rho)
            retries += step_retries

            if trace_file is not None:
                for row, idx in enumerate(start):
                    rec = {"iter": it, "f": float(f[row]), "phi": float(phi[row]),
                           "norm_g": float(norm_g[row])}
                    if n_starts > 1:
                        rec["start"] = int(idx)
                    trace_file.write(json.dumps(rec) + "\n")

            kkt = np.abs(g).max(axis=1) <= 1.0
            stop = kkt | (phi <= threshold)
            if stop.any() or it >= cap:
                keep = ~stop & (it < cap)
                for row in np.flatnonzero(~keep):
                    retire(row, EPS_OPTIMAL if phi[row] <= threshold
                           else EPS_KKT if kkt[row] else ITERATION_CAP)
                if not keep.any():
                    break
                start, W, f, phi, lam1, lam2, resid, g, norm_g = (
                    a[keep] for a in (start, W, f, phi, lam1, lam2, resid, g, norm_g))

            W_new, f_new, phi_new = _line_search(W, g, norm_g, problem, rho)
            # For very small q the eps-KKT slack target can underflow float64;
            # retire such starts (at their last iterate) instead of letting
            # the gradient blow up.
            if W_new.min() < _W_FLOOR:
                floored = W_new.min(axis=1) < _W_FLOOR
                for row in np.flatnonzero(floored):
                    retire(row, UNDERFLOW)
                if floored.all():
                    break
                keep = ~floored
                start, W_new, f_new, phi_new = (a[keep] for a in (start, W_new, f_new, phi_new))
            W, f, phi = W_new, f_new, phi_new

    return results


def solve_potential_reduction(
    problem: AugmentedProblem, config: SolverConfig, w_init: np.ndarray
) -> tuple[np.ndarray, KktCertificate]:
    """Iterate to an eps-optimal or eps-KKT point (or hit the iteration cap).

    w_init must be strictly positive and meet A~ w = b~ to START_TOL, scaled
    by 1 + ||A||_inf: every step keeps A~ w where it started, so a start off
    it would end certified off it too.
    """
    shape = (3 * problem.K,)
    w_init = numeric_array(w_init, "w_init", str(shape))
    if w_init.shape != shape:
        raise ValueError(f"w_init must have shape {shape}, got {w_init.shape}")
    # A NaN makes the minimum NaN, which fails the comparison.
    if not (w_init.min() > 0.0 and w_init.max() < np.inf):
        raise ValueError("w_init must be finite and strictly positive")
    tol = START_TOL * (1.0 + np.abs(problem.A).sum(axis=1).max())
    primal = _primal_residual(problem, w_init)
    if primal > tol:
        raise ValueError(f"w_init must satisfy A~ w = b~: max|A~ w - b~| = {primal:.3g} exceeds {tol:.3g}")
    return _solve_batch(problem, config, w_init[None, :])[0]


def round_to_power(
    w: np.ndarray, problem: AugmentedProblem, zero_tol: float = SUPPORT_TOL
) -> tuple[np.ndarray, list[int]]:
    """Map an iterate back to x in [0, 1]^K and its supported-link set."""
    k = problem.K
    x = np.clip(np.asarray(w, dtype=float)[:k], 0.0, 1.0)
    resid = problem.b - problem.A @ x
    support = [int(i) for i in np.nonzero(resid <= zero_tol)[0]]
    return x, support


class NoCleanStartError(RuntimeError):
    """Every start of a multistart solve hit the iteration cap or underflowed."""


@dataclass
class MultistartResult:
    x: np.ndarray
    support: list[int]
    certificates: list[KktCertificate]
    best_start: int
    total_iterations: int


def check_starts(n_starts, seed) -> None:
    """ValueError, naming the argument, unless n_starts >= 1 and seed >= 0 are integers."""
    if not (is_int(n_starts) and n_starts >= 1):
        raise ValueError(f"n_starts must be an integer >= 1, got {n_starts!r}")
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def multistart_solve(
    problem: AugmentedProblem, config: SolverConfig, n_starts: int, seed: int
) -> MultistartResult:
    """Best of the default start plus n_starts - 1 random interior starts.

    Each rounded solution is scored by the thresholded l0 objective
    #{k: [b - A x]_k > SUPPORT_TOL} + alpha pbar^T x; ties break by the lower
    power term and then the lower start index.  Starts that hit the
    iteration cap or underflow are skipped; NoCleanStartError is raised
    when no start terminates cleanly.
    """
    check_starts(n_starts, seed)
    k = problem.K
    # Row 0 is the default start.  One draw fills the random rows with the
    # numbers that n_starts - 1 draws of size k would give, in the same order;
    # a single start draws nothing, so it builds no generator.
    xi = np.full((n_starts, k), 0.5)
    if n_starts > 1:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        xi[1:] = rng.uniform(INIT_MARGIN, 1.0 - INIT_MARGIN, size=(n_starts - 1, k))
    results = _solve_batch(problem, config, interior_point_random(problem, xi))

    best = None
    best_key = None
    for idx, (w, cert) in enumerate(results):
        if cert.termination in (ITERATION_CAP, UNDERFLOW):
            continue
        x, support = round_to_power(w, problem)
        power_term = float(problem.c_tilde @ x)
        score = (k - len(support)) + power_term
        key = (score, power_term, idx)
        if best_key is None or key < best_key:
            best_key = key
            best = (x, support, idx)
    if best is None:
        raise NoCleanStartError("every start hit the iteration cap or underflowed")
    x, support, idx = best
    return MultistartResult(
        x=x,
        support=support,
        certificates=[cert for _, cert in results],
        best_start=idx,
        total_iterations=int(sum(cert.iterations for _, cert in results)),
    )
