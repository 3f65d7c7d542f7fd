"""Interior-point kernel: slack assembly, potential reduction, certificates."""

import json
import math
import warnings

import numpy as np
import pytest

from jpac import kernel
from jpac.network import NormalizedProblem

from conftest import ALPHA3, X3_STAR, fail_first_schur_solve, random_problem
from reference import a_tilde, b_tilde, potential


def _grad_f(W, aug):
    """Reference gradient (c~; q w2^(q-1); 0) of f at each row of W, built apart from the kernel."""
    k = aug.K
    grad = np.zeros_like(W)
    grad[:, :k] = aug.c_tilde
    grad[:, k : 2 * k] = aug.q * W[:, k : 2 * k] ** (aug.q - 1.0)
    return grad


def _direction_gradient(W, aug, rho=1e4):
    """The gradient the iteration uses: resid + A~^T lam from _projected_direction."""
    lam1, lam2, resid, _, _, _ = kernel._projected_direction(W, kernel._batch_objective(W, aug), aug, rho)
    return resid + np.concatenate([lam1, lam2], axis=1) @ a_tilde(aug)


def _single_link_aug(q=0.5, alpha=0.2):
    prob = NormalizedProblem(A=[[1.0]], b=[1.0], budgets=[1.0], alpha=alpha)
    return kernel.augment(prob, q=q)


@pytest.fixture
def aug3(three_link):
    return kernel.augment(three_link, q=0.5)


class TestAugment:
    def test_single_link_blocks(self):
        aug = _single_link_aug(q=1.0)
        assert a_tilde(aug) == pytest.approx(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
        assert b_tilde(aug) == pytest.approx([1.0, 1.0])
        assert aug.c_tilde == pytest.approx([0.2])

    def test_three_link_blocks(self, three_link, aug3):
        assert a_tilde(aug3).shape == (6, 9)
        eye, zero = np.eye(3), np.zeros((3, 3))
        expected = np.block([[three_link.A, eye, zero], [eye, zero, eye]])
        assert a_tilde(aug3) == pytest.approx(expected)
        assert b_tilde(aug3) == pytest.approx([0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
        assert aug3.c_tilde == pytest.approx(np.full(3, ALPHA3))

    def test_full_row_rank(self):
        for seed in range(5):
            prob = random_problem(5, seed).with_alpha(0.01)
            aug = kernel.augment(prob, q=0.7)
            assert np.linalg.matrix_rank(a_tilde(aug)) == 10

    def test_invalid_q(self, three_link):
        with pytest.raises(ValueError):
            kernel.augment(three_link, q=0.0)
        with pytest.raises(ValueError):
            kernel.augment(three_link, q=1.5)

    @pytest.mark.parametrize("q", [True, "0.5", None], ids=["bool", "str", "none"])
    def test_q_must_be_a_number(self, three_link, q):
        # Unchecked, augment's float() accepts "0.5" and raises a TypeError on
        # None, and AugmentedProblem takes True as q = 1.
        with pytest.raises(ValueError, match="q must be a number"):
            kernel.augment(three_link, q=q)
        with pytest.raises(ValueError, match="q must be a number"):
            kernel.AugmentedProblem(A=np.ones((1, 1)), b=np.ones(1), c_tilde=np.zeros(1), q=q)
        assert type(kernel.augment(three_link, q=1).q) is float


class TestObjectiveGradient:
    def test_linear_case(self):
        aug = kernel.AugmentedProblem(A=np.ones((1, 1)), b=np.ones(1), c_tilde=np.zeros(1), q=1.0)
        W = np.ones((1, 3))
        assert kernel._batch_objective(W, aug)[0] == pytest.approx(1.0)
        assert _direction_gradient(W, aug)[0] == pytest.approx([0.0, 1.0, 0.0])

    def test_power_rule(self):
        aug = kernel.AugmentedProblem(A=np.ones((1, 1)), b=np.ones(1), c_tilde=np.zeros(1), q=0.5)
        W = np.array([[1.0, 4.0, 1.0]])
        assert kernel._batch_objective(W, aug)[0] == pytest.approx(2.0)
        assert _direction_gradient(W, aug)[0, 1] == pytest.approx(0.25)

    def test_gradient_matches_finite_differences(self):
        # grad f = (grad f - A~^T lam) + A~^T lam, read off the direction's
        # own multipliers and reduced gradient.
        rng = np.random.default_rng(5)
        h = 1e-6
        for case in range(10):
            K = int(rng.integers(3, 21))
            prob = random_problem(K, 6000 + case)
            aug = kernel.augment(prob, q=(0.1, 0.5, 1.0)[case % 3])
            w = rng.uniform(0.2, 1.5, size=3 * K)
            grad = _direction_gradient(w[None, :], aug, kernel.SolverConfig().rho(K, aug.q))[0]
            for n in range(3 * K):
                e = np.zeros(3 * K)
                e[n] = h
                fd = (kernel._batch_objective((w + e)[None, :], aug)[0]
                      - kernel._batch_objective((w - e)[None, :], aug)[0]) / (2 * h)
                assert grad[n] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestPotential:
    def test_unit_point_zero(self):
        aug = kernel.AugmentedProblem(A=np.ones((1, 1)), b=np.ones(1), c_tilde=np.zeros(1), q=1.0)
        assert potential(np.ones((1, 3)), aug, rho=37.0)[0] == 0.0

    def test_matches_duplicate_formula(self, aug3):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.uniform(0.1, 2.0, size=9)
            rho = rng.uniform(10.0, 1e5)
            f = float(aug3.c_tilde @ w[:3] + np.sum(w[3:6] ** 0.5))
            expected = rho * math.log(f) - float(np.sum(np.log(w)))
            assert potential(w[None, :], aug3, rho)[0] == pytest.approx(expected, rel=1e-12)

    def test_first_traced_potential_is_the_starts(self, aug3, tmp_path):
        # The solve works the first phi out from the objective it already holds.
        path = tmp_path / "trace.jsonl"
        config = kernel.SolverConfig(trace_path=str(path))
        w = kernel.interior_point_default(aug3)
        kernel.solve_potential_reduction(aug3, config, w)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["iter"] == 0
        assert first["phi"] == potential(w[None, :], aug3, config.rho(aug3.K, aug3.q))[0]


class TestInteriorPoints:
    def test_single_link_default(self):
        assert kernel.interior_point_default(_single_link_aug()) == pytest.approx([0.5, 0.5, 0.5])

    def test_three_link_default(self, aug3):
        w0 = kernel.interior_point_default(aug3)
        assert w0 == pytest.approx([0.25, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 0.75, 0.75])

    def test_random_point_at_half_matches_default(self, aug3):
        w = kernel.interior_point_random(aug3, np.full(3, 0.5))
        assert w == pytest.approx(kernel.interior_point_default(aug3))

    def test_three_link_random_point(self, aug3):
        w = kernel.interior_point_random(aug3, np.array([0.2, 0.4, 0.6]))
        assert w == pytest.approx([0.1, 0.2, 0.3, 0.7, 0.6, 0.5, 0.9, 0.8, 0.7])

    def test_random_draws_strictly_interior(self):
        prob = random_problem(10, 3).with_alpha(0.001)
        aug = kernel.augment(prob, q=0.5)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            xi = rng.uniform(1e-3, 1.0 - 1e-3, size=10)
            w = kernel.interior_point_random(aug, xi)
            assert np.all(w > 0.0)
            assert np.max(np.abs(a_tilde(aug) @ w - b_tilde(aug))) <= 1e-10

    def test_default_feasible_and_bounded_below(self):
        for seed in range(10):
            prob = random_problem(6, seed).with_alpha(0.001)
            aug = kernel.augment(prob, q=0.5)
            w0 = kernel.interior_point_default(aug)
            m = np.minimum(aug.b, 1.0)
            assert np.min(w0) >= np.min(m) / 2.0 - 1e-15
            assert np.max(np.abs(a_tilde(aug) @ w0 - b_tilde(aug))) <= 1e-10

    def test_xi_outside_margin_rejected(self, aug3):
        with pytest.raises(ValueError):
            kernel.interior_point_random(aug3, np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError):
            kernel.interior_point_random(aug3, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_xi_rejected(self, aug3, bad, stacked):
        xi = np.array([0.5, bad, 0.5])
        with pytest.raises(ValueError, match="xi must be finite"):
            kernel.interior_point_random(aug3, np.stack([np.full(3, 0.5), xi]) if stacked else xi)

    @pytest.mark.parametrize("xi", [["0.5", "0.5", "0.5"], [True, True, True]], ids=["str", "bool"])
    def test_non_numeric_xi_rejected(self, aug3, xi):
        # Unchecked, numpy cast the strings to floats and returned a start.
        with pytest.raises(ValueError, match="^xi must be a numeric array"):
            kernel.interior_point_random(aug3, xi)

    @pytest.mark.parametrize("K", [1, 10, 33, 64])
    def test_stacked_rows_match_single_calls(self, K):
        # Bit for bit: a stacked matrix-matrix product would round differently.
        aug = kernel.augment(random_problem(K, K, 0.707), q=0.5)
        xi = np.random.default_rng(K).uniform(1e-3, 1.0 - 1e-3, size=(7, K))
        stacked = kernel.interior_point_random(aug, xi)
        assert stacked.shape == (7, 3 * K)
        assert np.array_equal(stacked, np.stack([kernel.interior_point_random(aug, row) for row in xi]))
        with pytest.raises(ValueError, match="shape"):
            kernel.interior_point_random(aug, xi[None])

    @pytest.mark.parametrize("n_starts", [1, 2, 5])
    def test_multistart_starts_match_sequential_draws(self, n_starts, monkeypatch):
        # One (n - 1, K) draw gives the numbers of n - 1 successive size-K draws.
        aug = kernel.augment(random_problem(12, 4), q=0.5)
        seen = []
        solve_batch = kernel._solve_batch
        monkeypatch.setattr(kernel, "_solve_batch", lambda p, c, W: seen.append(W) or solve_batch(p, c, W))
        kernel.multistart_solve(aug, kernel.SolverConfig(epsilon=1e-3), n_starts, seed=9)
        rng = np.random.default_rng(np.random.SeedSequence(9))
        expected = [kernel.interior_point_default(aug)] + [
            kernel.interior_point_random(aug, rng.uniform(kernel.INIT_MARGIN, 1.0 - kernel.INIT_MARGIN, 12))
            for _ in range(n_starts - 1)]
        assert np.array_equal(seen[0], np.asarray(expected))


class TestReductionStep:
    def test_step_no_worse_than_beta_step(self, aug3, monkeypatch):
        # The radius-beta step along the projected direction, computed by
        # hand, is one of the line-search candidates.
        config = kernel.SolverConfig()
        rho = config.rho(aug3.K, aug3.q)
        w = kernel.interior_point_default(aug3)
        f = kernel._batch_objective(w[None, :], aug3)[0]
        grad = _grad_f(w[None, :], aug3)[0]
        AW = a_tilde(aug3) * w[None, :]
        lam = np.linalg.solve(AW @ AW.T, AW @ (w * grad - f / rho))
        g = 1.0 - (rho / f) * w * (grad - a_tilde(aug3).T @ lam)
        w_beta = w * (1.0 + (kernel.STEP_BETA / np.linalg.norm(g)) * g)
        phi_beta = potential(w_beta[None, :], aug3, rho)[0]

        monkeypatch.setattr(kernel, "ITER_CAP_ABS", 1)
        new, cert = kernel.solve_potential_reduction(aug3, kernel.SolverConfig(), w)
        assert cert.termination == kernel.ITERATION_CAP and cert.iterations == 1
        assert potential(new[None, :], aug3, rho)[0] <= phi_beta + 1e-12
        assert np.all(new > 0.0)
        assert np.max(np.abs(a_tilde(aug3) @ new - b_tilde(aug3))) <= 1e-10

    def test_potential_decrease_and_feasibility(self, tmp_path, monkeypatch):
        for seed in range(5):
            prob = random_problem(5, seed)
            prob = prob.with_alpha(0.2 * prob.alpha1)
            aug = kernel.augment(prob, q=0.5)
            w0 = kernel.interior_point_default(aug)
            path = tmp_path / f"trace_{seed}.jsonl"
            config = kernel.SolverConfig(epsilon=1e-3, trace_path=str(path))
            _, cert = kernel.solve_potential_reduction(aug, config, w0)
            phis = [json.loads(line)["phi"] for line in path.read_text().splitlines()]
            for a, b in zip(phis, phis[1:]):
                assert b <= a - kernel.MIN_POTENTIAL_DECREASE + 1e-9
            # The iterate after j steps is the one returned at an iteration cap of j.
            for j in range(1, cert.iterations + 1):
                with monkeypatch.context() as m:
                    m.setattr(kernel, "ITER_CAP_ABS", j)
                    w, _ = kernel.solve_potential_reduction(aug, kernel.SolverConfig(epsilon=1e-3), w0)
                assert np.max(np.abs(a_tilde(aug) @ w - b_tilde(aug))) <= 1e-10
                assert np.all(w > 0.0)

    def test_converged_component_bounds(self, aug3):
        # At an eps-KKT return, (rho/f) w o (grad f - A~^T lam) lies in [0, 2].
        config = kernel.SolverConfig(epsilon=1e-3)
        w, cert = kernel.solve_potential_reduction(aug3, config, kernel.interior_point_default(aug3))
        assert cert.termination == kernel.EPS_KKT
        resid = _grad_f(w[None, :], aug3)[0] - a_tilde(aug3).T @ cert.lam
        scaled = (config.rho(aug3.K, aug3.q) / cert.f_value) * w * resid
        assert np.all(scaled >= -1e-8)
        assert np.all(scaled <= 2.0 + 1e-8)


class TestLineSearch:
    @pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
    def test_rejects_candidate_past_the_boundary(self, q):
        # With the true ||g|| the beta step stays inside (beta < 1 <= ||g|| /
        # |g_min|), so a smaller norm is passed to push the beta candidate past
        # the boundary: one component goes negative, its log is NaN, and only
        # the finiteness test on phi can reject it.
        prob = random_problem(4, 11)
        aug = kernel.augment(prob, q=q)
        rho = kernel.SolverConfig().rho(aug.K, q)
        W = kernel.interior_point_default(aug)[None, :]
        g = np.linspace(-2.0, 1.0, W.shape[1])[None, :]
        norm_g = np.array([0.05 * np.linalg.norm(g)])
        assert (W * (1.0 + kernel.STEP_BETA / norm_g[:, None] * g)).min() < 0.0

        w_new, f_new, phi_new = kernel._line_search(W, g, norm_g, aug, rho)
        assert np.all(w_new > 0.0)
        fractions = kernel.LINE_SEARCH_FRACTIONS * (-1.0 / g.min())
        candidates = W * (1.0 + fractions[:, None] * g)
        assert any(np.array_equal(w_new[0], c) for c in candidates)
        assert f_new == pytest.approx(kernel._batch_objective(w_new, aug), rel=1e-12)
        assert phi_new == pytest.approx(potential(w_new, aug, rho), rel=1e-12)

    def test_error_state_restored_after_each_call(self):
        # The rejected candidate of the test above takes the log of a
        # negative number, and a NaN direction leaves no finite candidate.
        # Neither warns nor raises a FloatingPointError, even inside a
        # raising error state, and the caller's state is as before after a
        # return and after the RuntimeError.
        prob = random_problem(4, 11)
        aug = kernel.augment(prob, q=0.5)
        rho = kernel.SolverConfig().rho(aug.K, aug.q)
        W = kernel.interior_point_default(aug)[None, :]
        g = np.linspace(-2.0, 1.0, W.shape[1])[None, :]
        norm_g = np.array([0.05 * np.linalg.norm(g)])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            before = np.geterr(), np.geterrcall()
            kernel._line_search(W, g, norm_g, aug, rho)
            assert (np.geterr(), np.geterrcall()) == before
            with pytest.raises(RuntimeError, match="no step candidate"):
                kernel._line_search(W, np.full_like(g, np.nan), norm_g, aug, rho)
            assert (np.geterr(), np.geterrcall()) == before


class TestProjectedDirection:
    def test_matches_lstsq_projection(self):
        # Reference: the residual of the SVD least-squares fit of u by the
        # rows of A~ W is the projection of u onto the null space of A~ W.
        # A backward-stable least-squares solve errs by O(kappa(A~ W) eps ||u||);
        # 100 covers the dimension factors.
        rng = np.random.default_rng(4)
        eps = np.finfo(float).eps
        for case in range(24):
            K = int(rng.integers(3, 41))
            q = (0.1, 0.5, 1.0)[case % 3]
            prob = random_problem(K, 5000 + case)
            aug = kernel.augment(prob, q=q)
            W = rng.lognormal(0.0, 3.0, size=(1 if case % 2 else 5, 3 * K))
            rho = kernel.SolverConfig().rho(K, q)
            f = kernel._batch_objective(W, aug)
            _, _, _, g, _, _ = kernel._projected_direction(W, f, aug, rho)
            grad = _grad_f(W, aug)
            for n in range(W.shape[0]):
                M = a_tilde(aug) * W[n]
                u = 1.0 - (rho / f[n]) * W[n] * grad[n]
                y = np.linalg.lstsq(M.T, u, rcond=None)[0]
                bound = 100.0 * np.linalg.cond(M) * eps * np.linalg.norm(u)
                assert np.linalg.norm(g[n] - (u - M.T @ y)) <= bound
                # A step w o (1 + t g) moves A~ w by t A~ W g.
                drift = np.linalg.norm(M @ g[n])
                assert drift <= 1e-5 * np.linalg.norm(a_tilde(aug), 2) * np.linalg.norm(W[n] * g[n])


class TestSolveNormal:
    def test_ridge_retry_on_singular_row(self):
        # A zero row and column make the second system singular, so the
        # batch fails to factor and is retried with a ridge on every system.
        # The first system alone solves without one.
        rng = np.random.default_rng(0)
        B = rng.standard_normal((4, 4))
        S = np.stack([B @ B.T + np.eye(4), np.diag([2.0, 0.0, 3.0, 1.0])])
        rhs = rng.standard_normal((2, 4))
        assert kernel._solve_normal(S[:1], rhs[:1])[1] == 0
        sol, retries = kernel._solve_normal(S, rhs)
        assert retries == 1
        assert sol[0] == pytest.approx(np.linalg.solve(S[0], rhs[0]), rel=1e-9)
        ridge = np.trace(S[1]) / 4 * 1e-12
        assert sol[1] == pytest.approx(np.linalg.solve(S[1] + ridge * np.eye(4), rhs[1]), rel=1e-9)

    def test_ridge_retry_on_zero_lu_pivot(self, monkeypatch):
        # The LU solve can meet an exactly zero pivot in a positive definite
        # system (seen at condition numbers near 1 / eps); that takes a ridge
        # retry.
        solve = kernel.lu_solve
        calls = []

        def singular_once(a, b):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        rng = np.random.default_rng(1)
        B = rng.standard_normal((2, 4, 4))
        S = B @ np.swapaxes(B, 1, 2) + np.eye(4)
        rhs = rng.standard_normal((2, 4))
        monkeypatch.setattr(kernel, "lu_solve", singular_once)
        sol, retries = kernel._solve_normal(S, rhs)
        assert retries == 1 and len(calls) == 2
        for n in range(2):
            ridge = np.trace(S[n]) / 4 * 1e-12
            assert sol[n] == pytest.approx(np.linalg.solve(S[n] + ridge * np.eye(4), rhs[n]), rel=1e-9)

    def test_retries_reach_certificates(self, aug3, monkeypatch):
        # Fail the first Schur solve; every start in that lockstep batch is
        # charged one retry, later steps none.
        config = kernel.SolverConfig(epsilon=1e-4)
        clean = kernel.multistart_solve(aug3, config, n_starts=3, seed=0)
        assert [c.ridge_retries for c in clean.certificates] == [0, 0, 0]
        fail_first_schur_solve(monkeypatch)
        res = kernel.multistart_solve(aug3, config, n_starts=3, seed=0)
        assert [c.ridge_retries for c in res.certificates] == [1, 1, 1]

    def test_one_lu_solve_per_step(self, monkeypatch):
        # One batched LU solve and no Cholesky factorization per lockstep
        # direction: one per step taken, plus the one the last start retires at.
        # Every solve goes through lu_solve, none through numpy.linalg itself.
        counts = {"lu_solve": 0, "solve": 0, "cholesky": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        prob = random_problem(12, 3)
        aug = kernel.augment(prob, q=0.5)
        counting(kernel, "lu_solve")
        for name in ("solve", "cholesky"):
            counting(np.linalg, name)
        res = kernel.multistart_solve(aug, kernel.SolverConfig(epsilon=1e-6), n_starts=4, seed=0)
        iterations = [c.iterations for c in res.certificates]
        assert counts == {"lu_solve": max(iterations) + 1, "solve": 0, "cholesky": 0}


def _batch_case(K, q, seed, n_starts=6):
    """A random instance and n_starts seeded interior starts, the default first."""
    prob = random_problem(K, seed)
    aug = kernel.augment(prob, q=q)
    rng = np.random.default_rng(seed)
    starts = [kernel.interior_point_default(aug)] + [
        kernel.interior_point_random(aug, rng.uniform(0.01, 0.99, size=K)) for _ in range(n_starts - 1)]
    return aug, np.asarray(starts)


def _assert_matches_single_starts(aug, config, starts, results):
    # Each start's batch result is, bit for bit, the one it reaches alone:
    # every product with A goes one row at a time, so a row's arithmetic
    # does not depend on the batch size.
    for w0, (batch_w, batch_cert) in zip(starts, results):
        w, cert = kernel.solve_potential_reduction(aug, config, w0)
        assert batch_cert.termination == cert.termination
        assert batch_cert.iterations == cert.iterations
        assert batch_w.tobytes() == w.tobytes()
        assert batch_cert.lam.tobytes() == cert.lam.tobytes()
        assert np.float64(batch_cert.f_value).tobytes() == np.float64(cert.f_value).tobytes()
        assert np.float64(batch_cert.primal_residual).tobytes() == np.float64(cert.primal_residual).tobytes()


def _assert_carried_values_match(aug, config, results):
    # The objective and multipliers on each certificate belong to the
    # returned iterate, not to a row the batch held before it was compacted.
    rho = config.rho(aug.K, aug.q)
    for w, cert in results:
        f = kernel._batch_objective(w[None, :], aug)
        assert cert.f_value == pytest.approx(f[0], rel=1e-12)
        lam1, lam2, _, _, _, _ = kernel._projected_direction(w[None, :], f, aug, rho)
        lam = np.concatenate([lam1, lam2], axis=1)
        assert cert.lam == pytest.approx(lam[0], rel=1e-9, abs=1e-12 * np.max(np.abs(lam)))


class TestLockstepBatch:
    def test_batch_matches_single_start_solves(self):
        # Starts leave the batch at different iterations.
        config = kernel.SolverConfig(epsilon=1e-6)
        for i, K in enumerate((5, 8, 12)):
            for j, q in enumerate((0.1, 0.5, 1.0)):
                aug, starts = _batch_case(K, q, 700 + 3 * i + j)
                results = kernel._solve_batch(aug, config, starts)
                assert len({cert.iterations for _, cert in results}) > 1
                _assert_matches_single_starts(aug, config, starts, results)

    def test_carried_values_at_eps_kkt(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = kernel.SolverConfig(epsilon=1e-6, trace_path=str(path))
        aug, starts = _batch_case(8, 0.1, 703)
        results = kernel._solve_batch(aug, config, starts)
        assert {cert.termination for _, cert in results} == {kernel.EPS_KKT}
        assert len({cert.iterations for _, cert in results}) > 1
        _assert_carried_values_match(aug, config, results)
        # The last traced potential of each start is that of its returned iterate.
        last = {}
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            last[rec["start"]] = rec["phi"]
        rho = config.rho(aug.K, aug.q)
        for idx, (w, _) in enumerate(results):
            assert last[idx] == pytest.approx(potential(w[None, :], aug, rho)[0], rel=1e-12)

    def test_carried_values_at_iteration_cap(self, monkeypatch):
        aug, starts = _batch_case(8, 0.1, 703, n_starts=3)
        free = kernel._solve_batch(aug, kernel.SolverConfig(epsilon=1e-6), starts)
        iterations = [cert.iterations for _, cert in free]
        assert min(iterations) < max(iterations)
        # The cap lets the faster starts finish and stops the slowest.
        config = kernel.SolverConfig(epsilon=1e-6)
        monkeypatch.setattr(kernel, "ITER_CAP_ABS", max(iterations) - 1)
        results = kernel._solve_batch(aug, config, starts)
        assert [cert.termination for _, cert in results] == [
            kernel.ITERATION_CAP if n == max(iterations) else kernel.EPS_KKT for n in iterations]
        _assert_carried_values_match(aug, config, results)
        _assert_matches_single_starts(aug, config, starts, results)

    @pytest.mark.parametrize("K,q,seed,floor,mixed", [(8, 0.1, 703, 1e-3, False),
                                                      (8, 0.7, 709, 1.3e-11, True)])
    def test_carried_values_at_underflow(self, monkeypatch, K, q, seed, floor, mixed):
        # The first case underflows every start, at different steps; in the
        # second, one step retires a start at eps-KKT before the line search
        # and another at underflow after it, so the underflow certificate
        # reads the multipliers of a batch compacted within that step.
        monkeypatch.setattr(kernel, "_W_FLOOR", floor)
        config = kernel.SolverConfig(epsilon=1e-6)
        aug, starts = _batch_case(K, q, seed)
        results = kernel._solve_batch(aug, config, starts)
        by_term = {}
        for _, cert in results:
            by_term.setdefault(cert.termination, set()).add(cert.iterations)
        assert len(by_term[kernel.UNDERFLOW]) > 1
        if mixed:
            assert by_term[kernel.EPS_KKT] & by_term[kernel.UNDERFLOW]
        else:
            assert set(by_term) == {kernel.UNDERFLOW}
        _assert_carried_values_match(aug, config, results)
        _assert_matches_single_starts(aug, config, starts, results)


class TestSolve:
    def test_single_link_supports_itself(self):
        aug = _single_link_aug(q=0.5, alpha=0.2)
        config = kernel.SolverConfig(epsilon=1e-4)
        w, cert = kernel.solve_potential_reduction(aug, config, kernel.interior_point_default(aug))
        x, support = kernel.round_to_power(w, aug, config.zero_tol)
        assert x == pytest.approx([1.0], abs=1e-3)
        assert support == [0]
        assert cert.termination in (kernel.EPS_KKT, kernel.EPS_OPTIMAL)

    def test_three_link_lq_recovers_sparse_solution(self, aug3):
        config = kernel.SolverConfig(epsilon=1e-4)
        res = kernel.multistart_solve(aug3, config, n_starts=100, seed=0)
        assert np.max(np.abs(res.x - X3_STAR)) <= 1e-3
        assert res.support == [0, 1]

    def test_three_link_l1_collapses_to_zero(self, three_link):
        aug = kernel.augment(three_link, q=1.0)
        config = kernel.SolverConfig(epsilon=1e-6)
        w, _ = kernel.solve_potential_reduction(aug, config, kernel.interior_point_default(aug))
        x, _ = kernel.round_to_power(w, aug, config.zero_tol)
        assert np.max(np.abs(x)) <= 1e-4

    def test_final_iterate_feasible(self, aug3):
        config = kernel.SolverConfig(epsilon=1e-4)
        w, _ = kernel.solve_potential_reduction(aug3, config, kernel.interior_point_default(aug3))
        assert np.max(np.abs(a_tilde(aug3) @ w - b_tilde(aug3))) <= 1e-10
        assert np.all(w > 0.0)

    def test_primal_residual_recorded(self, aug3):
        config = kernel.SolverConfig(epsilon=1e-6)
        aug = kernel.augment(random_problem(20, 4).with_alpha(0.01), q=0.5)
        for problem in (aug3, aug):
            w, cert = kernel.solve_potential_reduction(
                problem, config, kernel.interior_point_default(problem))
            expected = np.max(np.abs(a_tilde(problem) @ w - b_tilde(problem)))
            assert cert.primal_residual == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_iteration_cap_termination(self, aug3, monkeypatch):
        monkeypatch.setattr(kernel, "ITER_CAP_ABS", 3)
        config = kernel.SolverConfig(epsilon=1e-4)
        w, cert = kernel.solve_potential_reduction(aug3, config, kernel.interior_point_default(aug3))
        assert cert.termination == kernel.ITERATION_CAP
        assert cert.iterations == 3

    def test_underflow_termination(self, aug3, monkeypatch):
        monkeypatch.setattr(kernel, "_W_FLOOR", 0.1)
        config = kernel.SolverConfig(epsilon=1e-4)
        _, cert = kernel.solve_potential_reduction(aug3, config, kernel.interior_point_default(aug3))
        assert cert.termination == kernel.UNDERFLOW
        assert cert.iterations < config.iter_cap(aug3.K, aug3.q)
        # multistart skips underflowed starts as it skips capped ones
        with pytest.raises(RuntimeError):
            kernel.multistart_solve(aug3, config, n_starts=3, seed=0)

    def test_rejects_boundary_start(self, aug3):
        with pytest.raises(ValueError):
            kernel.solve_potential_reduction(aug3, kernel.SolverConfig(), np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_start(self, aug3, bad):
        w0 = kernel.interior_point_default(aug3)
        w0[4] = bad
        with pytest.raises(ValueError, match="w_init must be finite"):
            kernel.solve_potential_reduction(aug3, kernel.SolverConfig(), w0)

    @pytest.mark.parametrize("w_init", [["0.5"] * 9, [True] * 9], ids=["str", "bool"])
    def test_rejects_non_numeric_start(self, aug3, w_init):
        # Unchecked, numpy cast the strings to floats and the solve ended eps-kkt.
        with pytest.raises(ValueError, match="^w_init must be a numeric array"):
            kernel.solve_potential_reduction(aug3, kernel.SolverConfig(), w_init)

    def test_rejects_start_off_the_constraints(self):
        # Every step keeps A~ w where the start put it.  Unchecked, this start
        # ended eps-kkt with primal_residual 0.4, x = 0.6 e and no support; the
        # default start reaches x = 0.625 e with all three links supported.
        A = np.full((3, 3), -0.1) + 1.1 * np.eye(3)
        aug = kernel.augment(NormalizedProblem(A=A, b=np.full(3, 0.5), budgets=np.ones(3)), q=0.5)
        config = kernel.SolverConfig(epsilon=1e-6)
        with pytest.raises(ValueError, match=r"^w_init must satisfy A~ w = b~: max\|A~ w - b~\| = 0\.4 "):
            kernel.solve_potential_reduction(aug, config, np.full(9, 0.3))
        w, cert = kernel.solve_potential_reduction(aug, config, kernel.interior_point_default(aug))
        assert kernel.round_to_power(w, aug)[1] == [0, 1, 2] and cert.primal_residual <= 1e-9

    def test_start_within_tolerance_solves(self, aug3):
        # A start off A~ w = b~ by less than START_TOL (1 + ||A||_inf) solves.
        w0 = kernel.interior_point_default(aug3)
        tol = kernel.START_TOL * (1.0 + np.abs(aug3.A).sum(axis=1).max())
        w0[3] += 0.5 * tol
        kernel.solve_potential_reduction(aug3, kernel.SolverConfig(), w0)
        w0[3] += tol
        with pytest.raises(ValueError, match="w_init must satisfy"):
            kernel.solve_potential_reduction(aug3, kernel.SolverConfig(), w0)

    @pytest.mark.parametrize("shape", [(8,), (10,), (1, 9), (3, 3)])
    def test_rejects_misshapen_start(self, aug3, shape):
        with pytest.raises(ValueError, match=r"w_init must have shape \(9,\)"):
            kernel.solve_potential_reduction(aug3, kernel.SolverConfig(), np.full(shape, 0.5))

    def test_trace_records(self, aug3, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = kernel.SolverConfig(epsilon=1e-3, trace_path=str(path))
        _, cert = kernel.solve_potential_reduction(aug3, config, kernel.interior_point_default(aug3))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == cert.iterations + 1
        assert set(records[0]) == {"iter", "f", "phi", "norm_g"}
        phis = [r["phi"] for r in records]
        assert all(b < a for a, b in zip(phis, phis[1:]))

    def test_traced_potential_decrease_random(self, tmp_path):
        # The production path on random instances: every step of the line
        # search lowers phi by at least the radius-beta guarantee.
        worst = np.inf
        for i, K in enumerate((3, 5, 8, 12, 16, 20)):
            for j, q in enumerate((0.1, 0.3, 0.5, 1.0)):
                prob = random_problem(K, 3000 + 4 * i + j)
                aug = kernel.augment(prob, q=q)
                path = tmp_path / f"trace_{K}_{q}.jsonl"
                config = kernel.SolverConfig(trace_path=str(path))
                kernel.solve_potential_reduction(aug, config, kernel.interior_point_default(aug))
                phis = [json.loads(line)["phi"] for line in path.read_text().splitlines()]
                worst = min([worst] + [a - b for a, b in zip(phis, phis[1:])])
        assert worst >= kernel.MIN_POTENTIAL_DECREASE - 1e-9

    def test_stops_at_first_componentwise_kkt_point(self, monkeypatch):
        # A start retires as eps-KKT at the first iterate whose projected
        # direction has max|g_n| <= 1: the returned iterate passes the test
        # and the iterate one step earlier fails it.
        config = kernel.SolverConfig(epsilon=1e-6)
        for i, K in enumerate((5, 8, 12, 16, 20)):
            for j, q in enumerate((0.1, 0.5, 1.0)):
                prob = random_problem(K, 7100 + 3 * i + j)
                aug = kernel.augment(prob, q=q)
                rho = config.rho(K, q)
                w0 = kernel.interior_point_default(aug)
                w, cert = kernel.solve_potential_reduction(aug, config, w0)
                assert cert.termination == kernel.EPS_KKT
                g = kernel._projected_direction(w[None, :], np.array([cert.f_value]), aug, rho)[3]
                assert np.max(np.abs(g)) <= 1.0
                with monkeypatch.context() as m:
                    m.setattr(kernel, "ITER_CAP_ABS", cert.iterations - 1)
                    w_prev, prev = kernel.solve_potential_reduction(aug, config, w0)
                assert prev.termination == kernel.ITERATION_CAP
                g_prev = kernel._projected_direction(w_prev[None, :], np.array([prev.f_value]), aug, rho)[3]
                assert np.max(np.abs(g_prev)) > 1.0


class TestMultistart:
    def test_n1_equals_default_start_solve(self, aug3):
        config = kernel.SolverConfig(epsilon=1e-4)
        res = kernel.multistart_solve(aug3, config, n_starts=1, seed=0)
        w, _ = kernel.solve_potential_reduction(aug3, config, kernel.interior_point_default(aug3))
        x, support = kernel.round_to_power(w, aug3, config.zero_tol)
        assert res.x == pytest.approx(x, rel=1e-12)
        assert res.support == support

    def test_determinism(self, aug3):
        config = kernel.SolverConfig(epsilon=1e-4)
        a = kernel.multistart_solve(aug3, config, n_starts=10, seed=42)
        b = kernel.multistart_solve(aug3, config, n_starts=10, seed=42)
        assert np.array_equal(a.x, b.x)
        assert a.best_start == b.best_start
        assert a.total_iterations == b.total_iterations

    def test_certificate_per_start(self, aug3):
        res = kernel.multistart_solve(aug3, kernel.SolverConfig(epsilon=1e-4), 5, 0)
        assert len(res.certificates) == 5

    def test_invalid_n(self, aug3):
        # Unchecked, 2.5 fails in numpy's uniform draw and True runs one start.
        for n_starts in (0, 2.5, True):
            with pytest.raises(ValueError, match="n_starts"):
                kernel.multistart_solve(aug3, kernel.SolverConfig(), n_starts, 0)
        for seed in (-1, 1.5):
            with pytest.raises(ValueError, match="seed"):
                kernel.multistart_solve(aug3, kernel.SolverConfig(), 1, seed)


class TestRoundToPower:
    def test_identity_on_box(self, aug3):
        w = np.concatenate([np.array([0.3, 0.7, 0.1]), np.ones(6)])
        x, _ = kernel.round_to_power(w, aug3)
        assert x == pytest.approx([0.3, 0.7, 0.1])

    def test_three_link_support_at_optimum(self, aug3):
        w = np.concatenate([X3_STAR, np.ones(6)])
        _, support = kernel.round_to_power(w, aug3, zero_tol=1e-6)
        assert support == [0, 1]

    def test_infinite_threshold_supports_all(self, aug3):
        w = np.concatenate([np.zeros(3) + 0.1, np.ones(6)])
        _, support = kernel.round_to_power(w, aug3, zero_tol=np.inf)
        assert support == [0, 1, 2]


class TestConfig:
    def test_rho_rule(self):
        config = kernel.SolverConfig(epsilon=1e-4)
        assert config.rho(5, 0.5) == pytest.approx(max(6 * 5 / 1e-4, 2 * 5 / 0.5))
        assert config.rho(5, 0.5) > 5 / 0.5

    def test_rho_overflow_rejected(self):
        # Unchecked, rho = 6K/epsilon = inf makes every step's potential NaN,
        # and the solve fails in the line search instead.
        with pytest.raises(ValueError, match="epsilon = 1e-320"):
            kernel.SolverConfig(epsilon=1e-320).rho(4, 0.5)

    def test_iter_cap_shape(self, monkeypatch):
        assert kernel.SolverConfig(epsilon=1e-6).iter_cap(5, 0.5) == 100_000
        monkeypatch.setattr(kernel, "ITER_CAP_ABS", 10**9)
        config = kernel.SolverConfig(epsilon=1e-2)
        expected = 10.0 * (5 / 1e-2) * math.log(1e2)
        assert config.iter_cap(5, 0.5) == int(expected)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kernel.SolverConfig(epsilon=0.0)

    def test_trace_path_must_be_a_path(self, tmp_path):
        # Unchecked, open() takes an int as a file descriptor, which the solve then closes.
        for bad in (2, 2.0, b"trace.jsonl"):
            with pytest.raises(ValueError, match="trace_path"):
                kernel.SolverConfig(trace_path=bad)
        assert kernel.SolverConfig(trace_path=tmp_path / "t.jsonl").trace_path == tmp_path / "t.jsonl"

    def test_empty_trace_path_raises_as_open_does(self, aug3):
        # "" is a path that open() rejects, not a request for no trace.
        config = kernel.SolverConfig(trace_path="")
        with pytest.raises(FileNotFoundError):
            kernel.solve_potential_reduction(aug3, config, kernel.interior_point_default(aug3))

    @pytest.mark.parametrize("epsilon", [True, "0.1", None], ids=["bool", "str", "none"])
    def test_epsilon_must_be_a_number(self, epsilon):
        # Unchecked, "0.1" and None fail the range test with a TypeError.
        with pytest.raises(ValueError, match="epsilon must be a number"):
            kernel.SolverConfig(epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 1.0])
    def test_epsilon_must_be_finite_below_one(self, epsilon):
        # Unchecked, nan would fail later in iter_cap's int() and inf in its log(1 / eps).
        with pytest.raises(ValueError, match="epsilon"):
            kernel.SolverConfig(epsilon=epsilon)

    def test_negative_iteration_cap_rejected(self, aug3, monkeypatch):
        # A cap of 0 is legal: every start returns its initial point, capped.
        monkeypatch.setattr(kernel, "ITER_CAP_ABS", 0)
        w0 = kernel.interior_point_default(aug3)
        w, cert = kernel.solve_potential_reduction(aug3, kernel.SolverConfig(), w0)
        assert cert.termination == kernel.ITERATION_CAP and cert.iterations == 0
        assert np.array_equal(w, w0)

