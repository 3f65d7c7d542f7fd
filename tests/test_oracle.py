"""Brute-force enumeration, the reference LP oracle, and recovery-exponent search."""

import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jpac import kernel, oracle
from jpac.admission import admissible
from jpac.network import NormalizedProblem
from jpac.oracle import (ENUMERATION_GUARD, EnumerationResult, enumerate_l0, estimate_qbar,
                         matches_optimum)

from conftest import ALPHA3, X3_STAR, diag_problem, random_problem
from reference import LP_GUARD, lp_exact, lq_vertices


def _ref_enumerate_l0(problem, zero_tol=1e-9):
    """Per-subset loop: x, residual count, power and objective built for each subset."""
    k = problem.K
    candidates = [(float(np.sum(problem.b > zero_tol)), 0, 0.0, (), np.zeros(k))]
    for size in range(1, k + 1):
        for S in combinations(range(k), size):
            x_s = admissible(problem, S)
            if x_s is None:
                continue
            x = np.zeros(k)
            x[list(S)] = x_s
            resid = problem.b - problem.A @ x
            power = float(problem.budgets @ x)
            obj = float(np.sum(np.abs(resid) > zero_tol)) + problem.alpha * power
            candidates.append((obj, size, power, S, x))
    best = min(candidates, key=lambda c: (c[0], -c[1], c[2], c[3]))
    near = [c for c in candidates if c[0] <= best[0] + 1e-9 and c[3] != best[3]]
    return EnumerationResult(best_support=best[3], best_x=best[4], objective=best[0],
                             is_unique_support=not near)


def _assert_matches_reference(problem):
    got, ref = enumerate_l0(problem), _ref_enumerate_l0(problem)
    assert got.best_support == ref.best_support
    assert got.is_unique_support == ref.is_unique_support
    assert got.objective == pytest.approx(ref.objective, rel=0.0, abs=1e-12)
    np.testing.assert_allclose(got.best_x, ref.best_x, rtol=0.0, atol=1e-15)
    return got


class TestEnumerate:
    def test_three_link_reference(self, three_link):
        res = enumerate_l0(three_link)
        assert res.best_support == (0, 1)
        assert res.best_x == pytest.approx(X3_STAR)
        assert res.objective == pytest.approx(1.0 + ALPHA3)
        assert res.is_unique_support

    def test_orthogonal_admits_all(self):
        res = enumerate_l0(diag_problem(4, 0.5, 0.05))
        assert res.best_support == (0, 1, 2, 3)
        assert res.best_x == pytest.approx(np.full(4, 0.5))

    def test_best_x_is_min_power_solution(self):
        for seed in range(10):
            prob = random_problem(6, seed)
            res = enumerate_l0(prob)
            support = list(res.best_support)
            x = np.zeros(6)
            x[support] = admissible(prob, support)
            assert res.best_x == pytest.approx(x, abs=1e-12)
            off = [k for k in range(6) if k not in res.best_support]
            resid = prob.b - prob.A @ res.best_x
            assert np.all(resid[off] > 1e-9)

    def test_dominates_multistart(self):
        config = kernel.SolverConfig(epsilon=1e-6)
        for seed in range(10):
            prob = random_problem(5, seed)
            bench = enumerate_l0(prob)
            aug = kernel.augment(prob, q=0.5)
            res = kernel.multistart_solve(aug, config, 20, seed)
            resid = prob.b - prob.A @ res.x
            obj = float(np.sum(resid > 1e-6)) + prob.alpha * float(prob.budgets @ res.x)
            assert bench.objective <= obj + 1e-6

    def test_guard(self):
        prob = diag_problem(ENUMERATION_GUARD + 1, 0.5, 1e-3)
        with pytest.raises(ValueError):
            enumerate_l0(prob)

    def test_serialization(self, three_link):
        doc = json.loads(enumerate_l0(three_link).to_json())
        assert doc["best_support"] == [0, 1]
        assert doc["objective"] == pytest.approx(1.0 + ALPHA3)


class TestEnumerateReference:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 8), scale=st.sampled_from([1.0, 0.707]))
    def test_random_scenarios(self, seed, K, scale):
        prob = random_problem(K, seed, distance_scale=scale)
        _assert_matches_reference(prob)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(b=st.lists(st.sampled_from([1e-12, 0.25, 0.5, 1.5]) | st.floats(0.05, 1.5),
                      min_size=1, max_size=8))
    def test_orthogonal_links(self, b):
        # Every link with b_k <= 1 is admissible against any set; one with
        # b_k below zero_tol adds no residual count when silent, so leaving it
        # out ties the optimum to within alpha * b_k.
        K = len(b)
        prob = NormalizedProblem(A=np.eye(K), b=b, budgets=np.ones(K))
        res = _assert_matches_reference(prob)
        assert res.best_support == tuple(k for k in range(K) if 1e-9 < b[k] <= 1.0)
        assert res.is_unique_support == all(v > 1e-9 for v in b)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(K=st.integers(2, 7), c=st.floats(0.05, 0.6), b0=st.floats(0.01, 0.9))
    def test_identical_links(self, K, c, b0):
        # K copies of one link coupled by c: every subset of a size has the
        # same x_S and the same objective, so the optimum is tied and the
        # lexicographically smallest set of the largest admissible size wins.
        A = np.full((K, K), -c)
        np.fill_diagonal(A, 1.0)
        prob = NormalizedProblem(A=A, b=np.full(K, b0), budgets=np.ones(K))
        res = _assert_matches_reference(prob)
        size = len(res.best_support)
        assert res.best_support == tuple(range(size))
        assert res.is_unique_support == (size in (0, K))


class TestLpExact:
    def test_three_link_collapses_to_zero(self, three_link):
        assert np.max(np.abs(lp_exact(three_link))) <= 1e-12

    def test_orthogonal_drives_residuals_to_zero(self):
        x = lp_exact(diag_problem(3, 0.5, 0.05))
        assert x == pytest.approx(np.full(3, 0.5))

    def test_matches_l1_kernel_objective(self):
        config = kernel.SolverConfig(epsilon=1e-6)
        for seed in range(8):
            prob = random_problem(6, seed)
            x_lp = lp_exact(prob)
            lp_obj = float(np.sum(prob.b - prob.A @ x_lp) + prob.alpha * (prob.budgets @ x_lp))
            aug = kernel.augment(prob, q=1.0)
            _, cert = kernel.solve_potential_reduction(
                aug, config, kernel.interior_point_default(aug)
            )
            assert lp_obj <= cert.f_value + 1e-12
            assert cert.f_value - lp_obj <= 1e-6

    def test_guard(self):
        with pytest.raises(ValueError):
            lp_exact(diag_problem(LP_GUARD + 1, 0.5, 0.01))


class TestQbarTheorem:
    """The q-bar theorem on the lq objective's global minimum, apart from the solver.

    Forty default instances, K 3-5, seeds 9000-9039.  The scenario's budget
    rule leaves A, b and alpha pbar the same at every distance scale, so the
    two scales alternate over distinct seeds.
    """

    PROBLEMS = [(3 + seed % 3, seed, 0.707 if seed % 2 else 1.0) for seed in range(9000, 9040)]

    def test_vertex_l0_minimum_is_the_enumeration_objective(self):
        for K, seed, scale in self.PROBLEMS:
            problem = random_problem(K, seed, scale)
            X, R = lq_vertices(problem)
            l0 = np.count_nonzero(R > 0.0, axis=1) + problem.alpha * (X @ problem.budgets)
            assert l0.min() == pytest.approx(enumerate_l0(problem).objective, abs=1e-9), seed

    def test_small_q_global_minimizer_is_the_l0_optimum(self):
        # Every q in (0, q-bar] solves the instance exactly; q = 1e-6 lies
        # below every q-bar here.
        unique = 0
        for K, seed, scale in self.PROBLEMS:
            problem = random_problem(K, seed, scale)
            exact = enumerate_l0(problem)
            if not exact.is_unique_support:
                continue
            unique += 1
            X, R = lq_vertices(problem)
            best = int(np.argmin(problem.alpha * (X @ problem.budgets) + np.sum(R ** 1e-6, axis=1)))
            assert tuple(np.flatnonzero(R[best] == 0.0)) == exact.best_support, seed
            assert X[best] == pytest.approx(exact.best_x, abs=1e-9), seed
        assert unique >= len(self.PROBLEMS) // 2


class TestMatchesOptimum:
    # three_link has unit budgets, so total power in mW is 1e3 * sum(x).
    def test_support_and_power_rule(self, three_link):
        exact = EnumerationResult((0, 1), X3_STAR, 1.0, True)   # 1000 mW: 1 mW tolerance
        assert not matches_optimum(three_link, exact, X3_STAR, (0, 2))
        assert matches_optimum(three_link, exact, X3_STAR + [9e-4, 0.0, 0.0], (1, 0))
        assert not matches_optimum(three_link, exact, X3_STAR + [1.1e-3, 0.0, 0.0], (0, 1))

    def test_zero_power_optimum_floor(self, three_link):
        # 1e-3 of the 1e-12 mW floor: 1e-16 mW matches, 1e-13 mW does not.
        exact = EnumerationResult((), np.zeros(3), 0.0, True)
        assert matches_optimum(three_link, exact, np.array([1e-19, 0.0, 0.0]), ())
        assert not matches_optimum(three_link, exact, np.array([1e-16, 0.0, 0.0]), ())


class TestEstimateQbar:
    def test_three_link_recovery(self, three_link):
        config = kernel.SolverConfig(epsilon=1e-4)
        qbar, status = estimate_qbar(three_link, n_starts=20, config=config, seed=0)
        assert status == "success"
        assert qbar >= 0.5

    def test_orthogonal_succeeds_at_max_q(self, monkeypatch):
        prob = diag_problem(3)
        config = kernel.SolverConfig(epsilon=1e-6)
        monkeypatch.setattr(oracle, "QBAR_GRID", (0.5, 0.9))
        qbar, status = estimate_qbar(prob, n_starts=1, config=config)
        assert (qbar, status) == (0.9, "success")

    def test_no_clean_start_is_no_match(self, three_link, monkeypatch):
        # Every start underflows, so multistart_solve raises NoCleanStartError at each q.
        monkeypatch.setattr(kernel, "_W_FLOOR", 0.1)
        monkeypatch.setattr(oracle, "QBAR_GRID", (0.5, 0.9))
        for q in oracle.QBAR_GRID:
            with pytest.raises(kernel.NoCleanStartError):
                kernel.multistart_solve(kernel.augment(three_link, q=q), kernel.SolverConfig(), 2, 0)
        assert estimate_qbar(three_link, n_starts=2) == (0.0, "failure")

    def test_other_solver_failure_propagates(self, three_link, monkeypatch):
        # Unchecked, a line-search failure at every q reads as "no match".
        def fail(*args):
            raise RuntimeError("no step candidate keeps the iterate strictly positive")

        monkeypatch.setattr(kernel, "_line_search", fail)
        with pytest.raises(RuntimeError, match="no step candidate"):
            estimate_qbar(three_link, n_starts=2)

    def test_rho_overflow_raises_by_name(self):
        # rho = 6K/epsilon overflows; unchecked, every q failed in the line
        # search and the result was (0.0, "failure").
        config = kernel.SolverConfig(epsilon=1e-320)
        with pytest.raises(ValueError, match="epsilon"):
            estimate_qbar(random_problem(4, 7), n_starts=2, config=config)

    def test_n_starts_checked_before_enumeration(self, three_link, monkeypatch):
        def never(problem):
            raise AssertionError("enumerate_l0 ran before n_starts was checked")

        monkeypatch.setattr(oracle, "enumerate_l0", never)
        for n_starts in (0, 2.5, True):
            with pytest.raises(ValueError, match="n_starts"):
                estimate_qbar(three_link, n_starts=n_starts)

    def test_seed_checked_before_enumeration(self, three_link, monkeypatch):
        def never(problem):
            raise AssertionError("enumerate_l0 ran before seed was checked")

        monkeypatch.setattr(oracle, "enumerate_l0", never)
        for seed in (-1, 1.5):
            with pytest.raises(ValueError, match="seed"):
                estimate_qbar(three_link, n_starts=2, seed=seed)

    def test_monotone_in_grid(self, three_link, monkeypatch):
        # Dropping grid points below the returned exponent changes nothing.
        config = kernel.SolverConfig(epsilon=1e-4)
        full = tuple(float(q) for q in np.round(np.arange(0.05, 1.0 + 1e-12, 0.05), 10))
        monkeypatch.setattr(oracle, "QBAR_GRID", full)
        q1, s1 = estimate_qbar(three_link, n_starts=20, config=config, seed=3)
        assert s1 == "success"
        monkeypatch.setattr(oracle, "QBAR_GRID", tuple(q for q in full if q >= q1))
        q2, s2 = estimate_qbar(three_link, n_starts=20, config=config, seed=3)
        assert (q2, s2) == (q1, s1)
