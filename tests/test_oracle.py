"""Brute-force enumeration, the reference LP oracle, and recovery-exponent search."""

import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jpac import kernel, oracle
from jpac.admission import admissible
from jpac.network import NormalizedProblem
from jpac.oracle import ENUMERATION_GUARD, EnumerationResult, enumerate_l0, estimate_qbar

from conftest import ALPHA3, X3_STAR, diag_problem, random_problem
from reference import LP_GUARD, lp_exact


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

    def test_n_starts_checked_before_enumeration(self, three_link, monkeypatch):
        def never(problem):
            raise AssertionError("enumerate_l0 ran before n_starts was checked")

        monkeypatch.setattr(oracle, "enumerate_l0", never)
        with pytest.raises(ValueError, match="n_starts"):
            estimate_qbar(three_link, n_starts=0)

    def test_seed_checked_before_enumeration(self, three_link, monkeypatch):
        def never(problem):
            raise AssertionError("enumerate_l0 ran before seed was checked")

        monkeypatch.setattr(oracle, "enumerate_l0", never)
        with pytest.raises(ValueError, match="seed"):
            estimate_qbar(three_link, n_starts=2, seed=-1)

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
