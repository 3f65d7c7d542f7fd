"""Deflation algorithms and exact supportability primitives."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jpac import admission, kernel
from jpac.admission import (
    admissible,
    postprocess,
    preprocess,
    removal_candidate,
    run_lqmd,
    run_nlpd,
)
from jpac.network import NormalizedProblem, normalize, restrict, select_alpha, sinr
from jpac.oracle import enumerate_l0
from jpac.scenario import ScenarioConfig, generate

from conftest import diag_problem, fail_first_schur_solve, random_problem
from reference import foschini_miljanic, necessary_condition


def _dense_problem(K: int, seed: int) -> NormalizedProblem:
    # distance_scale 0.707 leaves links after preprocessing that need deflation rounds.
    return random_problem(K, seed, distance_scale=0.707)


class TestAdmissible:
    def test_three_link_pair(self, three_link):
        assert admissible(three_link, [0, 1]) == pytest.approx([0.5, 0.5])

    def test_three_link_full_set_rejected(self, three_link):
        # The 3x3 solve gives (-1, -1, -1.5), violating x >= 0.
        assert admissible(three_link, [0, 1, 2]) is None

    def test_singleton(self, three_link):
        assert admissible(three_link, [2]) == pytest.approx([0.5])
        tight = NormalizedProblem(A=[[1.0]], b=[1.5], budgets=[1.0])
        assert admissible(tight, [0]) is None

    def test_inverse_certification(self):
        # Admissible sets must certify an entrywise nonnegative inverse.
        for seed in range(20):
            prob = random_problem(6, seed)
            for S in ([0, 1], [2, 3, 4], [0, 5]):
                x = admissible(prob, S)
                if x is not None:
                    inv = np.linalg.inv(prob.A[np.ix_(S, S)])
                    assert np.all(inv >= -1e-10)
                    assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_empty_rejected(self, three_link):
        with pytest.raises(ValueError):
            admissible(three_link, [])

    @pytest.mark.parametrize("S", [[-1], [0, 0], [3], [1, 3], [1.7], [True], [0.4, 1.9]],
                             ids=["negative", "duplicate", "past-end", "one-past-end",
                                  "float", "bool", "floats"])
    def test_invalid_positions_rejected_as_restrict_rejects_them(self, three_link, S):
        # Unchecked, [-1] wrapped to row 2 and came back admissible, [0, 0]
        # solved a singular block and came back None, [1.7] and [True] came
        # back as row 1's x, and [0.4, 1.9] restricted to rows {0, 1}.
        for fn in (admissible, restrict):
            with pytest.raises(ValueError, match="valid row indices"):
                fn(three_link, S)

    def test_orthogonal(self):
        prob = diag_problem(K=3, b=0.4)
        assert admissible(prob, [2, 0]) == pytest.approx([0.4, 0.4])


class TestAdmissibleOneSet:
    """admissible's body on the rows of one set: its box test, its clip and its bits."""

    def test_one_set_box_test_matches_in_box(self, monkeypatch):
        # admissible tests the box in one pass of Python's sum, min and max:
        # NaN, +inf, both infinities at once (a NaN sum) and entries past the
        # slack fail, the two bounds themselves pass, and every verdict is
        # _in_box's.
        atol = admission.ADMISSIBLE_ATOL
        prob = diag_problem(K=3, b=0.5)
        cases = [(entry, pos, want) for entry, want in ((np.nan, False), (np.inf, False), (-2.0 * atol, False),
                                                        (1.0 + 2.0 * atol, False), (-atol, True), (1.0 + atol, True))
                 for pos in range(3)]
        for entry, pos, want in cases + [((np.inf, -np.inf), [0, 2], False)]:
            x = np.full(3, 0.5)
            x[pos] = entry
            monkeypatch.setattr(admission, "lu_solve", lambda a, b, x=x: x.copy())
            x_s = admissible(prob, [0, 1, 2])
            ok = x_s is not None
            assert ok is want and bool(admission._in_box(x)) is want, (entry, pos)
            if ok:
                assert x_s.tolist() == np.clip(x, 0.0, 1.0).tolist()

    @staticmethod
    def _assert_matches_numpy_solve(prob, S):
        # The verdict is _in_box of numpy.linalg.solve's x_S (a singular A_SS
        # fails), and an accepted x is that x clipped, bit for bit.
        try:
            want = np.linalg.solve(prob.A[np.ix_(S, S)], prob.b[S])
        except np.linalg.LinAlgError:
            assert admissible(prob, S) is None
            return None
        x_s = admissible(prob, S)
        assert (x_s is not None) is bool(admission._in_box(want)), S
        if x_s is not None:
            assert x_s.tobytes() == np.minimum(np.maximum(want, 0.0), 1.0).tobytes(), S
        return want

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 10), scale=st.sampled_from([1.0, 0.707]),
           data=st.data())
    def test_one_set_matches_numpy_solve_bitwise(self, seed, K, scale, data):
        prob = random_problem(K, seed, scale)
        S = sorted(data.draw(st.sets(st.integers(0, K - 1), min_size=1)))
        self._assert_matches_numpy_solve(prob, S)

    def test_one_set_clips_entries_within_the_slack(self):
        # Hand-built sets whose x has entries in [-atol, 0) or in (1, 1 + atol]:
        # they pass, and the clip still maps those entries to 0 and 1.
        atol = admission.ADMISSIBLE_ATOL
        above = NormalizedProblem(A=np.eye(3), b=[0.5, 1.0 + 0.5 * atol, 1.0 + atol], budgets=np.ones(3))
        # A = [[1, -2], [-2, 1]] is no M-matrix: b = 5e-12 gives x = -5e-12 in both entries.
        below = NormalizedProblem(A=[[1.0, -2.0], [-2.0, 1.0]], b=[0.05 * atol, 0.05 * atol], budgets=[1.0, 1.0])
        for prob, S, clipped in ((above, [0, 1, 2], [0.5, 1.0, 1.0]), (above, [1, 2], [1.0, 1.0]),
                                 (below, [0, 1], [0.0, 0.0])):
            want = self._assert_matches_numpy_solve(prob, S)
            assert np.all((want > 1.0) | (want < 0.0) | (want == 0.5)), want
            assert admissible(prob, S).tolist() == clipped


class TestMinPowerAllocation:
    """The minimum-power allocation of a set is the x_S that admissible returns."""

    def test_three_link(self, three_link):
        x = admissible(three_link, [1, 0])
        assert x == pytest.approx([0.5, 0.5])
        # Both targets are met with equality, and the fixed-point power
        # control started from zero power reaches the same allocation.
        assert three_link.A[:2, :2] @ x == pytest.approx(three_link.b[:2])
        assert foschini_miljanic(three_link, [0, 1]) == pytest.approx(x)

    def test_inadmissible_rejected(self, three_link):
        # The only solution of A x = b is (-1, -1, -1.5): no nonnegative
        # allocation exists, whatever order S is given in.
        assert np.linalg.solve(three_link.A, three_link.b) == pytest.approx([-1.0, -1.0, -1.5])
        for S in ([0, 1, 2], [2, 0, 1]):
            assert admissible(three_link, S) is None


class TestFoschiniMiljanic:
    def test_orthogonal_one_step(self):
        prob = diag_problem(K=3, b=0.4)
        assert foschini_miljanic(prob, [0, 1, 2]) == pytest.approx([0.4, 0.4, 0.4])

    def test_three_link_pair_one_step(self, three_link):
        assert foschini_miljanic(three_link, [0, 1]) == pytest.approx([0.5, 0.5])

    def test_matches_direct_solve_random(self):
        hits = 0
        for seed in range(40):
            prob = random_problem(8, seed)
            for S in ([0, 1], [0, 3, 5], [2, 4, 6, 7]):
                direct = admissible(prob, S)
                if direct is None:
                    continue
                hits += 1
                fm = foschini_miljanic(prob, S)
                assert np.max(np.abs(fm - direct)) <= 1e-8
        assert hits >= 20


class TestNecessaryCondition:
    def test_three_link_false(self, three_link):
        # mu = (0, 0, -1); value 0 - (1,1,2).(0.5,0.5,0.5) = -2.
        assert necessary_condition(three_link) is False

    def test_orthogonal_true(self):
        assert necessary_condition(diag_problem(K=2, b=0.5)) is True

    def test_single_link_threshold(self):
        assert necessary_condition(NormalizedProblem(A=[[1.0]], b=[1.0], budgets=[1.0])) is True
        assert necessary_condition(NormalizedProblem(A=[[1.0]], b=[1.1], budgets=[1.0])) is False


class TestPreprocess:
    def test_three_link_removes_strongest_interferer(self, three_link):
        # Scores (2.5, 2.5, 4.5): the mutual interferer goes first, after
        # which the remaining pair satisfies the necessary condition.
        keep, removed = preprocess(three_link)
        assert removed == [2]
        assert keep == [0, 1]
        assert necessary_condition(restrict(three_link, keep))

    def test_no_removals_when_condition_holds(self):
        prob = diag_problem(K=3, b=0.5)
        keep, removed = preprocess(prob)
        assert removed == []
        assert keep == [0, 1, 2]

    def test_never_removes_last_link(self):
        prob = NormalizedProblem(A=[[1.0]], b=[2.0], budgets=[1.0])
        keep, removed = preprocess(prob)
        assert keep == [0] and removed == []


class TestRemovalCandidate:
    def test_zero_residual_tie_break(self):
        prob = diag_problem(K=3, b=0.5)
        assert removal_candidate(prob, [0.5, 0.5, 0.5]) == 0

    def test_three_link_at_optimum(self, three_link):
        # Residuals (0, 0, 1.5): scores (1.5, 1.5, 3.0).
        assert removal_candidate(three_link, [0.5, 0.5, 0.0]) == 2

    def test_diagonal_scores_zero(self):
        assert removal_candidate(diag_problem(K=2, b=0.3), [0.0, 0.0]) == 0


class TestPostprocess:
    def test_empty_removed(self, three_link):
        assert postprocess(three_link, [0, 1], []) == ([0, 1], None)

    def test_orthogonal_readmits(self):
        prob = diag_problem(K=2, b=0.5)
        admitted, x = postprocess(prob, [0], [1])
        assert admitted == [0, 1]
        assert x == pytest.approx([0.5, 0.5])

    def test_three_link_never_readmits_blocker(self, three_link):
        assert postprocess(three_link, [0, 1], [2]) == ([0, 1], None)

    def test_multi_pass_reaches_fixpoint(self):
        # Re-admitting one link can unlock another on orthogonal problems.
        prob = diag_problem(K=3, b=0.5)
        admitted, x = postprocess(prob, [0], [2, 1])
        assert admitted == [0, 1, 2]
        assert x == pytest.approx([0.5, 0.5, 0.5])


class TestRunNlpd:
    def test_three_link_end_to_end(self, three_link):
        result = run_nlpd(three_link)
        assert result.admitted == [0, 1]
        assert result.powers_w == pytest.approx([0.5, 0.5])
        assert result.removal_trace == [{"link": 2, "stage": "preprocess"}]
        assert result.readmitted == []

    def test_orthogonal_admits_all(self):
        result = run_nlpd(diag_problem(K=4, b=0.5, alpha=0.05))
        assert result.admitted == [0, 1, 2, 3]
        assert result.removal_trace == []
        assert result.powers_w == pytest.approx(np.full(4, 0.5))

    def test_no_admissible_link(self):
        # A single link whose target needs more than its budget (b > 1).
        result = run_nlpd(NormalizedProblem(A=[[1.0]], b=[2.0], budgets=[1.0], alpha=0.1))
        assert result.admitted == [] and result.readmitted == []
        assert result.powers_w.shape == (0,)
        assert result.removal_trace == [{"link": 0, "stage": "deflate", "round": 0}]

    def test_alpha_fixed_on_every_round(self, monkeypatch):
        # normalize sets the select_alpha rule's value, and NLPD solves every
        # round's sub-problem with that full-problem alpha.
        subs = []

        def recording(problem, S):
            subs.append(restrict(problem, S))
            return subs[-1]

        monkeypatch.setattr(admission, "restrict", recording)
        for seed in range(3):
            prob = _dense_problem(24, seed)
            assert prob.alpha == select_alpha(prob)
            subs.clear()
            run_nlpd(prob)
            assert subs and all(sub.alpha == prob.alpha for sub in subs)

    def test_deflation_round_stays_on_constraints(self):
        # deflate-sparse benchmark pool (seed 1) instance 3: stopping each
        # start at its first certified eps-KKT point keeps the iterate on
        # A~ w = b~ (max|A~ w - b~| read 10.1 under the ||g|| <= 1 stop).
        scen_seed = int(np.random.SeedSequence(1).spawn(31)[3].generate_state(2)[0])
        prob = normalize(generate(ScenarioConfig(K=64, square_side=2000.0 * (64 / 20) ** 0.5,
                                                 seed=scen_seed)))
        res = run_nlpd(prob, kernel.SolverConfig(epsilon=1e-6))
        assert res.stats["max_primal_residual"] <= 1e-6


class TestRunLqmd:
    def test_three_link_end_to_end(self, three_link):
        result = run_lqmd(three_link, q=0.5, n_starts=20)
        assert result.admitted == [0, 1]
        assert result.powers_w == pytest.approx([0.5, 0.5])

    def test_no_admissible_link(self):
        result = run_lqmd(NormalizedProblem(A=[[1.0]], b=[2.0], budgets=[1.0]), q=0.5, n_starts=3)
        assert result.admitted == [] and result.readmitted == []
        assert result.powers_w.shape == (0,)
        assert result.removal_trace == [{"link": 0, "stage": "deflate", "round": 0}]

    def test_stats_count_retries_and_terminations(self, monkeypatch):
        # Fail the first Schur solve of the run: each start of that first
        # lockstep batch is charged one ridge retry.
        prob = random_problem(16, 2)   # two deflation rounds
        config = kernel.SolverConfig(epsilon=1e-6)
        clean = run_lqmd(prob, q=0.5, n_starts=3, config=config)
        assert clean.stats["solver_calls"] == 6 and clean.stats["ridge_retries"] == 0
        assert clean.stats["terminations"] == {kernel.EPS_KKT: 6}
        fail_first_schur_solve(monkeypatch)
        res = run_lqmd(prob, q=0.5, n_starts=3, config=config)
        assert res.stats["ridge_retries"] == 3
        assert sum(res.stats["terminations"].values()) == res.stats["solver_calls"]
        assert json.loads(res.to_json())["stats"] == res.stats

    def test_stats_max_primal_residual(self, monkeypatch):
        solve = kernel.multistart_solve
        certs = []

        def recording(*args, **kwargs):
            res = solve(*args, **kwargs)
            certs.extend(res.certificates)
            return res

        monkeypatch.setattr(kernel, "multistart_solve", recording)
        res = run_lqmd(random_problem(16, 2), q=0.5, n_starts=3)
        assert len(certs) == res.stats["solver_calls"] == 6
        assert res.stats["max_primal_residual"] == max(c.primal_residual for c in certs)
        assert json.loads(res.to_json())["stats"]["max_primal_residual"] == res.stats["max_primal_residual"]

    def test_given_alpha_unread(self):
        # Every round reselects alpha on its own sub-problem, and nothing
        # before the first round reads alpha.
        for seed in range(3):
            prob = _dense_problem(24, seed)
            result = run_lqmd(prob, q=0.5, n_starts=2, seed=seed)
            assert any(rec["stage"] == "deflate" for rec in result.removal_trace)
            halved = run_lqmd(prob.with_alpha(0.5 * prob.alpha), q=0.5, n_starts=2, seed=seed)
            assert halved.to_json() == result.to_json()

    def test_invalid_parameters(self, three_link):
        with pytest.raises(ValueError):
            run_lqmd(three_link, q=1.0, n_starts=5)
        for n_starts in (0, 2.5, True):
            with pytest.raises(ValueError, match="n_starts"):
                run_lqmd(three_link, q=0.5, n_starts=n_starts)
        # Checked up front: a run that needs no deflation round never seeds a start.
        for seed in (-1, 1.5):
            with pytest.raises(ValueError, match="seed"):
                run_lqmd(three_link, q=0.5, n_starts=5, seed=seed)

    @pytest.mark.parametrize("q", [True, "0.5", None], ids=["bool", "str", "none"])
    def test_q_must_be_a_number(self, three_link, q):
        # Unchecked, "0.5" and None fail the range test with a TypeError.
        with pytest.raises(ValueError, match="q must be a number"):
            run_lqmd(three_link, q=q, n_starts=2)


@pytest.fixture(scope="module")
def results():
    out = []
    config = kernel.SolverConfig(epsilon=1e-6)
    for seed in range(15):
        prob = random_problem(8, seed)
        nlpd = run_nlpd(prob, config)
        lqmd = run_lqmd(prob, q=0.5, n_starts=5, config=config, seed=seed)
        out.append((prob, nlpd))
        out.append((prob, lqmd))
    return out


class TestDeflationInvariants:
    def test_admitted_sets_exactly_admissible(self, results):
        for prob, res in results:
            assert res.admitted
            x = admissible(prob, res.admitted)
            assert x is not None
            assert x * prob.budgets[res.admitted] == pytest.approx(res.powers_w, abs=1e-12)

    def test_powers_meet_targets_with_equality(self, results):
        for prob, res in results:
            S = res.admitted
            x = res.powers_w / prob.budgets[S]
            resid = prob.b[S] - prob.A[np.ix_(S, S)] @ x
            assert np.max(np.abs(resid)) <= 1e-8

    def test_admitted_within_enumeration_bound(self, results):
        for prob, res in results:
            best = enumerate_l0(prob)
            assert len(res.admitted) <= len(best.best_support)

    def test_no_over_removal_of_singletons(self, results):
        for prob, res in results:
            if np.any(prob.b <= 1.0):
                assert len(res.admitted) >= 1

    def test_admitted_disjoint_from_final_removals(self, results):
        for prob, res in results:
            links = [rec["link"] for rec in res.removal_trace]
            assert len(links) == len(set(links))
            removed = set(links) - set(res.readmitted)
            assert removed.isdisjoint(res.admitted)
            assert set(res.readmitted) <= set(res.admitted)
            assert sorted(removed | set(res.admitted)) == list(range(prob.K))

    def test_restricted_problem_reports_its_own_positions(self):
        # Deflating restrict(problem, S) names links by their rows in that
        # sub-problem, 0 .. len(S) - 1, not by their rows in problem.
        S = list(range(1, 24, 2))
        for seed in range(3):
            sub = restrict(_dense_problem(24, seed), S)
            for res in (run_nlpd(sub), run_lqmd(sub, q=0.5, n_starts=3, seed=seed)):
                assert any(rec["stage"] == "deflate" for rec in res.removal_trace)
                links = res.admitted + res.readmitted + [rec["link"] for rec in res.removal_trace]
                assert set(links) <= set(range(len(S)))
                x = admissible(sub, res.admitted)
                assert x is not None
                assert x * sub.budgets[res.admitted] == pytest.approx(res.powers_w, abs=1e-12)

    def test_stats_recorded(self, results):
        assert any(res.stats["solver_calls"] > 0 for _, res in results)
        for _, res in results:
            assert res.stats["total_iterations"] >= 0

    def test_serialization(self, results):
        import json

        _, res = results[0]
        doc = json.loads(res.to_json())
        assert doc["admitted"] == res.admitted
        assert doc["powers_mw"] == pytest.approx((res.powers_w * 1e3).tolist())


class TestDeflationProperties:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(3, 12))
    def test_admitted_sets_admissible_and_meet_sinr_targets(self, seed, K):
        instance = generate(ScenarioConfig(K=K, seed=seed))
        prob = normalize(instance)
        config = kernel.SolverConfig(epsilon=1e-6)
        for res in (run_nlpd(prob, config),
                    run_lqmd(prob, q=0.5, n_starts=3, config=config, seed=seed)):
            S = res.admitted
            assert admissible(prob, S) is not None
            p = np.zeros(K)
            p[S] = res.powers_w
            assert np.all(sinr(instance, p)[S] >= instance.sinr_targets[S] * (1.0 - 1e-9))
