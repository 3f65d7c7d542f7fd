"""Single-column M-matrix decisions against the formulations they replaced.

A has unit diagonal and non-positive off-diagonals and b > 0, so one solve
x = A_SS^{-1} b_S with x >= 0 certifies a nonsingular M-matrix.  Each test
here keeps the older, longer formulation, from reference.py, as the reference:

- admissible: the identity-column solve that also checks A_SS^{-1} >= 0;
- the full-set solve that admissible runs on S = all links: the dense
  eigensolve rho(I - A) >= 1 (reference.spectral_radius).  select_alpha no
  longer reads that verdict; the same tests pin that it returns
  0.2 * alpha1 under both verdicts;
- postprocess: the sequential loop, repeated until a pass admits nothing;
- preprocess: the loop that re-slices A after every removal.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jpac import admission
from jpac.admission import admissible, postprocess, preprocess, removal_candidate, run_lqmd
from jpac.network import NormalizedProblem, m_matrix_solve, normalize, restrict, select_alpha
from jpac.scenario import ScenarioConfig, generate

from conftest import random_problem
import reference

DENSITIES = st.sampled_from([1.0, 0.707])


def _high_interference(problem) -> bool:
    """rho(I - A) >= 1, read off the full-set solve: no x >= 0 solves A x = b."""
    return not m_matrix_solve(problem.A, problem.b).min() >= 0.0


def _orthogonal(b) -> NormalizedProblem:
    # Isolated links: link k is admissible against any set iff b_k <= 1.
    b = np.asarray(b, dtype=float)
    return NormalizedProblem(A=np.eye(b.size), b=b, budgets=np.ones(b.size))


class TestAdmissibleEquivalence:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 10), scale=DENSITIES)
    def test_every_subset_matches_identity_columns(self, seed, K, scale):
        prob = random_problem(K, seed, scale)
        for size in range(1, K + 1):
            for S in combinations(range(K), size):
                got, ref = admissible(prob, S), reference.admissible(prob, S)
                assert (got is None) == (ref is None), S
                if ref is not None:
                    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_both_verdicts_occur(self):
        # The sweep above means little unless x > 1 and x < 0 both occur.
        prob = random_problem(10, 1, 0.707)
        subsets = [S for size in range(1, 11) for S in combinations(range(10), size)]
        solves = [np.linalg.solve(prob.A[np.ix_(S, S)], prob.b[list(S)]) for S in subsets]
        assert any(x.min() >= 0.0 and x.max() > 1.0 for x in solves)
        assert any(x.min() < 0.0 for x in solves)
        assert any(admissible(prob, S) is not None for S in subsets if len(S) > 1)

    def test_singular_block_rejected(self):
        # A_SS = [[1, -1], [-1, 1]] is singular: rho(I - A_SS) = 1 exactly.
        prob = NormalizedProblem(A=[[1.0, -1.0], [-1.0, 1.0]], b=[0.5, 0.5], budgets=[1.0, 1.0])
        assert admissible(prob, [0, 1]) is None
        assert reference.admissible(prob, [0, 1]) is None
        assert admissible(prob, [1]) == pytest.approx([0.5])


class TestSelectAlphaEquivalence:
    @pytest.mark.parametrize("K", [5, 10, 20, 40, 64, 100, 150])
    def test_matches_spectral_radius(self, K):
        verdicts = []
        for seed in range(20):
            prob = random_problem(K, seed)
            expected = reference.spectral_radius(np.eye(K) - prob.A) >= 1.0
            assert _high_interference(prob) == expected, seed
            assert select_alpha(prob) == 0.2 * prob.alpha1, seed
            verdicts.append(expected)
        if K == 5:
            assert not all(verdicts)
        if K >= 40:
            assert any(verdicts)

    def test_matches_on_lqmd_round_subproblems(self, monkeypatch):
        seen = []

        def recording(problem):
            seen.append(problem)
            return select_alpha(problem)

        monkeypatch.setattr(admission, "select_alpha", recording)
        for seed in range(4):
            prob = random_problem(24, seed, 0.707)
            recording(prob)   # run_lqmd selects alpha on its rounds' sub-problems only
            run_lqmd(prob, q=0.5, n_starts=2, seed=seed)
        rounds = [p for p in seen if p.K < 24]
        assert len(rounds) >= 8
        verdicts = [reference.spectral_radius(np.eye(p.K) - p.A) >= 1.0 for p in seen]
        assert [_high_interference(p) for p in seen] == verdicts
        assert all(select_alpha(p) == 0.2 * p.alpha1 for p in seen)
        assert any(verdicts) and not all(verdicts)

    def test_near_tied_eigenvalues_k100(self):
        # Close receivers make the two largest eigenvalues of I - A nearly
        # tie; a power iteration returned 49419.8 on this instance.
        prob = random_problem(100, 3)
        M = np.eye(100) - prob.A
        rho = reference.spectral_radius(M)
        # Gelfand's formula: ||M^(2^j)||^(1/2^j) -> rho, by repeated squaring.
        P, log_rho = M, 0.0
        for j in range(30):
            norm = np.linalg.norm(P)
            P = (P / norm) @ (P / norm)
            log_rho += np.log(norm) / 2.0 ** j
        assert rho == pytest.approx(np.exp(log_rho), rel=1e-6)
        assert rho == pytest.approx(27304.9, rel=1e-5)
        assert _high_interference(prob)
        assert select_alpha(prob) == 0.2 * prob.alpha1

    def test_singular_counts_as_high_interference(self):
        prob = NormalizedProblem(A=[[1.0, -1.0], [-1.0, 1.0]], b=[0.5, 0.5], budgets=[1.0, 1.0])
        assert _high_interference(prob)
        assert select_alpha(prob) == 0.2 * prob.alpha1


class TestPostprocessEquivalence:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 16), scale=DENSITIES,
           data=st.data())
    def test_matches_sequential_fixpoint(self, seed, K, scale, data):
        prob = random_problem(K, seed, scale)
        order = data.draw(st.permutations(range(K)))
        n_admitted = data.draw(st.integers(0, K - 1))
        # Deflation hands over an admissible set: shrink the prefix until it is.
        admitted = list(order[:n_admitted])
        while admitted and reference.admissible(prob, admitted) is None:
            admitted.pop()
        removed = [k for k in order if k not in admitted]
        got, x = postprocess(prob, admitted, removed)
        assert got == reference.postprocess(prob, admitted, removed)
        # x belongs to the returned set: the solve of its last admitting scan.
        if x is not None:
            assert x == pytest.approx(admissible(prob, got), rel=1e-12, abs=0.0)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(b=st.lists(st.floats(0.1, 1.5), min_size=2, max_size=9), data=st.data())
    def test_orthogonal_multi_link(self, b, data):
        prob = _orthogonal(b)
        K = prob.K
        order = data.draw(st.permutations(range(K)))
        n_admitted = data.draw(st.integers(0, K - 1))
        admitted = [k for k in order[:n_admitted] if b[k] <= 1.0]
        removed = [k for k in order if k not in admitted]
        got = postprocess(prob, admitted, removed)[0]
        assert got == reference.postprocess(prob, admitted, removed)
        assert got == [k for k in range(K) if b[k] <= 1.0]

    def test_two_interfering_pairs(self):
        # Links 0-1 and 2-3 block each other (each pair's block is singular);
        # the later removal of each pair comes back, the other stays out.
        A = np.eye(4)
        A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = -1.0
        prob = NormalizedProblem(A=A, b=np.full(4, 0.5), budgets=np.ones(4))
        for removed in ([0, 1, 2, 3], [3, 1, 2, 0], [2, 0, 3, 1]):
            got = postprocess(prob, [], removed)[0]
            assert got == reference.postprocess(prob, [], removed)
            assert got == sorted(max(pair, key=removed.index) for pair in ((0, 1), (2, 3)))

    def test_singular_candidate_does_not_raise(self):
        # current + [1] is singular, current + [2] is admissible.
        A = np.eye(3)
        A[0, 1] = A[1, 0] = -1.0
        prob = NormalizedProblem(A=A, b=np.full(3, 0.5), budgets=np.ones(3))
        assert postprocess(prob, [0], [2, 1])[0] == [0, 2]
        assert postprocess(prob, [0], [1, 2])[0] == [0, 2]

    def test_deflation_scale(self):
        # The benchmark's K = 64 densities.  The admitted set is what preprocess
        # keeps less deflation-style removals (removal_candidate at x = 0) until
        # it is admissible: about 15-35 links, with 30-50 candidates pending.
        readmitted = 0
        for side in (1600.0, 3578.0):
            for seed in range(6):
                prob = normalize(generate(ScenarioConfig(K=64, square_side=side, seed=seed)))
                admitted, removed = preprocess(prob)
                while True:
                    removed.append(admitted.pop(removal_candidate(restrict(prob, admitted),
                                                                  np.zeros(len(admitted)))))
                    if reference.admissible(prob, admitted) is not None:
                        break
                assert 10 <= len(admitted) <= 40 and 24 <= len(removed) <= 54
                got, x = postprocess(prob, admitted, removed)
                assert got == reference.postprocess(prob, admitted, removed)
                if got == sorted(admitted):
                    assert x is None
                else:
                    readmitted += 1
                    assert np.array_equal(x, admissible(prob, got))
                    assert x == pytest.approx(reference.admissible(prob, got), rel=1e-12, abs=0.0)
        assert readmitted >= 3


class TestPreprocessEquivalence:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 64), scale=DENSITIES)
    def test_matches_slice_loop(self, seed, K, scale):
        prob = random_problem(K, seed, scale)
        assert preprocess(prob) == reference.preprocess(prob)

    def test_small_and_already_met(self):
        # K = 1 never removes, K = 2 removes at most one link, and a problem
        # that meets the condition as given keeps every link.
        met = NormalizedProblem(A=np.eye(3) - 0.1 * (1 - np.eye(3)), b=np.full(3, 0.2), budgets=np.ones(3))
        assert reference.necessary_condition(met)
        cases = [random_problem(1, seed) for seed in range(3)]
        cases += [random_problem(2, seed, 0.1) for seed in range(20)]
        for prob in cases + [met]:
            assert preprocess(prob) == reference.preprocess(prob)
        assert preprocess(met) == ([0, 1, 2], [])
        assert any(preprocess(prob)[1] for prob in cases)

    def test_dense_instance_removes_many(self):
        # The equivalence needs long removal chains to mean anything.
        prob = random_problem(64, 1, 0.707)
        _, removed = preprocess(prob)
        assert removed == reference.preprocess(prob)[1]
        assert len(removed) >= 32
