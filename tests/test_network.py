"""Channel model, normalization, alpha selection, and subset restriction."""

import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jpac.network import (
    NetworkInstance,
    NormalizedProblem,
    m_matrix_solve,
    normalize,
    restrict,
    select_alpha,
    sinr,
)

from conftest import A3, B3, random_problem


def _single_link(g=1.0, gamma=1.0, eta=1.0, pbar=1.0):
    return NetworkInstance(gains=[[g]], noise=[eta], sinr_targets=[gamma], budgets=[pbar])


class TestSinr:
    def test_single_link_no_interference(self):
        inst = _single_link()
        assert sinr(inst, [2.0]) == pytest.approx([2.0])

    def test_zero_power(self, three_link_instance):
        assert np.all(sinr(three_link_instance, np.zeros(3)) == 0.0)

    def test_three_link_optimum_meets_targets(self, three_link_instance):
        # p = (0.5 pbar1, 0.5 pbar2, 0): the two supported links sit exactly
        # at their targets.
        s = sinr(three_link_instance, [0.5, 0.5, 0.0])
        assert s[0] == pytest.approx(1.0)
        assert s[1] == pytest.approx(1.0)
        assert s[2] == 0.0

    def test_dimension_mismatch(self, three_link_instance):
        with pytest.raises(ValueError):
            sinr(three_link_instance, [1.0, 2.0])


class TestNormalize:
    def test_single_link(self):
        prob = normalize(_single_link())
        assert prob.A == pytest.approx(np.array([[1.0]]))
        assert prob.b == pytest.approx([1.0])

    def test_three_link_matches_reference(self, three_link_instance):
        prob = normalize(three_link_instance)
        assert prob.A == pytest.approx(A3)
        assert prob.b == pytest.approx(B3)
        assert prob.alpha == select_alpha(prob)

    def test_sign_round_trip_random(self):
        # SINR_k >= gamma_k iff [Ax - b]_k >= 0 with x = p / pbar.
        from jpac.scenario import ScenarioConfig, generate

        inst = generate(ScenarioConfig(K=5, seed=7))
        prob = normalize(inst)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(0.0, 1.0, size=5)
            p = x * inst.budgets
            lhs = sinr(inst, p) - inst.sinr_targets
            rhs = prob.A @ x - prob.b
            scale = np.maximum(np.abs(lhs), 1.0)
            agree = (lhs >= -1e-12 * scale) == (rhs >= -1e-12 * scale)
            assert np.all(agree)

    def test_output_structure(self):
        for seed in range(5):
            prob = random_problem(6, seed)
            assert np.all(np.diag(prob.A) == 1.0)
            off = prob.A - np.diag(np.diag(prob.A))
            assert np.all(off <= 0.0)
            assert np.all(prob.b > 0.0)


class TestSpectralRadius:
    def test_three_link_interference_block(self):
        # rho(I - A3) = sqrt(2) >= 1, and the single M-matrix solve that
        # stands in for the eigensolve reaches the same verdict.
        rho = float(np.max(np.abs(np.linalg.eigvals(np.eye(3) - A3))))
        assert rho == pytest.approx(np.sqrt(2.0))
        assert m_matrix_solve(A3, B3).min() < 0.0


class TestMMatrixSolve:
    def test_singular_stack_member_solved_alone_and_logged(self, caplog):
        # One singular member fails the stacked solve; every member is then
        # solved alone, the singular one comes back as NaN, and the fallback
        # is logged.  A stack that solves as given logs nothing.
        A = np.stack([[[1.0, -1.0], [-1.0, 1.0]], [[1.0, -0.5], [-0.5, 1.0]]])
        b = np.full((2, 2), 0.5)
        with caplog.at_level(logging.DEBUG, logger="jpac.network"):
            m_matrix_solve(A[1:], b[1:])
            assert not caplog.records
            x = m_matrix_solve(A, b)
        assert np.isnan(x[0]).all()
        assert x[1] == pytest.approx(np.linalg.solve(A[1], b[1]), rel=1e-15)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert "stack of 2 2x2 systems" in caplog.text and "1 singular" in caplog.text


class TestSelectAlpha:
    def test_three_link_high_interference_branch(self, three_link):
        # alpha = 0.2 * alpha1 = 0.2 / 3, here with rho(I - A) = sqrt(2) >= 1.
        assert select_alpha(three_link) == pytest.approx(1.0 / 15.0)

    def test_single_link_fallback_branch(self):
        prob = NormalizedProblem(A=[[1.0]], b=[0.5], budgets=[1.0])
        assert select_alpha(prob) == pytest.approx(0.2)

    def test_output_always_in_bounds(self):
        for seed in range(10):
            prob = random_problem(5, seed)
            a = select_alpha(prob)
            assert 0.0 < a < prob.alpha1


def _assert_same_problem(got, want):
    for name in ("A", "b", "budgets"):
        assert getattr(got, name).dtype == np.float64
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.alpha == want.alpha and isinstance(got.alpha, float)


class TestRestrict:
    def test_full_set_identity(self, three_link):
        sub = restrict(three_link, [0, 1, 2])
        assert sub.A == pytest.approx(three_link.A)
        assert sub.b == pytest.approx(three_link.b)
        assert sub.alpha == three_link.alpha

    def test_three_link_pair(self, three_link):
        sub = restrict(three_link, [0, 1])
        assert sub.A == pytest.approx(np.eye(2))
        assert sub.b == pytest.approx([0.5, 0.5])

    def test_composition(self):
        prob = random_problem(6, 1)
        once = restrict(prob, [0, 2, 3])
        twice = restrict(restrict(prob, [0, 1, 2, 3]), [0, 2, 3])
        assert twice.A == pytest.approx(once.A)

    def test_empty_rejected(self, three_link):
        with pytest.raises(ValueError):
            restrict(three_link, [])

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 20), scale=st.sampled_from([1.0, 0.707]),
           data=st.data())
    def test_derived_problems_equal_validated_ones(self, seed, K, scale, data):
        # restrict and with_alpha skip __post_init__'s checks; what they build
        # must be what a fully validated construction builds.
        prob = random_problem(K, seed, scale)
        S = sorted(data.draw(st.sets(st.integers(0, K - 1), min_size=1)))
        sub = restrict(prob, S)
        want = NormalizedProblem(prob.A[np.ix_(S, S)], prob.b[S], prob.budgets[S], prob.alpha)
        _assert_same_problem(sub, want)
        alpha = data.draw(st.floats(0.01, 0.99)) * sub.alpha1
        _assert_same_problem(sub.with_alpha(alpha), NormalizedProblem(sub.A, sub.b, sub.budgets, alpha))

    def test_bad_index_sets_rejected(self, three_link):
        for S in ([3], [-1], [0, 0], [0.5], [True], []):
            with pytest.raises(ValueError, match="S must"):
                restrict(three_link, S)


class TestValidation:
    def test_nonpositive_diagonal_gain(self):
        with pytest.raises(ValueError):
            NetworkInstance(gains=[[0.0]], noise=[1.0], sinr_targets=[1.0], budgets=[1.0])

    def test_negative_gain(self):
        with pytest.raises(ValueError):
            NetworkInstance(gains=[[1.0, -0.1], [0.0, 1.0]], noise=[1.0, 1.0],
                            sinr_targets=[1.0, 1.0], budgets=[1.0, 1.0])

    def test_positive_offdiagonal_rejected(self):
        with pytest.raises(ValueError):
            NormalizedProblem(A=[[1.0, 0.1], [0.0, 1.0]], b=[0.5, 0.5], budgets=[1.0, 1.0])

    def test_nonunit_diagonal_rejected(self):
        with pytest.raises(ValueError):
            NormalizedProblem(A=[[2.0]], b=[0.5], budgets=[1.0])

    def test_nan_gain_rejected(self):
        with pytest.raises(ValueError):
            NetworkInstance(gains=[[1.0, np.nan], [0.1, 1.0]], noise=[1.0, 1.0],
                            sinr_targets=[1.0, 1.0], budgets=[1.0, 1.0])

    def test_inf_sinr_target_rejected(self):
        with pytest.raises(ValueError):
            NetworkInstance(gains=[[1.0, 0.1], [0.1, 1.0]], noise=[1.0, 1.0],
                            sinr_targets=[1.0, np.inf], budgets=[1.0, 1.0])

    def test_nan_in_A_rejected(self):
        with pytest.raises(ValueError):
            NormalizedProblem(A=[[1.0, np.nan], [0.0, 1.0]], b=[0.5, 0.5], budgets=[1.0, 1.0])

    def test_nan_in_b_rejected(self):
        with pytest.raises(ValueError):
            NormalizedProblem(A=np.eye(2), b=[0.5, np.nan], budgets=[1.0, 1.0])

    def test_geometry_must_be_dict(self):
        with pytest.raises(ValueError, match="geometry"):
            NetworkInstance(gains=[[1.0]], noise=[1.0], sinr_targets=[1.0], budgets=[1.0],
                            geometry=[1, 2])

    def test_alpha_out_of_range(self, three_link):
        for alpha in (1.0, 1.0 / 3.0, 0.0, -0.1, np.nan, np.inf):   # alpha1 = 1/3
            with pytest.raises(ValueError, match="alpha"):
                three_link.with_alpha(alpha)


class TestSerialization:
    def test_instance_round_trip(self, three_link_instance):
        back = NetworkInstance.from_json(three_link_instance.to_json())
        assert back.gains == pytest.approx(three_link_instance.gains)
        assert back.noise == pytest.approx(three_link_instance.noise)
        assert back.geometry is None

    def test_instance_geometry_round_trip(self):
        from jpac.scenario import ScenarioConfig, generate

        inst = generate(ScenarioConfig(K=4, seed=2))
        back = NetworkInstance.from_json(inst.to_json())
        assert back.gains == pytest.approx(inst.gains, rel=1e-15)
        assert back.geometry["tx_m"] == pytest.approx(inst.geometry["tx_m"])

    @pytest.mark.parametrize("geometry,message", [
        ({"tx_m": None}, "shape"),
        ({"tx_m": [[1.0, float("nan")]] * 3}, "finite"),
        ({"tx_m": [[1.0, float("nan")]]}, "shape"),
        ({"rx_m": [1.0, 2.0, 3.0]}, "shape"),
        ({"rx_m": [["a", "b"]] * 3}, "numeric"),
    ], ids=["null", "nan", "short-nan", "flat", "strings"])
    def test_bad_geometry_rejected(self, three_link_instance, geometry, message):
        # Unchecked, to_json would write these back, NaN as non-standard JSON.
        doc = json.loads(three_link_instance.to_json())
        doc["geometry"] = geometry
        with pytest.raises(ValueError, match=message) as err:
            NetworkInstance.from_json(json.dumps(doc))
        assert "geometry" in str(err.value)

    @pytest.mark.parametrize("K", [7, 0, "3"])
    def test_mismatched_K_rejected(self, three_link_instance, K):
        doc = json.loads(three_link_instance.to_json())
        doc["K"] = K
        with pytest.raises(ValueError, match=r"field K is .* but gains is 3 x 3"):
            NetworkInstance.from_json(json.dumps(doc))

    def test_K_may_be_left_out(self, three_link_instance):
        doc = json.loads(three_link_instance.to_json())
        del doc["K"]
        assert NetworkInstance.from_json(json.dumps(doc)).K == 3

    def test_unknown_fields_rejected_by_name(self):
        doc = {"version": 1, "K": 1, "gains": [[1.0]], "noise_w": [1.0],
               "sinr_targets_linear": [1.0], "budgets_w": [1.0], "gian": 3, "budget_w": [2.0]}
        with pytest.raises(ValueError, match=r"unknown instance fields: \['budget_w', 'gian'\]"):
            NetworkInstance.from_json(json.dumps(doc))

    def test_bad_version_rejected(self, three_link_instance):
        doc = json.loads(three_link_instance.to_json())
        doc["version"] = 99
        with pytest.raises(ValueError):
            NetworkInstance.from_json(json.dumps(doc))
