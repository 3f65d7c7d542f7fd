"""Channel model, normalization, alpha selection, and subset restriction."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jpac.network import (
    NetworkInstance,
    NormalizedProblem,
    lu_solve,
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


class TestLuSolve:
    """lu_solve calls numpy's private LAPACK gufunc; a numpy upgrade that moves or changes it fails here."""

    def test_bit_identical_to_numpy_solve(self):
        rng = np.random.default_rng(0)
        for shape_a, shape_b in (((5, 5), (5, 1)), ((5, 5), (5, 4)), ((1, 1), (1, 1)),
                                 ((7, 6, 6), (7, 6, 1)), ((7, 6, 6), (7, 6, 3)), ((3, 10, 10), (3, 10, 11)),
                                 ((5, 5), (5,)), ((1, 1), (1,)), ((7, 6, 6), (7, 6))):
            a = rng.standard_normal(shape_a) + 3.0 * np.eye(shape_a[-1])
            b = rng.standard_normal(shape_b)
            got = lu_solve(a, b)
            # A vector b is one column: numpy.linalg.solve reads a 2-D b as a matrix.
            want = np.linalg.solve(a, b[..., None])[..., 0] if b.shape == a.shape[:-1] else np.linalg.solve(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (shape_a, shape_b)

    def test_singular_block_raises_without_warning(self):
        singular = np.array([[1.0, -1.0], [-1.0, 1.0]])
        stack = np.stack([np.eye(2), singular, 2.0 * np.eye(2)])
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                lu_solve(singular, np.ones((2, 1)))
            with pytest.raises(np.linalg.LinAlgError):
                lu_solve(stack, np.ones((3, 2, 1)))
            with pytest.raises(np.linalg.LinAlgError):
                lu_solve(np.zeros((3, 3)), np.ones((3, 2)))
            with pytest.raises(np.linalg.LinAlgError):
                lu_solve(singular, np.ones(2))
            with pytest.raises(np.linalg.LinAlgError):
                lu_solve(stack, np.ones((3, 2)))
        assert np.geterr() == before

    def test_error_state_restored_after_each_call(self):
        # The error state is set for the call only: after a solve and after
        # a LinAlgError, the caller's state and error callback are as before.
        def callback(err, flag):
            pass

        with np.errstate(divide="warn", over="raise", under="ignore", invalid="print", call=callback):
            before = np.geterr(), np.geterrcall()
            lu_solve(np.eye(3) + 0.1, np.ones((3, 1)))
            assert (np.geterr(), np.geterrcall()) == before
            with pytest.raises(np.linalg.LinAlgError):
                lu_solve(np.zeros((2, 2)), np.ones((2, 1)))
            assert (np.geterr(), np.geterrcall()) == before
            lu_solve(np.eye(3) + 0.1, np.ones(3))
            assert (np.geterr(), np.geterrcall()) == before
            with pytest.raises(np.linalg.LinAlgError):
                lu_solve(np.zeros((2, 2)), np.ones(2))
            assert (np.geterr(), np.geterrcall()) == before

    def test_singular_block_raises_inside_a_raising_error_state(self):
        # A caller that raises on every floating-point error still gets the
        # LinAlgError, not a FloatingPointError, and no warning.
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            before = np.geterr(), np.geterrcall()
            with pytest.raises(np.linalg.LinAlgError):
                lu_solve(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones((2, 1)))
            assert (np.geterr(), np.geterrcall()) == before


class TestSelectAlpha:
    def test_three_link_is_fifth_of_alpha1(self, three_link):
        # alpha = 0.2 * alpha1 = 0.2 / 3.
        assert select_alpha(three_link) == pytest.approx(1.0 / 15.0)

    def test_single_link_is_fifth_of_alpha1(self):
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

    @pytest.mark.parametrize("alpha", [True, "0.1"], ids=["bool", "str"])
    def test_alpha_must_be_a_number(self, alpha):
        # alpha1 = 1 / 0.3 > 1: unchecked, True passes the range test and is
        # stored as a bool, and "0.1" fails the comparison with a TypeError.
        # None is not here: it stands for the select_alpha value.
        with pytest.raises(ValueError, match="alpha must be a number"):
            NormalizedProblem(A=np.eye(3), b=np.full(3, 0.5), budgets=np.full(3, 0.1), alpha=alpha)

    @pytest.mark.parametrize("alpha", [1, np.float32(0.5)], ids=["int", "float32"])
    def test_alpha_stored_as_float(self, alpha):
        # Both paths store the weight through one check, as a float.
        prob = NormalizedProblem(A=np.eye(3), b=np.full(3, 0.5), budgets=np.full(3, 0.1), alpha=alpha)
        assert type(prob.alpha) is float and prob.alpha == float(alpha)
        assert type(prob.with_alpha(alpha).alpha) is float

    @pytest.mark.parametrize("alpha", [True, "0.1", None], ids=["bool", "str", "none"])
    def test_with_alpha_takes_a_number(self, alpha):
        # Unchecked, float() makes True and "0.1" weights in range, and None a TypeError.
        prob = NormalizedProblem(A=np.eye(3), b=np.full(3, 0.5), budgets=np.full(3, 0.1))
        with pytest.raises(ValueError, match="alpha must be a number"):
            prob.with_alpha(alpha)

    def test_empty_network_rejected(self):
        # Unchecked, an empty network fails later in alpha1 with a ZeroDivisionError.
        with pytest.raises(ValueError, match="gains must hold at least one link"):
            NetworkInstance(gains=np.zeros((0, 0)), noise=[], sinr_targets=[], budgets=[])
        with pytest.raises(ValueError, match="A must hold at least one link"):
            NormalizedProblem(A=np.zeros((0, 0)), b=[], budgets=[])


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

    @pytest.mark.parametrize("field,value,name", [
        ("noise_w", ["0.5", "0.5"], "noise"),
        ("budgets_w", [True, True], "budgets"),
        ("gains", [[True, False], [False, True]], "gains"),
        ("geometry", {"tx_m": [["1", "2"], ["3", "4"]]}, "geometry"),
        ("gains", {"a": 1}, "gains"),
        ("gains", "abc", "gains"),
    ], ids=["str-noise", "bool-budgets", "bool-gains", "str-geometry", "dict-gains", "str-gains"])
    def test_non_numeric_array_rejected(self, field, value, name):
        # Unchecked, numpy cast the strings and bools to floats, a dict failed
        # with a bare TypeError and a string with a message naming no field.
        doc = {"version": 1, "K": 2, "gains": [[1.0, 0.1], [0.1, 1.0]], "noise_w": [0.5, 0.5],
               "sinr_targets_linear": [1.0, 1.0], "budgets_w": [1.0, 1.0], field: value}
        with pytest.raises(ValueError, match=f"^{name}.* must be a numeric array"):
            NetworkInstance.from_json(json.dumps(doc))

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

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="instance must be a JSON object"):
            NetworkInstance.from_json("[]")

    def test_bad_version_rejected(self, three_link_instance):
        doc = json.loads(three_link_instance.to_json())
        doc["version"] = 99
        with pytest.raises(ValueError):
            NetworkInstance.from_json(json.dumps(doc))

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_version_rejected(self, three_link_instance, version):
        # True == 1 and 1.0 == 1, so an equality test alone accepted both.
        doc = json.loads(three_link_instance.to_json())
        doc["version"] = version
        with pytest.raises(ValueError, match=f"unsupported schema version {version!r}"):
            NetworkInstance.from_json(json.dumps(doc))

    def test_missing_version_named(self, three_link_instance):
        # json_object names every missing field, version among them.
        doc = json.loads(three_link_instance.to_json())
        del doc["version"]
        with pytest.raises(ValueError, match=r"instance is missing fields: \['version'\]"):
            NetworkInstance.from_json(json.dumps(doc))

    @pytest.mark.parametrize("K,links", [(True, 1), (3.0, 3)], ids=["bool", "float"])
    def test_non_integer_K_rejected(self, K, links):
        # True == 1 and 3.0 == 3, so an equality test alone accepted both.
        doc = json.loads(NetworkInstance(gains=np.eye(links), noise=np.ones(links), sinr_targets=np.ones(links),
                                         budgets=np.ones(links)).to_json())
        doc["K"] = K
        with pytest.raises(ValueError, match=f"field K is {K!r} but gains is {links} x {links}"):
            NetworkInstance.from_json(json.dumps(doc))
