"""Random deployment generator: determinism, units, and the scaling variant."""

import numpy as np
import pytest

from jpac import scenario
from jpac.network import normalize
from jpac.scenario import ScenarioConfig, db_to_linear, dbm_to_watts, generate


def test_unit_conversions():
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert db_to_linear(2.0) == pytest.approx(10.0 ** 0.2)
    assert db_to_linear(0.0) == 1.0


def test_same_seed_bit_exact():
    a = generate(ScenarioConfig(K=8, seed=123))
    b = generate(ScenarioConfig(K=8, seed=123))
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.budgets, b.budgets)
    assert np.array_equal(a.geometry["tx_m"], b.geometry["tx_m"])
    assert np.array_equal(a.geometry["rx_m"], b.geometry["rx_m"])


def test_different_seeds_differ():
    a = generate(ScenarioConfig(K=8, seed=1))
    b = generate(ScenarioConfig(K=8, seed=2))
    assert not np.array_equal(a.gains, b.gains)


def test_normalized_noise_is_half():
    # The 2x interference-free-minimum budget rule pins every b_k at 0.5.
    for seed in range(10):
        prob = normalize(generate(ScenarioConfig(K=6, seed=seed)))
        assert prob.b == pytest.approx(np.full(6, 0.5), rel=1e-14)


def test_distance_scale_gain_ratio():
    base = generate(ScenarioConfig(K=6, seed=4, distance_scale=1.0))
    near = generate(ScenarioConfig(K=6, seed=4, distance_scale=0.707))
    ratio = near.gains / base.gains
    assert ratio == pytest.approx(np.full((6, 6), (1.0 / 0.707) ** 4), rel=1e-9)
    # Scaling every gain uniformly leaves the normalized problem unchanged.
    pb, pn = normalize(base), normalize(near)
    assert pn.A == pytest.approx(pb.A, rel=1e-12)
    assert pn.b == pytest.approx(pb.b, rel=1e-12)


def test_geometry_constraints():
    cfg = ScenarioConfig(K=20, seed=11)
    inst = generate(cfg)
    tx, rx = inst.geometry["tx_m"], inst.geometry["rx_m"]
    assert np.all(tx >= 0.0) and np.all(tx <= cfg.square_side)
    own = np.linalg.norm(rx - tx, axis=1)
    assert np.all(own > 0.0)
    assert np.all(own <= scenario.RX_RADIUS_M + 1e-9)
    dist = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)
    assert np.all(dist > 0.0)
    assert np.all(np.isfinite(inst.gains)) and np.all(inst.gains > 0.0)


def test_radio_parameters():
    inst = generate(ScenarioConfig(K=3, seed=0))
    assert inst.sinr_targets == pytest.approx(np.full(3, 10.0 ** 0.2))
    assert inst.noise == pytest.approx(np.full(3, 1e-12))
    gkk = np.diag(inst.gains)
    assert inst.budgets == pytest.approx(2.0 * inst.sinr_targets * inst.noise / gkk)


def test_invalid_config():
    with pytest.raises(ValueError):
        ScenarioConfig(K=0)
    with pytest.raises(ValueError):
        ScenarioConfig(K=3, distance_scale=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(K=3, square_side=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "400"])
def test_rejects_non_finite_or_non_number_field(value):
    with pytest.raises(ValueError, match="square_side"):
        ScenarioConfig(K=4, square_side=value)


@pytest.mark.parametrize("changes,name", [
    ({"K": 2.5}, "K"),
    ({"K": True}, "K"),
    ({"K": "3"}, "K"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
], ids=["K-float", "K-bool", "K-str", "seed-float", "seed--1"])
def test_rejects_non_integer_or_negative_int_field(changes, name):
    # Unchecked, each failed later with a TypeError or with numpy's own message.
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(**{"K": 3, **changes})
