"""Seeded random generation of network instances.

The paper's one deployment: transmitters are dropped uniformly on a square,
each receiver uniformly on a disc of RX_RADIUS_M around its transmitter,
gains follow the path loss d^-PATHLOSS_EXPONENT, every link has the SINR
target SINR_TARGET_DB and the noise NOISE_DBM, and every budget is
BUDGET_MULTIPLIER times the interference-free minimum power.  That budget
rule forces the normalized noise vector to 0.5 * e exactly, which
test_normalized_noise_is_half checks and a few downstream checks rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .network import NetworkInstance, is_int, is_real


RX_RADIUS_M = 400.0
PATHLOSS_EXPONENT = 4.0
SINR_TARGET_DB = 2.0
NOISE_DBM = -90.0
BUDGET_MULTIPLIER = 2.0


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """The deployment's size, distance scaling and seed."""

    K: int
    square_side: float = 2000.0        # meters
    distance_scale: float = 1.0        # 0.707 for the high-interference variant
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not (is_real(value) and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.square_side <= 0:
            raise ValueError("square_side must be positive")
        if not (0.0 < self.distance_scale <= 1.0):
            raise ValueError("distance_scale must lie in (0, 1]")


def generate(config: ScenarioConfig) -> NetworkInstance:
    """Draw one network instance; bit-identical for identical configs.

    The seed feeds a PCG64 generator; the same geometry draws are used for
    every distance_scale, so paired scaled/unscaled instances share their
    layout.  Receivers may fall outside the deployment square (no clipping).
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    k = config.K
    tx = rng.uniform(0.0, config.square_side, size=(k, 2))
    # Receiver uniform on the disc: r = R * sqrt(u) at a uniform angle.
    radius = RX_RADIUS_M * np.sqrt(rng.uniform(0.0, 1.0, size=k))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=k)
    rx = tx + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)

    dist = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)
    # Coincident points have probability zero; resample the receiver if hit.
    while np.any(dist == 0.0):
        bad = np.unique(np.nonzero(dist == 0.0)[0])
        radius = RX_RADIUS_M * np.sqrt(rng.uniform(0.0, 1.0, size=bad.size))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=bad.size)
        rx[bad] = tx[bad] + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        dist = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)

    gains = 1.0 / (config.distance_scale * dist) ** PATHLOSS_EXPONENT
    gamma = np.full(k, db_to_linear(SINR_TARGET_DB))
    noise = np.full(k, dbm_to_watts(NOISE_DBM))
    p_min = gamma * noise / np.diag(gains)
    budgets = BUDGET_MULTIPLIER * p_min
    return NetworkInstance(
        gains=gains,
        noise=noise,
        sinr_targets=gamma,
        budgets=budgets,
        geometry={"tx_m": tx, "rx_m": rx},
    )
