"""Seeded random generation of network instances.

Transmitters are dropped uniformly on a square, each receiver uniformly on
a disc around its transmitter, gains follow an inverse fourth-power path
loss, and every budget is twice the interference-free minimum power.  That
budget rule forces the normalized noise vector to 0.5 * e exactly, which a
few downstream checks rely on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .network import NetworkInstance


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Deployment geometry and radio parameters of the random scenario."""

    K: int
    square_side: float = 2000.0        # meters
    rx_radius: float = 400.0           # meters
    pathloss_exponent: float = 4.0
    sinr_target_db: float = 2.0
    noise_dbm: float = -90.0
    budget_multiplier: float = 2.0
    distance_scale: float = 1.0        # 0.707 for the high-interference variant
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                                      or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        for name in ("square_side", "rx_radius", "pathloss_exponent", "budget_multiplier"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
    radius = config.rx_radius * np.sqrt(rng.uniform(0.0, 1.0, size=k))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=k)
    rx = tx + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)

    dist = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)
    # Coincident points have probability zero; resample the receiver if hit.
    while np.any(dist == 0.0):
        bad = np.unique(np.nonzero(dist == 0.0)[0])
        radius = config.rx_radius * np.sqrt(rng.uniform(0.0, 1.0, size=bad.size))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=bad.size)
        rx[bad] = tx[bad] + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        dist = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)

    gains = 1.0 / (config.distance_scale * dist) ** config.pathloss_exponent
    gamma = np.full(k, db_to_linear(config.sinr_target_db))
    noise = np.full(k, dbm_to_watts(config.noise_dbm))
    p_min = gamma * noise / np.diag(gains)
    budgets = config.budget_multiplier * p_min
    return NetworkInstance(
        gains=gains,
        noise=noise,
        sinr_targets=gamma,
        budgets=budgets,
        geometry={"tx_m": tx, "rx_m": rx},
    )
