"""Physical interference model, channel normalization, and index-set algebra.

The physical channel is a K-link interference channel (one transmitter /
receiver pair per link).  Feasibility of a power vector is expressed either
in physical units (SINR_k >= gamma_k) or, after normalization, as
[A x - b]_k >= 0 with x_k = p_k / pbar_k.  The normalized matrix A has unit
diagonal and non-positive off-diagonals, which the downstream solvers rely
on.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1
ALPHA_FRACTION = 0.2   # select_alpha returns this share of alpha1 = 1 / sum(pbar)

logger = logging.getLogger(__name__)


def _as_vector(v, k: int, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (k,):
        raise ValueError(f"{name} must have shape ({k},), got {a.shape}")
    return a


def _require_finite(obj, names) -> None:
    # NaN slips through every sign check below, so test finiteness first.
    for name in names:
        if not np.all(np.isfinite(getattr(obj, name))):
            raise ValueError(f"{name} must be finite")


def _as_geometry(geometry, k: int) -> dict:
    """Each coordinate set as a finite float array of shape (k, 2), keyed as given."""
    if not isinstance(geometry, dict):
        raise ValueError("geometry must be a dict of coordinate arrays")
    out = {}
    for key, coords in geometry.items():
        name = f"geometry[{key!r}]"
        try:
            a = np.asarray(coords, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} must be a numeric array: {exc}") from None
        if a.shape != (k, 2):
            raise ValueError(f"{name} must have shape ({k}, 2), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")
        out[key] = a
    return out


@dataclass(frozen=True)
class NetworkInstance:
    """Physical channel: gains, noises, SINR targets, and power budgets.

    gains[k, j] is the linear gain from transmitter j to receiver k
    (dimensionless); noise is in watts, sinr_targets in linear scale,
    budgets in watts.  geometry, when present, maps names such as "tx_m"
    and "rx_m" to finite (K, 2) arrays of coordinates in meters.
    """

    gains: np.ndarray
    noise: np.ndarray
    sinr_targets: np.ndarray
    budgets: np.ndarray
    geometry: dict | None = None

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise ValueError(f"gains must be a square matrix, got {gains.shape}")
        k = gains.shape[0]
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "noise", _as_vector(self.noise, k, "noise"))
        object.__setattr__(self, "sinr_targets", _as_vector(self.sinr_targets, k, "sinr_targets"))
        object.__setattr__(self, "budgets", _as_vector(self.budgets, k, "budgets"))
        _require_finite(self, ("gains", "noise", "sinr_targets", "budgets"))
        if np.any(gains < 0):
            raise ValueError("channel gains must be nonnegative")
        if np.any(np.diag(gains) <= 0):
            raise ValueError("diagonal (direct-link) gains must be strictly positive")
        for name in ("noise", "sinr_targets", "budgets"):
            if np.any(getattr(self, name) <= 0):
                raise ValueError(f"{name} must be strictly positive")
        if self.geometry is not None:
            object.__setattr__(self, "geometry", _as_geometry(self.geometry, k))

    @property
    def K(self) -> int:
        return self.gains.shape[0]

    def to_json(self) -> str:
        doc = {
            "version": SCHEMA_VERSION,
            "K": self.K,
            "gains": self.gains.tolist(),
            "noise_w": self.noise.tolist(),
            "sinr_targets_linear": self.sinr_targets.tolist(),
            "budgets_w": self.budgets.tolist(),
        }
        if self.geometry is not None:
            doc["geometry"] = {k: v.tolist() for k, v in self.geometry.items()}
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "NetworkInstance":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("instance must be a JSON object")
        if doc.get("version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {doc.get('version')!r}")
        missing = [name for name in ("gains", "noise_w", "sinr_targets_linear", "budgets_w")
                   if name not in doc]
        if missing:
            raise ValueError(f"instance is missing fields: {missing}")
        unknown = sorted(set(doc) - {"version", "K", "geometry", "gains", "noise_w",
                                     "sinr_targets_linear", "budgets_w"})
        if unknown:
            raise ValueError(f"unknown instance fields: {unknown}")
        instance = cls(
            gains=doc["gains"],
            noise=doc["noise_w"],
            sinr_targets=doc["sinr_targets_linear"],
            budgets=doc["budgets_w"],
            geometry=doc.get("geometry"),
        )
        if "K" in doc and doc["K"] != instance.K:
            raise ValueError(f"field K is {doc['K']!r} but gains is {instance.K} x {instance.K}")
        return instance


@dataclass(frozen=True)
class NormalizedProblem:
    """The (A, b, pbar) triple of the sparse formulation, plus the weight alpha.

    A has exactly unit diagonal and non-positive off-diagonals, b > 0.
    alpha must lie strictly inside (0, 1 / sum(pbar)); left out, it is the
    select_alpha rule's value ALPHA_FRACTION * alpha1.
    """

    A: np.ndarray
    b: np.ndarray
    budgets: np.ndarray
    alpha: float | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        k = A.shape[0]
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", _as_vector(self.b, k, "b"))
        object.__setattr__(self, "budgets", _as_vector(self.budgets, k, "budgets"))
        _require_finite(self, ("A", "b", "budgets"))
        if np.any(np.diag(A) != 1.0):
            raise ValueError("A must have exactly unit diagonal")
        off = A - np.diag(np.diag(A))
        if np.any(off > 0):
            raise ValueError("off-diagonals of A must be non-positive")
        if np.any(self.b <= 0):
            raise ValueError("b must be strictly positive")
        if np.any(self.budgets <= 0):
            raise ValueError("budgets must be strictly positive")
        alpha1 = self.alpha1
        if self.alpha is None:
            object.__setattr__(self, "alpha", ALPHA_FRACTION * alpha1)
        if not (0.0 < self.alpha < alpha1):
            raise ValueError(f"alpha must lie in (0, {alpha1}), got {self.alpha}")

    @property
    def K(self) -> int:
        return self.A.shape[0]

    @property
    def alpha1(self) -> float:
        """Upper limit 1 / (e^T pbar) on the power-weight alpha."""
        return 1.0 / float(np.sum(self.budgets))

    def with_alpha(self, alpha: float) -> "NormalizedProblem":
        """This problem with weight alpha, which must lie in (0, alpha1).

        Only alpha is checked: A, b and pbar are this problem's own arrays,
        already validated when it was built.
        """
        alpha = float(alpha)
        alpha1 = self.alpha1
        if not (0.0 < alpha < alpha1):
            raise ValueError(f"alpha must lie in (0, {alpha1}), got {alpha}")
        return _derived(self.A, self.b, self.budgets, alpha)


def _derived(A: np.ndarray, b: np.ndarray, budgets: np.ndarray, alpha: float) -> NormalizedProblem:
    """A NormalizedProblem built without __post_init__, from parts that already meet its invariants."""
    problem = object.__new__(NormalizedProblem)
    for name, value in (("A", A), ("b", b), ("budgets", budgets), ("alpha", alpha)):
        object.__setattr__(problem, name, value)
    return problem


def sinr(instance: NetworkInstance, p) -> np.ndarray:
    """Per-link SINR g_kk p_k / (eta_k + sum_{j != k} g_kj p_j) at power p (watts)."""
    p = _as_vector(p, instance.K, "p")
    interference = instance.gains @ p - np.diag(instance.gains) * p
    return np.diag(instance.gains) * p / (instance.noise + interference)


def normalize(instance: NetworkInstance) -> NormalizedProblem:
    """Map the physical channel to the normalized (A, b, pbar) form.

    a_kk = 1, a_kj = -gamma_k g_kj pbar_j / (g_kk pbar_k) for j != k, and
    b_k = gamma_k eta_k / (g_kk pbar_k).  With x = p / pbar, SINR_k >= gamma_k
    iff [A x - b]_k >= 0.  alpha is the select_alpha rule's value.
    """
    g = instance.gains
    gkk = np.diag(g)
    gamma = instance.sinr_targets
    pbar = instance.budgets
    A = -(gamma[:, None] * g * pbar[None, :]) / (gkk * pbar)[:, None]
    np.fill_diagonal(A, 1.0)
    b = gamma * instance.noise / (gkk * pbar)
    return NormalizedProblem(A=A, b=b, budgets=pbar.copy())


def m_matrix_solve(A, b) -> np.ndarray:
    """x = A^{-1} b for one Z-matrix A (m, m) or a stack (n, m, m); NaN where A is singular.

    For a Z-matrix A (off-diagonals <= 0) and b > 0, a solution x >= 0 of
    A x = b exists exactly when A is a nonsingular M-matrix, rho(I - A) < 1:
    x >= 0 with A x > 0 makes A semipositive, and a nonsingular M-matrix has
    A^{-1} = sum_k (I - A)^k >= 0 (Berman & Plemmons, Nonnegative Matrices in
    the Mathematical Sciences, 1994, ch. 6).  So one column settles what
    the entrywise sign of A^{-1} or an eigensolve would.  A singular stack
    member is solved alone (logged at DEBUG) and comes back as NaN, which
    fails every bound test written as `x.min() >= lo`.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if A.ndim == 2:
            return np.full(b.shape, np.nan)
        x = np.stack([m_matrix_solve(a, v) for a, v in zip(A, b)])
        logger.debug("stack of %d %dx%d systems holds a singular matrix; solved each alone, "
                     "%d singular", A.shape[0], A.shape[1], A.shape[2], int(np.isnan(x).any(axis=-1).sum()))
        return x


def select_alpha(normalized: NormalizedProblem) -> float:
    """Power weight alpha = ALPHA_FRACTION * alpha1 = 0.2 / sum(pbar).

    The paper's rule, c1 * alpha1 when rho(I - A) >= 1 and otherwise
    min(c2 * alpha1, c3 * alpha2), reduces to this one product: c1 = c2 =
    0.2, and the alpha2 bound of the LP-deflation work (Liu, Dai & Luo, IEEE
    TSP 61(6), 2013) is not implemented, so both branches give 0.2 * alpha1.
    """
    return ALPHA_FRACTION * normalized.alpha1


def index_set(S, k: int) -> np.ndarray:
    """S as an ascending int array of distinct row positions in range(k), else ValueError."""
    # On a few links, list ends and a set cost less than array comparisons.
    rows = sorted(S)
    if not rows:
        raise ValueError("S must be nonempty")
    idx = np.asarray(rows)
    # The dtype kind rejects floats and bools, which indexing would truncate or cast.
    if idx.dtype.kind not in "iu" or rows[0] < 0 or rows[-1] >= k or len(set(rows)) != len(rows):
        raise ValueError("S must be a set of valid row indices")
    return idx


def restrict(normalized: NormalizedProblem, S) -> NormalizedProblem:
    """Sub-problem (A_SS, b_S, pbar_S) on the row indices S; alpha carries over.

    Only S is checked.  A principal sub-problem of a valid problem is valid:
    A_SS keeps the unit diagonal and the non-positive off-diagonals, b_S and
    pbar_S stay positive and everything stays finite, and alpha < 1 / sum(pbar)
    <= 1 / sum(pbar_S) because pbar > 0.  So the O(K^2) checks of
    NormalizedProblem.__post_init__ are not run again.
    """
    idx = index_set(S, normalized.K)
    return _derived(normalized.A[np.ix_(idx, idx)], normalized.b[idx], normalized.budgets[idx],
                    normalized.alpha)
