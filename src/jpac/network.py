"""Physical interference model, channel normalization, and index-set algebra.

The physical channel is a K-link interference channel (one transmitter /
receiver pair per link).  Feasibility of a power vector is expressed either
in physical units (SINR_k >= gamma_k) or, after normalization, as
[A x - b]_k >= 0 with x_k = p_k / pbar_k.  The normalized matrix A has unit
diagonal and non-positive off-diagonals, which the downstream solvers rely
on.  lu_solve is the one LU solve that every jpac linear system goes through,
for a vector right-hand side (admissible, the kernel's normal solve) or a
matrix one (_bordered_scan), and json_object the one reader of jpac's JSON
input documents.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg   # the LAPACK gesv gufunc behind numpy.linalg.solve

SCHEMA_VERSION = 1
ALPHA_FRACTION = 0.2   # select_alpha returns this share of alpha1 = 1 / sum(pbar)


# The rules for a config number, shared by scenario, kernel and harness: bool
# is an int subclass, and JSON or a caller may pass one by mistake.
def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def json_object(text: str, what: str, required, known) -> dict:
    """The JSON object in text, else ValueError naming each missing field and each unknown one."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [name for name in required if name not in doc]
    if missing:
        raise ValueError(f"{what} is missing fields: {missing}")
    unknown = sorted(set(doc) - set(required) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} fields: {unknown}")
    return doc


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# The error state is applied as a decorator: it is set and restored on each
# call, as a `with` block would, at about half the cost per call.
@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.linalg.solve(a, b), bit for bit, for float64 a of shape (..., m, m) and b of shape (..., m, n).

    A b of shape a.shape[:-1] is a vector, solved by solve1, the gufunc
    numpy.linalg.solve uses for a 1-D b: the one-column LU solve of
    numpy.linalg.solve(a, b[..., None])[..., 0], bit for bit, without the
    reshapes.  admissible and the kernel pass vectors, _bordered_scan a matrix.

    It calls the gufunc that numpy.linalg.solve calls, under the same error
    state, so a singular block raises LinAlgError and no warning.  What it
    skips is the wrapper's conversions and type checks, which cost more than
    LAPACK on the small systems jpac solves.
    """
    if b.shape == a.shape[:-1]:
        return _umath_linalg.solve1(a, b, signature="dd->d")
    return _umath_linalg.solve(a, b, signature="dd->d")


def numeric_array(value, name: str, shape: str) -> np.ndarray:
    """value as a float array whose entries are numbers, else ValueError naming it.

    The entries must have dtype kind i, u or f: a bool or a string is not a
    number, though numpy would cast either to a float.  shape is the shape
    the error message asks for; the caller checks it.
    """
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:   # a ragged nesting
        raise ValueError(f"{name} must be a numeric array: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a numeric array of shape {shape}, got {value!r:.60}")
    return a.astype(float, copy=False)


def _read_array(value, name: str, shape: tuple | None) -> np.ndarray:
    """value as a float array, else ValueError naming the field.

    The checks run in order: the entries must be numbers (numeric_array),
    the shape must be `shape` (None asks for a square matrix), and every
    entry must be finite, as NaN slips through every sign check.
    """
    a = numeric_array(value, name, str(shape or "(K, K)"))
    if shape is None and (a.ndim != 2 or a.shape[0] != a.shape[1]):
        raise ValueError(f"{name} must be a square matrix, got {a.shape}")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _as_geometry(geometry, k: int) -> dict:
    """Each coordinate set as a finite float array of shape (k, 2), keyed as given."""
    if not isinstance(geometry, dict):
        raise ValueError("geometry must be a dict of coordinate arrays")
    return {key: _read_array(coords, f"geometry[{key!r}]", (k, 2)) for key, coords in geometry.items()}


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
        gains = _read_array(self.gains, "gains", None)
        k = gains.shape[0]
        if k == 0:
            raise ValueError("gains must hold at least one link")
        object.__setattr__(self, "gains", gains)
        for name in ("noise", "sinr_targets", "budgets"):
            object.__setattr__(self, name, _read_array(getattr(self, name), name, (k,)))
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
        required = ("version", "gains", "noise_w", "sinr_targets_linear", "budgets_w")
        doc = json_object(text, "instance", required, ("K", "geometry"))
        version = doc["version"]
        if not (is_int(version) and version == SCHEMA_VERSION):
            raise ValueError(f"unsupported schema version {version!r}")
        instance = cls(gains=doc["gains"], noise=doc["noise_w"], sinr_targets=doc["sinr_targets_linear"],
                       budgets=doc["budgets_w"], geometry=doc.get("geometry"))
        if "K" in doc and not (is_int(doc["K"]) and doc["K"] == instance.K):
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
        A = _read_array(self.A, "A", None)
        k = A.shape[0]
        if k == 0:
            raise ValueError("A must hold at least one link")
        object.__setattr__(self, "A", A)
        for name in ("b", "budgets"):
            object.__setattr__(self, name, _read_array(getattr(self, name), name, (k,)))
        if np.any(np.diag(A) != 1.0):
            raise ValueError("A must have exactly unit diagonal")
        off = A - np.diag(np.diag(A))
        if np.any(off > 0):
            raise ValueError("off-diagonals of A must be non-positive")
        if np.any(self.b <= 0):
            raise ValueError("b must be strictly positive")
        if np.any(self.budgets <= 0):
            raise ValueError("budgets must be strictly positive")
        alpha = ALPHA_FRACTION * self.alpha1 if self.alpha is None else self.alpha
        object.__setattr__(self, "alpha", _checked_alpha(alpha, self.alpha1))

    @property
    def K(self) -> int:
        return self.A.shape[0]

    @property
    def alpha1(self) -> float:
        """Upper limit 1 / (e^T pbar) on the power-weight alpha."""
        return 1.0 / float(np.sum(self.budgets))

    def with_alpha(self, alpha: float) -> "NormalizedProblem":
        """This problem with weight alpha; only alpha is checked, as A, b and pbar already were."""
        return _derived(self.A, self.b, self.budgets, _checked_alpha(alpha, self.alpha1))


def _checked_alpha(alpha, alpha1: float) -> float:
    """The one alpha check: alpha as a float if it is a real number in (0, alpha1), else ValueError."""
    if not is_real(alpha):
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    if not (0.0 < alpha < alpha1):
        raise ValueError(f"alpha must lie in (0, {alpha1}), got {alpha}")
    return float(alpha)


def _derived(A: np.ndarray, b: np.ndarray, budgets: np.ndarray, alpha: float) -> NormalizedProblem:
    """A NormalizedProblem built without __post_init__, from parts that already meet its invariants."""
    problem = object.__new__(NormalizedProblem)
    for name, value in (("A", A), ("b", b), ("budgets", budgets), ("alpha", alpha)):
        object.__setattr__(problem, name, value)
    return problem


def sinr(instance: NetworkInstance, p) -> np.ndarray:
    """Per-link SINR g_kk p_k / (eta_k + sum_{j != k} g_kj p_j) at power p (watts)."""
    p = _read_array(p, "p", (instance.K,))
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
    return _derived(normalized.A.take(idx, axis=0).take(idx, axis=1), normalized.b.take(idx),
                    normalized.budgets.take(idx), normalized.alpha)
