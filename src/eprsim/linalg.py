"""Minimal dense complex linear algebra for tiny state vectors.

All state data is dense ``complex128``. Matrices are row-major and the
tensor index convention is ``(i, j) -> i * d2 + j``; every other module
reuses these two conventions.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, DimensionError, NormalizationError, UnitarityError

# Default tolerances: algebraic identities vs accumulated products.
# ALGEBRAIC_TOL is also the state tolerance: unit norms and unit totals of
# states, kets, bases and distributions are checked at it.
ALGEBRAIC_TOL = 1e-12
UNITARY_TOL = 1e-10

# Tensor products refuse to grow beyond this many amplitudes.
DEFAULT_TENSOR_CAP = 2**20


def as_ket(x) -> np.ndarray:
    """Validate and convert ``x`` to a 1-D complex128 amplitude vector."""
    u = np.asarray(x, dtype=np.complex128)
    if u.ndim != 1 or u.size == 0:
        raise DimensionError(f"ket must be a nonempty 1-D vector, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("ket contains non-finite amplitudes")
    return u


def as_matrix(x) -> np.ndarray:
    """Validate and convert ``x`` to a 2-D complex128 matrix."""
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"matrix must be nonempty 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def norm(u) -> float:
    """Euclidean norm of an amplitude vector."""
    return float(np.linalg.norm(as_ket(u)))


def is_normalized(u, tol: float = ALGEBRAIC_TOL) -> bool:
    """True if the squared amplitudes of ``u`` sum to 1 within ``tol``."""
    return abs(float(np.sum(np.abs(as_ket(u)) ** 2)) - 1.0) <= tol


def inner(u, v) -> complex:
    """Inner product ``sum_k conj(u_k) v_k`` (conjugate on the first slot)."""
    u = as_ket(u)
    v = as_ket(v)
    if u.shape != v.shape:
        raise DimensionError(f"inner product needs equal dims, got {u.size} and {v.size}")
    return complex(np.vdot(u, v))


def tensor(u, v, cap: int = DEFAULT_TENSOR_CAP) -> np.ndarray:
    """Tensor product of two kets under the ``(i, j) -> i * d2 + j`` convention."""
    u = as_ket(u)
    v = as_ket(v)
    if u.size * v.size > cap:
        raise CapacityError(
            f"tensor product of dims {u.size} x {v.size} exceeds the cap of {cap} amplitudes"
        )
    return np.kron(u, v)


def basis_ket(dim: int, index: int) -> np.ndarray:
    """Reference-basis ket ``|index>`` in dimension ``dim``."""
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    e = np.zeros(dim, dtype=np.complex128)
    e[index] = 1.0
    return e


def is_unitary(m, tol: float = UNITARY_TOL) -> bool:
    """True iff ``m`` is square and ``m^dagger m`` is the identity within ``tol``.

    Deviation is measured entrywise (max norm), directly comparable to the
    tolerance conventions used elsewhere in the package.
    """
    return _unitarity_deviation(m, "matrix")[1] <= tol


def require_unitary(m, tol: float = UNITARY_TOL, name: str = "matrix") -> np.ndarray:
    """Return ``m`` validated as unitary, else raise UnitarityError."""
    m, dev = _unitarity_deviation(m, name)
    if dev > tol:
        raise UnitarityError(
            f"{name} deviates from unitarity by {dev:.3e} (tolerance {tol})"
        )
    return m


def _unitarity_deviation(m, name: str) -> tuple[np.ndarray, float]:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got {m.shape}")
    return m, float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def require_unit_total(weights, what: str, tol: float = ALGEBRAIC_TOL) -> None:
    """Raise NormalizationError unless ``weights`` sum to 1 within ``tol``.

    ``weights`` is an array of nonnegative weights or their precomputed
    total; ``what`` names them in the message.
    """
    total = float(np.sum(weights))
    if abs(total - 1.0) > tol:
        raise NormalizationError(f"{what} sum to {total!r}, expected 1 within {tol}")


def as_probability_table(x) -> np.ndarray:
    """Validate and convert ``x`` to a 2-D float64 table of probabilities."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise DimensionError(f"probability table must be nonempty 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0.0):
        raise ValueError("probabilities must be finite and nonnegative")
    require_unit_total(m, "probabilities")
    return m


def frozen_copy(a: np.ndarray) -> np.ndarray:
    """Read-only copy of ``a``, for immutable result objects."""
    a = a.copy()
    a.flags.writeable = False
    return a


def random_unitary(dim: int, seed) -> np.ndarray:
    """Seeded Haar-ish random unitary via Gram-Schmidt on a complex Gaussian.

    Deterministic for a fixed integer seed; ``seed`` may also be a
    ``numpy.random.Generator`` to draw from an existing stream.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    while True:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q = _gram_schmidt(g)
        if q is not None:
            return q


def _gram_schmidt(g: np.ndarray) -> np.ndarray | None:
    """Modified Gram-Schmidt over columns; None if numerically degenerate."""
    dim = g.shape[0]
    q = np.array(g, dtype=np.complex128)
    for j in range(dim):
        for i in range(j):
            q[:, j] -= np.vdot(q[:, i], q[:, j]) * q[:, i]
        nj = np.linalg.norm(q[:, j])
        if nj < 1e-8:
            return None
        q[:, j] /= nj
    return q


def random_ket(dim: int, seed) -> np.ndarray:
    """Seeded random normalized ket (complex Gaussian direction)."""
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    while True:
        g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        n = np.linalg.norm(g)
        if n > 1e-8:
            return (g / n).astype(np.complex128)
