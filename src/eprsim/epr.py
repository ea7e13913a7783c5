"""Closed-form two-particle measurement analysis.

For a pair prepared with coefficients ``C`` over the reference product
basis and measured in bases ``A`` (first particle) and ``B`` (second),
the amplitude for the record pair (i, j') is

    K[i, j'] = sum_jj' conj(A[j, i]) C[j, j'] conj(B[j', i'])
             = (A^dagger C conj(B))[i, j']

and the joint record probability is |K|^2. The branching simulation in
``branching`` produces the same amplitudes branch by branch; that
equivalence is pinned in the tests rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .branching import BranchedState, ObservableBasis, from_coefficients, identity_basis, measure
from .errors import DimensionError

NO_SIGNALING_TOL = 1e-10


@dataclass(frozen=True)
class CoefficientMatrix:
    """Preparation coefficients ``C[i, j]`` of a two-particle state."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.as_matrix(self.matrix)
        linalg.require_unit_total(np.abs(m) ** 2, "coefficient magnitudes")
        object.__setattr__(self, "matrix", linalg.frozen_copy(m))

    @property
    def d1(self) -> int:
        return self.matrix.shape[0]

    @property
    def d2(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class KMatrix:
    """Record-pair amplitudes for one choice of measurement bases."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.as_matrix(self.matrix)
        linalg.require_unit_total(np.abs(m) ** 2, "record amplitude weights")
        object.__setattr__(self, "matrix", linalg.frozen_copy(m))


@dataclass(frozen=True)
class JointDistribution:
    """Joint record probabilities ``P[i, j']``; nonnegative, sums to 1."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.as_probability_table(self.matrix)
        object.__setattr__(self, "matrix", linalg.frozen_copy(m))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def k_matrix(
    coeffs: CoefficientMatrix, basis_a: ObservableBasis, basis_b: ObservableBasis
) -> KMatrix:
    """Record-pair amplitudes ``A^dagger C conj(B)`` for the given bases."""
    c = coeffs.matrix
    if basis_a.dim != c.shape[0]:
        raise DimensionError(
            f"first basis has dim {basis_a.dim}, coefficients need {c.shape[0]}"
        )
    if basis_b.dim != c.shape[1]:
        raise DimensionError(
            f"second basis has dim {basis_b.dim}, coefficients need {c.shape[1]}"
        )
    return KMatrix(basis_a.matrix.conj().T @ c @ basis_b.matrix.conj())


def joint_probability(k: KMatrix) -> JointDistribution:
    """Squared record amplitudes as a joint probability table."""
    return JointDistribution(np.abs(k.matrix) ** 2)


def marginal(p: JointDistribution, side: int) -> np.ndarray:
    """Marginal record distribution of particle 1 or 2."""
    if side == 1:
        return p.matrix.sum(axis=1)
    if side == 2:
        return p.matrix.sum(axis=0)
    raise ValueError(f"side must be 1 or 2, got {side}")


@dataclass(frozen=True)
class NoSignalingReport:
    """Spread of one side's marginal while the far basis varies."""

    basis_count: int
    tol: float
    max_deviation: float
    marginals: np.ndarray  # one row per basis choice
    passed: bool


def no_signaling_report(
    coeffs: CoefficientMatrix,
    far_bases: Sequence[ObservableBasis],
    tol: float = NO_SIGNALING_TOL,
) -> NoSignalingReport:
    """Check that particle 1's marginal ignores particle 2's basis choice.

    Measures particle 1 in the reference basis against every far basis
    and reports the largest entrywise spread across the marginals.
    """
    if len(far_bases) < 2:
        raise ValueError("need at least two far bases to compare")
    ref = identity_basis(coeffs.d1)
    rows = np.array(
        [
            marginal(joint_probability(k_matrix(coeffs, ref, fb)), 1)
            for fb in far_bases
        ]
    )
    dev = float((rows.max(axis=0) - rows.min(axis=0)).max())
    return NoSignalingReport(
        basis_count=len(far_bases),
        tol=tol,
        max_deviation=dev,
        marginals=rows,
        passed=dev <= tol,
    )


@dataclass(frozen=True)
class NoSignalingSweep:
    """Aggregate no-signaling check over random preparations and bases."""

    trials: int
    dim: int
    tol: float
    max_deviation: float
    passed: bool


def no_signaling_sweep(
    trials: int, dim: int, seed: int, tol: float = NO_SIGNALING_TOL
) -> NoSignalingSweep:
    """Run the marginal-spread check on seeded random C and far bases."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if dim < 2:
        raise DimensionError("particle dimension must be at least 2")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        coeffs = random_coefficients(dim, dim, rng)
        fars = [
            ObservableBasis(tag, linalg.random_unitary(dim, rng))
            for tag in (1, 2)
        ]
        report = no_signaling_report(coeffs, fars, tol=tol)
        worst = max(worst, report.max_deviation)
    return NoSignalingSweep(
        trials=trials, dim=dim, tol=tol, max_deviation=worst, passed=worst <= tol
    )


def run_epr(
    coeffs: CoefficientMatrix,
    basis_b: ObservableBasis,
    basis_a: ObservableBasis | None = None,
) -> BranchedState:
    """Full branching simulation of the two-observer pair experiment.

    Observer 0 measures particle 0 (reference basis unless ``basis_a``
    is given), then observer 1 measures particle 1 in ``basis_b``.
    """
    state = from_coefficients(coeffs)
    a = identity_basis(coeffs.d1) if basis_a is None else basis_a
    state = measure(state, 0, 0, a)
    return measure(state, 1, 1, basis_b)


def amplitude_grid(state: BranchedState, shape: tuple[int, int]) -> np.ndarray:
    """Arrange a two-observer state's amplitudes by (record 0, record 1).

    Each observer must hold exactly one record per branch; unpopulated
    record pairs get amplitude 0.
    """
    grid = np.zeros(shape, dtype=np.complex128)
    for br in state.branches:
        if len(br.registers) != 2 or any(len(r) != 1 for r in br.registers):
            raise ValueError(
                "amplitude grid needs two observers with one record each"
            )
        grid[br.registers[0][0].index, br.registers[1][0].index] = br.amplitude
    return grid


def random_coefficients(d1: int, d2: int, seed) -> CoefficientMatrix:
    """Seeded random preparation: normalized complex Gaussian matrix."""
    if d1 < 1 or d2 < 1:
        raise DimensionError("coefficient matrix dimensions must be positive")
    rng = np.random.default_rng(seed)
    while True:
        g = rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2))
        total = np.linalg.norm(g)
        if total > 1e-8:
            return CoefficientMatrix(g / total)
