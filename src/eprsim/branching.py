"""Measurement as unitary branching over observer memory registers.

A measurement never collapses anything: it splits each branch of the
global state into one sub-branch per outcome, appends the outcome to the
measuring observer's register, and leaves every other particle and every
other register untouched. Branch amplitudes multiply down the tree, so
the amplitude attached to a full record history equals the overlap
product that the closed-form pair analysis computes directly.

States are stored branch-wise. Within a branch the particles are
partitioned into blocks: particles that were prepared jointly share one
joint ket until a measurement factorizes them, after which the measured
particle sits alone in an exact basis column. Relative kets left behind
by a partial measurement are normalized and put in a canonical phase
gauge (largest-modulus entry real positive), with the removed factor
absorbed into the branch amplitude; the physical content is unchanged
and equal branches get equal representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import (
    CapacityError,
    ConsistencyError,
    DimensionError,
    NormalizationError,
    SlotError,
)

DEFAULT_PRUNE_TOL = 1e-14

Register = tuple["OutcomeLabel", ...]
Block = tuple[tuple[int, ...], np.ndarray]


@dataclass(frozen=True)
class OutcomeLabel:
    """One memory record: which observable was measured, which outcome."""

    observable_id: int
    index: int


@dataclass(frozen=True, eq=False)
class ObservableBasis:
    """Measurement basis as a unitary overlap matrix with the reference basis.

    Column ``j`` of ``matrix`` is eigenket ``j`` written in the reference
    basis, i.e. ``matrix[i, j]`` is the overlap of reference ket ``i``
    with basis ket ``j``. Identity is by ``basis_id`` alone: a basis
    rebuilt with the same id is the same observable.

    The matrix must be unitary within ``linalg.ALGEBRAIC_TOL`` (1e-12,
    entrywise on ``m^dagger m - 1``), the tolerance the kets it puts into
    every measured branch are checked at; otherwise UnitarityError.
    """

    basis_id: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.require_unitary(
            self.matrix, tol=linalg.ALGEBRAIC_TOL, name=f"basis {self.basis_id}"
        )
        object.__setattr__(self, "matrix", linalg.frozen_copy(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def ket(self, index: int) -> np.ndarray:
        if not 0 <= index < self.dim:
            raise IndexError(f"outcome index {index} out of range for dim {self.dim}")
        return self.matrix[:, index].copy()

    def __eq__(self, other: object):
        if not isinstance(other, ObservableBasis):
            return NotImplemented
        return self.basis_id == other.basis_id

    def __hash__(self) -> int:
        return hash(self.basis_id)


def identity_basis(dim: int, basis_id: int = 0) -> ObservableBasis:
    """The reference basis itself, by convention observable id 0."""
    return ObservableBasis(basis_id, np.eye(dim, dtype=np.complex128))


@dataclass(frozen=True)
class Branch:
    """One branch: amplitude, particle blocks, one register per observer.

    ``blocks`` partition the particle slots; each entry pairs the slot
    tuple (ascending) with a normalized ket over those slots, indexed
    row-major in slot order.
    """

    amplitude: complex
    blocks: tuple[Block, ...]
    registers: tuple[Register, ...]

    def __post_init__(self) -> None:
        amp = complex(self.amplitude)
        if not np.isfinite([amp.real, amp.imag]).all():
            raise ValueError("branch amplitude must be finite")
        object.__setattr__(self, "amplitude", amp)
        frozen = []
        for slots, ket in self.blocks:
            ket = linalg.as_ket(ket)
            if not linalg.is_normalized(ket):
                raise NormalizationError(
                    f"block {slots} ket has norm {linalg.norm(ket)!r}, expected 1"
                )
            frozen.append((tuple(int(s) for s in slots), linalg.frozen_copy(ket)))
        object.__setattr__(self, "blocks", tuple(frozen))
        object.__setattr__(
            self, "registers", tuple(tuple(r) for r in self.registers)
        )

    @property
    def weight(self) -> float:
        return abs(self.amplitude) ** 2

    def block_containing(self, slot: int) -> tuple[int, int]:
        """Index of the block holding ``slot`` and the slot's axis within it."""
        for bi, (slots, _) in enumerate(self.blocks):
            if slot in slots:
                return bi, slots.index(slot)
        raise SlotError(f"no block contains particle slot {slot}")

    def state_vector(self, dims: Sequence[int]) -> np.ndarray:
        """Full joint ket over all slots, row-major in ascending slot order.

        Raises CapacityError above ``linalg.DEFAULT_TENSOR_CAP`` amplitudes.
        """
        return _joint_ket(self.blocks, dims)


@dataclass(frozen=True)
class BranchedState:
    """The global state: particle dimensions, observers, branches.

    Branch weights must sum to 1 and no two branches may carry the same
    register history; coherent duplicates are merged by the operations
    that can create them.
    """

    dims: tuple[int, ...]
    observer_count: int
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionError(f"particle dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)
        if self.observer_count < 0:
            raise ValueError("observer count must be nonnegative")
        all_slots = set(range(len(dims)))
        seen: set[tuple[Register, ...]] = set()
        for br in self.branches:
            if len(br.registers) != self.observer_count:
                raise ValueError(
                    f"branch has {len(br.registers)} registers, "
                    f"expected {self.observer_count}"
                )
            covered: list[int] = []
            for slots, ket in br.blocks:
                covered.extend(slots)
                want = int(np.prod([dims[s] for s in slots]))
                if ket.size != want:
                    raise DimensionError(
                        f"block {slots} ket has size {ket.size}, expected {want}"
                    )
            if sorted(covered) != sorted(all_slots):
                raise SlotError(
                    f"branch blocks cover slots {sorted(covered)}, "
                    f"expected {sorted(all_slots)}"
                )
            if br.registers in seen:
                raise ValueError(
                    f"duplicate register history {br.registers}; "
                    "coherent duplicates must be merged"
                )
            seen.add(br.registers)
        linalg.require_unit_total(self.total_weight(), "branch weights")

    def total_weight(self) -> float:
        return float(sum(br.weight for br in self.branches))

    def amplitude_table(self) -> dict[tuple[Register, ...], complex]:
        """Map from register history to branch amplitude."""
        return {br.registers: br.amplitude for br in self.branches}


def initial_state(
    particle_kets: Iterable[np.ndarray], observer_count: int
) -> BranchedState:
    """Product state of independent particles with empty observer registers."""
    kets = [linalg.as_ket(k) for k in particle_kets]
    if not kets:
        raise DimensionError("need at least one particle")
    dims = tuple(k.size for k in kets)
    blocks = tuple(((i,), ket) for i, ket in enumerate(kets))
    branch = Branch(1.0 + 0.0j, blocks, ((),) * observer_count)
    return BranchedState(dims, int(observer_count), (branch,))


def from_coefficients(coeffs, observer_count: int = 2) -> BranchedState:
    """Two-particle entangled state from a coefficient matrix.

    ``coeffs[i, j]`` multiplies reference product ket ``|i>|j>``; the
    squared magnitudes must sum to 1. Accepts a raw matrix or any object
    with a ``matrix`` attribute.
    """
    m = linalg.as_matrix(getattr(coeffs, "matrix", coeffs))
    linalg.require_unit_total(np.abs(m) ** 2, "coefficient magnitudes")
    d1, d2 = m.shape
    joint = m.reshape(-1)  # row-major matches the (i, j) -> i*d2 + j layout
    branch = Branch(1.0 + 0.0j, (((0, 1), joint),), ((),) * observer_count)
    return BranchedState((d1, d2), int(observer_count), (branch,))


def measure(
    state: BranchedState,
    particle: int,
    observer: int,
    basis: ObservableBasis,
    prune_tol: float = DEFAULT_PRUNE_TOL,
) -> BranchedState:
    """Measure one particle for one observer; split every branch.

    Each branch yields one sub-branch per outcome whose amplitude is the
    parent amplitude times the component of the branch's ket along the
    outcome ket. The measured slot is left in the exact basis column, the
    outcome is appended to the observer's register, and all other slots
    and registers are carried over unchanged. Sub-branches of modulus
    below ``prune_tol`` are dropped; branches that end up with identical
    registers are merged coherently.
    """
    if not 0 <= particle < len(state.dims):
        raise SlotError(f"particle slot {particle} out of range")
    if not 0 <= observer < state.observer_count:
        raise SlotError(f"observer slot {observer} out of range")
    dim = state.dims[particle]
    if basis.dim != dim:
        raise DimensionError(
            f"basis dimension {basis.dim} does not match particle dimension {dim}"
        )
    mh = basis.matrix.conj().T

    children: list[Branch] = []
    for br in state.branches:
        bi, axis = br.block_containing(particle)
        slots, ket = br.blocks[bi]
        if len(slots) == 1:
            comps = mh @ ket
            for out in range(dim):
                amp = br.amplitude * comps[out]
                if abs(amp) < prune_tol:
                    continue
                blocks = list(br.blocks)
                blocks[bi] = ((particle,), basis.ket(out))
                children.append(
                    Branch(
                        amp,
                        tuple(blocks),
                        _record(br.registers, observer, basis.basis_id, out),
                    )
                )
        else:
            block_dims = [state.dims[s] for s in slots]
            rows = np.moveaxis(ket.reshape(block_dims), axis, 0).reshape(dim, -1)
            rel = mh @ rows  # rel[out] is the unnormalized relative ket
            rest_slots = tuple(s for s in slots if s != particle)
            for out in range(dim):
                rest = rel[out]
                rnorm = float(np.linalg.norm(rest))
                if abs(br.amplitude) * rnorm < prune_tol:
                    continue
                factor = _gauge_factor(rest, rnorm)
                blocks = list(br.blocks)
                blocks[bi] = ((particle,), basis.ket(out))
                blocks.insert(bi + 1, (rest_slots, rest / factor))
                blocks.sort(key=lambda b: b[0][0])
                children.append(
                    Branch(
                        br.amplitude * factor,
                        tuple(blocks),
                        _record(br.registers, observer, basis.basis_id, out),
                    )
                )
    merged = _merge(children, state.dims, prune_tol)
    return BranchedState(state.dims, state.observer_count, merged)


def remeasure_consistency(
    state: BranchedState,
    particle: int,
    observer: int,
    basis: ObservableBasis,
    prune_tol: float = DEFAULT_PRUNE_TOL,
) -> BranchedState:
    """Repeat a measurement and verify the records cannot disagree.

    Requires that ``particle`` already holds a definite value of
    ``basis`` in every branch (it was measured in this basis before).
    After the repeat, the branch count is unchanged, each branch keeps
    its amplitude modulus, and whenever the observer's latest record was
    already for this observable the new record duplicates it exactly.
    Any violation raises ConsistencyError.
    """
    if not 0 <= particle < len(state.dims):
        raise SlotError(f"particle slot {particle} out of range")
    mh = basis.matrix.conj().T
    definite: dict[tuple[Register, ...], int] = {}
    for br in state.branches:
        bi, _ = br.block_containing(particle)
        slots, ket = br.blocks[bi]
        outcome = -1
        if len(slots) == 1:
            comps = np.abs(mh @ ket)
            best = int(np.argmax(comps))
            if comps[best] >= 1.0 - linalg.UNITARY_TOL:
                outcome = best
        if outcome < 0:
            raise ConsistencyError(
                f"particle {particle} has no definite value of basis "
                f"{basis.basis_id} in branch {br.registers}"
            )
        definite[br.registers] = outcome

    result = measure(state, particle, observer, basis, prune_tol=prune_tol)
    if len(result.branches) != len(state.branches):
        raise ConsistencyError(
            f"repeat measurement changed the branch count from "
            f"{len(state.branches)} to {len(result.branches)}"
        )
    parents = state.amplitude_table()
    for br in result.branches:
        reg = br.registers[observer]
        if not reg:
            raise ConsistencyError("repeat measurement recorded nothing")
        parent_regs = list(br.registers)
        parent_regs[observer] = reg[:-1]
        key = tuple(parent_regs)
        if key not in parents:
            raise ConsistencyError(
                f"repeat measurement produced an unexpected history {br.registers}"
            )
        if abs(abs(br.amplitude) - abs(parents[key])) > linalg.ALGEBRAIC_TOL:
            raise ConsistencyError(
                "repeat measurement changed a branch amplitude modulus"
            )
        if reg[-1].index != definite[key]:
            raise ConsistencyError(
                f"repeat measurement recorded outcome {reg[-1].index}, "
                f"expected {definite[key]}"
            )
        prior = reg[:-1]
        if prior and prior[-1].observable_id == basis.basis_id:
            if prior[-1] != reg[-1]:
                raise ConsistencyError(
                    f"observer {observer} recorded {prior[-1]} then {reg[-1]} "
                    "for the same observable"
                )
    return result


def coherent_combine(
    terms: Sequence[tuple[complex, BranchedState]],
    prune_tol: float = DEFAULT_PRUNE_TOL,
) -> BranchedState:
    """Coherent superposition of branched states with given weights.

    Branches with identical register histories are merged by summing
    amplitudes (same kets) or by adding their joint kets over only the
    slots where they differ; CapacityError if that joint ket would exceed
    ``linalg.DEFAULT_TENSOR_CAP`` amplitudes. The weights must leave the
    result normalized.
    """
    if not terms:
        raise ValueError("need at least one term")
    dims = terms[0][1].dims
    observer_count = terms[0][1].observer_count
    children: list[Branch] = []
    for weight, st in terms:
        if st.dims != dims or st.observer_count != observer_count:
            raise DimensionError("all terms must share dims and observer count")
        for br in st.branches:
            children.append(Branch(weight * br.amplitude, br.blocks, br.registers))
    merged = _merge(children, dims, prune_tol)
    return BranchedState(dims, observer_count, merged)


def _record(
    registers: tuple[Register, ...], observer: int, observable_id: int, index: int
) -> tuple[Register, ...]:
    updated = list(registers)
    updated[observer] = updated[observer] + (OutcomeLabel(observable_id, index),)
    return tuple(updated)


def _gauge_factor(vec: np.ndarray, vnorm: float) -> complex:
    # Canonical gauge: divide out the phase of the largest-modulus entry,
    # so the stored relative ket has that entry real positive.
    lead = vec[int(np.argmax(np.abs(vec)))]
    return vnorm * (lead / abs(lead))


def _joint_ket(blocks: Sequence[Block], dims: Sequence[int]) -> np.ndarray:
    """Joint ket of ``blocks`` over the union of their slots, row-major in
    ascending slot order.

    Raises CapacityError above ``linalg.DEFAULT_TENSOR_CAP`` amplitudes,
    before anything is allocated.
    """
    order = [s for slots, _ in blocks for s in slots]
    shape = [dims[s] for s in order]
    size = math.prod(shape)
    if size > linalg.DEFAULT_TENSOR_CAP:
        raise CapacityError(
            f"joint ket over {len(order)} slots has {size} amplitudes, "
            f"above the cap of {linalg.DEFAULT_TENSOR_CAP}"
        )
    vec = np.ones(1, dtype=np.complex128)
    for _, ket in blocks:
        vec = np.multiply.outer(vec, ket)  # np.kron's products, without its overhead
    return np.transpose(vec.reshape(shape), np.argsort(order)).reshape(-1)


def _merge(
    children: list[Branch], dims: tuple[int, ...], prune_tol: float
) -> tuple[Branch, ...]:
    """Merge branches with equal register histories coherently.

    Over the finest partition that every member's blocks refine, only the
    parts where members differ are joined into one block, summed and
    gauged as ``measure`` gauges, so amplitudes stay comparable with the
    unmerged route. With no differing part the amplitudes add.
    """
    groups: dict[tuple[Register, ...], list[Branch]] = {}
    for br in children:
        groups.setdefault(br.registers, []).append(br)
    out: list[Branch] = []
    for registers, group in groups.items():
        if len(group) == 1:
            out.append(group[0])
            continue
        # part[s] labels the part holding slot s by its lowest slot; two
        # slots share a part when any member holds them in one block
        part = list(range(len(dims)))
        for br in group:
            for slots, _ in br.blocks:
                joined = {part[s] for s in slots}
                low = min(joined)
                part = [low if p in joined else p for p in part]
        kets = [
            {p: _joint_ket([b for b in br.blocks if part[b[0][0]] == p], dims) for p in set(part)}
            for br in group
        ]
        differing = {
            p
            for p, ket in kets[0].items()
            if any(
                not np.allclose(k[p], ket, rtol=0.0, atol=linalg.ALGEBRAIC_TOL)
                for k in kets[1:]
            )
        }
        first = group[0]
        if not differing:
            amp = sum(br.amplitude for br in group)
            if abs(amp) >= prune_tol:
                out.append(Branch(amp, first.blocks, registers))
            continue
        combined = sum(
            br.amplitude
            * _joint_ket([b for b in br.blocks if part[b[0][0]] in differing], dims)
            for br in group
        )
        cnorm = float(np.linalg.norm(combined))
        if cnorm < prune_tol:
            continue
        factor = _gauge_factor(combined, cnorm)
        blocks = [b for b in first.blocks if part[b[0][0]] not in differing]
        at = next(i for i, b in enumerate(first.blocks) if part[b[0][0]] in differing)
        union = tuple(s for s in range(len(dims)) if part[s] in differing)
        blocks.insert(at, (union, combined / factor))
        out.append(Branch(factor, tuple(blocks), registers))
    return tuple(out)
