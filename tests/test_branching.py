"""Branching measurement mechanics: splitting, records, locality, merging."""

import math

import numpy as np
import pytest

from eprsim import (
    Branch,
    BranchedState,
    CapacityError,
    ConsistencyError,
    DimensionError,
    NormalizationError,
    ObservableBasis,
    OutcomeLabel,
    SlotError,
    UnitarityError,
    coherent_combine,
    from_coefficients,
    identity_basis,
    initial_state,
    measure,
    random_ket,
    random_unitary,
    remeasure_consistency,
)

RT2 = 1.0 / math.sqrt(2.0)


def plus_ket():
    return np.array([RT2, RT2], dtype=complex)


class TestObservableBasis:
    def test_identity_by_id_not_matrix(self):
        a = ObservableBasis(3, np.eye(2))
        b = ObservableBasis(3, random_unitary(2, 0))
        c = ObservableBasis(4, np.eye(2))
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_non_unitary_rejected(self):
        with pytest.raises(UnitarityError):
            ObservableBasis(0, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_columns_are_kets(self):
        basis = ObservableBasis(1, np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(basis.ket(0), [0.0, 1.0])

    def test_near_unitary_beyond_state_tolerance_rejected(self):
        # deviation 1.0e-11: inside 1e-10, but the measured kets would fail
        # the 1e-12 norm check on every branch
        with pytest.raises(UnitarityError):
            ObservableBasis(1, random_unitary(2, 3) * (1 + 5e-12))

    def test_near_unitary_within_state_tolerance_measures(self):
        basis = ObservableBasis(1, random_unitary(2, 3) * (1 + 5e-14))
        state = measure(initial_state([plus_ket()], 1), 0, 0, basis)
        assert state.total_weight() == pytest.approx(1.0, abs=1e-12)

    def test_matrix_read_only(self):
        basis = identity_basis(2)
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 5.0


class TestInitialState:
    def test_single_particle(self):
        state = initial_state([np.array([1.0, 0.0])], observer_count=1)
        assert len(state.branches) == 1
        assert state.branches[0].amplitude == 1.0 + 0.0j
        assert state.branches[0].registers == ((),)

    def test_superposition_does_not_branch(self):
        state = initial_state([plus_ket()], observer_count=1)
        assert len(state.branches) == 1

    def test_two_particles_two_observers(self):
        state = initial_state(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], observer_count=2
        )
        (branch,) = state.branches
        assert len(branch.blocks) == 2
        assert branch.registers == ((), ())

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            initial_state([np.array([1.0, 1.0])], observer_count=1)


class TestFromCoefficients:
    def test_singlet_joint_ket(self):
        c = np.array([[0.0, RT2], [-RT2, 0.0]])
        state = from_coefficients(c)
        (branch,) = state.branches
        ((slots, ket),) = branch.blocks
        assert slots == (0, 1)
        np.testing.assert_allclose(ket, [0.0, RT2, -RT2, 0.0], atol=1e-15)

    def test_product_coefficients(self):
        state = from_coefficients(np.array([[1.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(
            state.branches[0].blocks[0][1], [1.0, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_diagonal_pair(self):
        state = from_coefficients(np.array([[RT2, 0.0], [0.0, RT2]]))
        np.testing.assert_allclose(
            state.branches[0].blocks[0][1], [RT2, 0.0, 0.0, RT2], atol=1e-15
        )

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            from_coefficients(np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestMeasure:
    def test_eigenstate_single_record(self):
        state = initial_state([np.array([1.0, 0.0])], observer_count=1)
        out = measure(state, 0, 0, identity_basis(2))
        (branch,) = out.branches
        assert branch.amplitude == pytest.approx(1.0)
        assert branch.registers == ((OutcomeLabel(0, 0),),)

    def test_superposition_splits(self):
        state = initial_state([plus_ket()], observer_count=1)
        out = measure(state, 0, 0, identity_basis(2))
        assert len(out.branches) == 2
        amps = [b.amplitude for b in out.branches]
        np.testing.assert_allclose(amps, [RT2, RT2], atol=1e-15)
        records = [b.registers[0] for b in out.branches]
        assert records == [(OutcomeLabel(0, 0),), (OutcomeLabel(0, 1),)]

    def test_ordering_by_parent_then_outcome(self):
        state = initial_state([plus_ket(), plus_ket()], observer_count=1)
        out = measure(state, 0, 0, identity_basis(2))
        out = measure(out, 1, 0, identity_basis(2))
        records = [b.registers[0] for b in out.branches]
        indices = [(r[0].index, r[1].index) for r in records]
        assert indices == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_locality_far_slot_and_register_untouched(self):
        far = random_ket(2, 99)
        state = initial_state([plus_ket(), far], observer_count=2)
        out = measure(state, 0, 0, identity_basis(2))
        for branch in out.branches:
            slots, ket = branch.blocks[1]
            assert slots == (1,)
            np.testing.assert_array_equal(ket, far)
            assert branch.registers[1] == ()

    def test_entangled_pair_factorizes(self):
        state = from_coefficients(np.array([[0.0, RT2], [-RT2, 0.0]]))
        out = measure(state, 0, 0, identity_basis(2))
        assert len(out.branches) == 2
        by_outcome = {b.registers[0][0].index: b for b in out.branches}
        # outcome 0 leaves partner in |1>, amplitude 1/sqrt(2)
        np.testing.assert_allclose(by_outcome[0].blocks[1][1], [0.0, 1.0], atol=1e-15)
        assert by_outcome[0].amplitude == pytest.approx(RT2)
        # outcome 1 leaves partner in |0>; the sign moves into the amplitude
        np.testing.assert_allclose(by_outcome[1].blocks[1][1], [1.0, 0.0], atol=1e-15)
        assert by_outcome[1].amplitude == pytest.approx(-RT2)

    def test_measured_slot_holds_exact_basis_column(self):
        basis = ObservableBasis(5, random_unitary(2, 17))
        state = initial_state([random_ket(2, 4)], observer_count=1)
        out = measure(state, 0, 0, basis)
        for branch in out.branches:
            idx = branch.registers[0][-1].index
            np.testing.assert_array_equal(branch.blocks[0][1], basis.ket(idx))

    def test_exact_zero_components_pruned(self):
        state = initial_state([np.array([1.0, 0.0])], observer_count=1)
        out = measure(state, 0, 0, identity_basis(2))
        assert len(out.branches) == 1

    def test_weight_conserved(self):
        state = from_coefficients(np.array([[0.6, 0.0], [0.0, 0.8j]]))
        out = measure(state, 1, 1, ObservableBasis(2, random_unitary(2, 8)))
        assert out.total_weight() == pytest.approx(1.0, abs=1e-12)

    def test_bad_slots_rejected(self):
        state = initial_state([plus_ket()], observer_count=1)
        with pytest.raises(SlotError):
            measure(state, 1, 0, identity_basis(2))
        with pytest.raises(SlotError):
            measure(state, 0, 1, identity_basis(2))

    def test_dim_mismatch_rejected(self):
        state = initial_state([plus_ket()], observer_count=1)
        with pytest.raises(DimensionError):
            measure(state, 0, 0, identity_basis(3))

    def test_register_append_only(self):
        state = initial_state([plus_ket(), plus_ket()], observer_count=1)
        first = measure(state, 0, 0, identity_basis(2))
        prefixes = {b.registers[0]: b for b in first.branches}
        second = measure(first, 1, 0, ObservableBasis(1, random_unitary(2, 2)))
        for branch in second.branches:
            assert branch.registers[0][:1] in prefixes


class TestRemeasure:
    def test_superposition_duplicate_records(self):
        state = initial_state([plus_ket()], observer_count=1)
        once = measure(state, 0, 0, identity_basis(2))
        twice = remeasure_consistency(once, 0, 0, identity_basis(2))
        assert len(twice.branches) == 2
        for branch in twice.branches:
            records = branch.registers[0]
            assert records[0] == records[1]
            assert abs(branch.amplitude) == pytest.approx(RT2, abs=1e-12)

    def test_eigenstate_duplicate_record(self):
        state = initial_state([np.array([0.0, 1.0])], observer_count=1)
        once = measure(state, 0, 0, identity_basis(2))
        twice = remeasure_consistency(once, 0, 0, identity_basis(2))
        (branch,) = twice.branches
        assert branch.registers[0] == (OutcomeLabel(0, 1), OutcomeLabel(0, 1))

    @pytest.mark.parametrize("seed", range(50))
    def test_branch_count_preserved_random(self, seed):
        rng = np.random.default_rng(seed)
        basis = ObservableBasis(7, random_unitary(2, rng))
        state = initial_state([random_ket(2, rng)], observer_count=1)
        once = measure(state, 0, 0, basis)
        twice = remeasure_consistency(once, 0, 0, basis)
        assert len(twice.branches) == len(once.branches)
        once_moduli = sorted(abs(b.amplitude) for b in once.branches)
        twice_moduli = sorted(abs(b.amplitude) for b in twice.branches)
        np.testing.assert_allclose(once_moduli, twice_moduli, atol=1e-12)

    def test_unmeasured_particle_rejected(self):
        state = initial_state([plus_ket()], observer_count=1)
        with pytest.raises(ConsistencyError):
            remeasure_consistency(state, 0, 0, identity_basis(2))

    def test_wrong_basis_rejected(self):
        state = initial_state([plus_ket()], observer_count=1)
        once = measure(state, 0, 0, identity_basis(2))
        rotated = ObservableBasis(9, random_unitary(2, 123))
        with pytest.raises(ConsistencyError):
            remeasure_consistency(once, 0, 0, rotated)


class TestLinearity:
    @pytest.mark.parametrize("seed", range(30))
    def test_single_particle(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        u = random_ket(dim, rng)
        v = random_ket(dim, rng)
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        w = a * u + b * v
        scale = np.linalg.norm(w)
        a, b, w = a / scale, b / scale, w / scale
        basis = ObservableBasis(1, random_unitary(dim, rng))

        direct = measure(initial_state([w], 1), 0, 0, basis)
        combined = coherent_combine(
            [
                (a, measure(initial_state([u], 1), 0, 0, basis)),
                (b, measure(initial_state([v], 1), 0, 0, basis)),
            ]
        )
        _assert_same_amplitudes(direct, combined)

    @pytest.mark.parametrize("seed", range(10))
    def test_entangled_pair(self, seed):
        rng = np.random.default_rng([7, seed])
        u = random_ket(4, rng)
        v = random_ket(4, rng)
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        w = a * u + b * v
        scale = np.linalg.norm(w)
        a, b, w = a / scale, b / scale, w / scale
        basis = ObservableBasis(1, random_unitary(2, rng))

        direct = measure(from_coefficients(w.reshape(2, 2)), 0, 0, basis)
        combined = coherent_combine(
            [
                (a, measure(from_coefficients(u.reshape(2, 2)), 0, 0, basis)),
                (b, measure(from_coefficients(v.reshape(2, 2)), 0, 0, basis)),
            ]
        )
        _assert_same_amplitudes(direct, combined)


class TestCoherentCombine:
    def test_same_blocks_sum_amplitudes(self):
        state = measure(
            initial_state([plus_ket()], 1), 0, 0, identity_basis(2)
        )
        doubled = coherent_combine([(0.5, state), (0.5, state)])
        np.testing.assert_allclose(
            sorted(abs(b.amplitude) for b in doubled.branches),
            [RT2, RT2],
            atol=1e-12,
        )

    def test_cancellation_drops_branch(self):
        minus = np.array([RT2, -RT2], dtype=complex)
        sp = measure(initial_state([plus_ket()], 1), 0, 0, identity_basis(2))
        sm = measure(initial_state([minus], 1), 0, 0, identity_basis(2))
        combined = coherent_combine([(RT2, sp), (RT2, sm)])
        # (|0>+|1>)/sqrt2 + (|0>-|1>)/sqrt2 = sqrt2 |0>: the |1> record cancels
        (branch,) = combined.branches
        assert branch.registers[0][0].index == 0
        assert abs(branch.amplitude) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coherent_combine([])


def _product_pair(n, differ, seed):
    """Two n-qubit product kets equal except on the ``differ`` slots, where
    the second is orthogonal to the first, so equal weights RT2 normalize
    their sum."""
    rng = np.random.default_rng(seed)
    a = [random_ket(2, rng) for _ in range(n)]
    b = list(a)
    for s in differ:
        b[s] = np.array([-a[s][1].conjugate(), a[s][0].conjugate()])
    return a, b


class TestMergeJoinsOnlyDifferingBlocks:
    # 21 qubits: 2**21 amplitudes over all slots, one step above the cap
    N = 21

    def test_two_differing_slots_join_into_one_block(self):
        a, b = _product_pair(self.N, (0, 1), 0)
        combined = coherent_combine(
            [(RT2, initial_state(a, 1)), (RT2, initial_state(b, 1))]
        )
        (branch,) = combined.branches
        assert [slots for slots, _ in branch.blocks] == [(0, 1)] + [
            (s,) for s in range(2, self.N)
        ]
        want = RT2 * np.kron(a[0], a[1]) + RT2 * np.kron(b[0], b[1])
        np.testing.assert_allclose(
            branch.amplitude * branch.blocks[0][1], want, rtol=0.0, atol=1e-15
        )
        for s, (_, ket) in enumerate(branch.blocks[1:], start=2):
            np.testing.assert_array_equal(ket, a[s])

    def test_every_slot_differing_exceeds_cap(self):
        a, b = _product_pair(self.N, range(self.N), 1)
        with pytest.raises(CapacityError):
            coherent_combine([(RT2, initial_state(a, 1)), (RT2, initial_state(b, 1))])

    def test_state_vector_over_cap_refused(self):
        (branch,) = initial_state([plus_ket()] * self.N, 1).branches
        with pytest.raises(CapacityError):
            branch.state_vector((2,) * self.N)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_gauge_free_linear_combination(self, k):
        # product states on 5 qutrits differing on k slots, one side measured
        # on a shared slot first; the merge must equal the linear combination
        rng = np.random.default_rng([11, k])
        dims = (3,) * 5
        a = [random_ket(3, rng) for _ in dims]
        b = list(a)
        for s in range(k):
            b[s] = random_ket(3, rng)
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        va = initial_state(a, 1).branches[0].state_vector(dims)
        vb = initial_state(b, 1).branches[0].state_vector(dims)
        scale = np.linalg.norm(alpha * va + beta * vb)
        alpha, beta = alpha / scale, beta / scale
        basis = ObservableBasis(1, random_unitary(3, rng))
        sa = measure(initial_state(a, 1), 4, 0, basis)
        sb = measure(initial_state(b, 1), 4, 0, basis)
        combined = coherent_combine([(alpha, sa), (beta, sb)])
        parts = [
            {br.registers: br.amplitude * br.state_vector(dims) for br in st.branches}
            for st in (sa, sb)
        ]
        assert {br.registers for br in combined.branches} == set(parts[0])
        for br in combined.branches:
            want = alpha * parts[0][br.registers] + beta * parts[1][br.registers]
            got = br.amplitude * br.state_vector(dims)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestStateInvariants:
    def test_duplicate_registers_rejected(self):
        ket = np.array([1.0, 0.0], dtype=complex)
        branch_a = Branch(RT2, (((0,), ket),), ((),))
        branch_b = Branch(RT2, (((0,), ket),), ((),))
        with pytest.raises(ValueError):
            BranchedState((2,), 1, (branch_a, branch_b))

    def test_weight_sum_enforced(self):
        ket = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(NormalizationError):
            BranchedState((2,), 1, (Branch(0.5, (((0,), ket),), ((),)),))

    def test_block_norm_enforced(self):
        with pytest.raises(NormalizationError):
            Branch(1.0, (((0,), np.array([1.0, 1.0])),), ((),))


def _assert_same_amplitudes(a: BranchedState, b: BranchedState) -> None:
    table_a = a.amplitude_table()
    table_b = b.amplitude_table()
    for key in set(table_a) | set(table_b):
        amp_a = table_a.get(key, 0.0)
        amp_b = table_b.get(key, 0.0)
        assert abs(amp_a - amp_b) < 1e-12, (key, amp_a, amp_b)
