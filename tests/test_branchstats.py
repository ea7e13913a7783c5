"""Count-vector weights over N pairs: dual-route agreement and tails."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import branchstats
from eprsim import (
    CapacityError,
    branch_count_distribution,
    deviation_weight,
    sample_records,
    singlet_joint_probability,
)

UNIFORM = np.full((2, 2), 0.25)

# binomial-tail spot values, summed independently in exact rational
# arithmetic (math.comb + Fraction) before any package code existed
TAIL_Q25_E01 = {10: 0.46815013885498047, 100: 0.014827727582781657, 1000: 7.520487227256666e-13}
CHERNOFF_N1000_E01 = 4.122307244877101e-09  # 2 * exp(-2 * 1000 * 0.1**2)


def random_p(rng, shape=(2, 2)):
    p = rng.random(shape)
    return p / p.sum()


def deviant_binomial_weight(n, q, eps):
    """Deviant binomial weight summed over all n + 1 counts, in pure Python."""
    total = 0.0
    for m in range(n + 1):
        gap = abs(m / n - q)
        if gap > eps and gap - eps > 1e-12:
            total += math.exp(
                math.lgamma(n + 1)
                - math.lgamma(m + 1)
                - math.lgamma(n - m + 1)
                + m * math.log(q)
                + (n - m) * math.log1p(-q)
            )
    return total


class TestBranchCountDistribution:
    def test_aligned_singlet_single_pair(self):
        dist = branch_count_distribution(singlet_joint_probability(0.0), 1)
        table = dist.as_dict()
        assert len(table) == 2
        assert table[(0, 1, 0, 0)] == pytest.approx(0.5, abs=1e-15)
        assert table[(0, 0, 1, 0)] == pytest.approx(0.5, abs=1e-15)

    def test_deterministic_p(self):
        p = np.zeros((2, 2))
        p[1, 0] = 1.0
        for n in (1, 5, 40):
            dist = branch_count_distribution(p, n)
            assert len(dist) == 1
            assert dist.counts[0, 1, 0] == n
            assert dist.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_record_pair(self):
        # a 1x1 table has one count vector at any N, in both routes
        for mode in ("multinomial", "enumerate"):
            dist = branch_count_distribution(np.ones((1, 1)), 10**6, mode=mode)
            assert dist.as_dict() == {(10**6,): 1.0}

    def test_uniform_two_pairs(self):
        dist = branch_count_distribution(UNIFORM, 2)
        assert len(dist) == 10  # weak compositions of 2 into 4 parts
        table = dist.as_dict()
        assert table[(2, 0, 0, 0)] == pytest.approx(1.0 / 16.0, abs=1e-15)

    @pytest.mark.parametrize("case", range(20))
    def test_modes_agree(self, case):
        rng = np.random.default_rng([11, case])
        p = random_p(rng)
        n = case % 12 + 1
        enum = branch_count_distribution(p, n, mode="enumerate", cap=2 * 10**7)
        comp = branch_count_distribution(p, n, mode="multinomial")
        np.testing.assert_array_equal(enum.counts, comp.counts)
        np.testing.assert_allclose(enum.weights, comp.weights, atol=1e-12)

    def test_modes_agree_with_zero_entries(self):
        p = np.array([[0.0, 0.5], [0.5, 0.0]])
        for n in (1, 4, 9):
            enum = branch_count_distribution(p, n, mode="enumerate")
            comp = branch_count_distribution(p, n, mode="multinomial")
            np.testing.assert_array_equal(enum.counts, comp.counts)
            np.testing.assert_allclose(enum.weights, comp.weights, atol=1e-12)

    def test_weight_conservation(self):
        rng = np.random.default_rng(77)
        for n in (1, 6, 30, 100):
            dist = branch_count_distribution(random_p(rng), n)
            assert dist.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_enumerate_cap_enforced(self):
        with pytest.raises(CapacityError, match="cap"):
            branch_count_distribution(UNIFORM, 13, mode="enumerate")

    def test_composition_cap_enforced(self):
        with pytest.raises(CapacityError, match="composition"):
            branch_count_distribution(UNIFORM, 10**3, composition_cap=10**4)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            branch_count_distribution(UNIFORM, 2, mode="magic")

    def test_counts_sum_to_total(self):
        dist = branch_count_distribution(UNIFORM, 7)
        np.testing.assert_array_equal(dist.counts.sum(axis=(1, 2)), 7)

    @pytest.mark.parametrize("n,zero_category", [(80, False), (150, False), (80, True)])
    def test_multinomial_beyond_enumeration(self, n, zero_category):
        rng = np.random.default_rng([31, n])
        p = random_p(rng)
        if zero_category:
            p[1, 0] = 0.0
            p /= p.sum()
        dist = branch_count_distribution(p, n)
        live = np.count_nonzero(p)
        assert len(dist) == math.comb(n + live - 1, live - 1)
        flat = dist.counts.reshape(len(dist), -1)
        keys = flat @ (n + 1) ** np.arange(4)
        assert np.all(np.diff(keys) > 0)
        heaviest = np.argsort(dist.weights)[-20:]
        rows = np.concatenate([heaviest, rng.choice(len(dist), 20, replace=False)])
        for row in rows:
            exact, left = Fraction(1), n
            for c, q in zip(flat[row].tolist(), p.reshape(-1).tolist()):
                exact *= math.comb(left, c) * Fraction(q) ** c
                left -= c
            assert dist.weights[row] == pytest.approx(float(exact), abs=1e-13)


class TestDeviationWeight:
    def test_single_pair_always_deviant(self):
        p = np.full((2, 2), 0.0)
        p[0, 0] = 0.5
        p[1, 1] = 0.5
        assert deviation_weight(p, 1, (0, 0), 0.25) == pytest.approx(1.0, abs=1e-15)

    def test_four_pairs_tail(self):
        p = np.zeros((2, 2))
        p[0, 0] = 0.5
        p[1, 1] = 0.5
        # only counts 0 and 4 deviate: 2 * (1/2)**4
        assert deviation_weight(p, 4, (0, 0), 0.25) == pytest.approx(0.125, abs=1e-13)

    @pytest.mark.parametrize("n_pairs", [10, 100, 1000])
    def test_quarter_probability_tails(self, n_pairs):
        got = deviation_weight(UNIFORM, n_pairs, (0, 0), 0.1)
        assert got == pytest.approx(TAIL_Q25_E01[n_pairs], abs=1e-12)
        assert got == pytest.approx(TAIL_Q25_E01[n_pairs], rel=1e-11, abs=0.0)

    @pytest.mark.parametrize(
        "q,eps", [(0.5, 0.01), (0.5, 0.13), (0.01, 0.005), (0.01, 0.03)]
    )
    def test_window_matches_full_sum(self, monkeypatch, q, eps):
        # a cap of N/2 counts fails unless the summed window is narrower
        # than [0, N]; eps = 0.13 and 0.03 put all the weight (1.7e-299,
        # 4.0e-228) just inside the window's edge
        n = 20000
        monkeypatch.setattr(branchstats, "DEVIATION_WINDOW_CAP", n // 2)
        p = np.array([[q, 1.0 - q], [0.0, 0.0]])
        want = deviant_binomial_weight(n, q, eps)
        assert want > 0.0
        got = deviation_weight(p, n, (0, 0), eps)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_window_cap_enforced(self):
        with pytest.raises(CapacityError, match="window"):
            deviation_weight(UNIFORM, 10**15, (0, 0), 0.1)

    def test_convergence_and_chernoff_margin(self):
        values = [deviation_weight(UNIFORM, n, (0, 0), 0.1) for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]
        assert values[2] < CHERNOFF_N1000_E01 + 1e-12

    def test_certain_pair(self):
        p = np.zeros((2, 2))
        p[1, 1] = 1.0
        assert deviation_weight(p, 50, (1, 1), 0.3) == 0.0
        assert deviation_weight(p, 50, (0, 0), 0.3) == 0.0

    def test_matches_count_distribution_sum(self):
        rng = np.random.default_rng(21)
        for n in (3, 8, 12):
            p = random_p(rng)
            pair = (int(rng.integers(2)), int(rng.integers(2)))
            eps = float(rng.uniform(0.05, 0.6))
            dist = branch_count_distribution(p, n, mode="enumerate", cap=2 * 10**7)
            freq = dist.counts[:, pair[0], pair[1]] / n
            gap = np.abs(freq - p[pair])
            direct = float(dist.weights[(gap > eps) & (gap - eps > 1e-12)].sum())
            assert deviation_weight(p, n, pair, eps) == pytest.approx(direct, abs=1e-12)

    def test_boundary_counts_not_deviant(self):
        # |count/N - q| equal to epsilon exactly must not count
        p = np.zeros((2, 2))
        p[0, 0] = 0.5
        p[1, 1] = 0.5
        # N=4, q=1/2, eps=1/4: counts 1 and 3 sit exactly on the boundary
        got = deviation_weight(p, 4, (0, 0), 0.25)
        assert got == pytest.approx(0.125, abs=1e-13)

    @given(st.integers(1, 40), st.floats(0.01, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_epsilon(self, n_pairs, eps):
        wider = min(0.99, eps + 0.1)
        a = deviation_weight(UNIFORM, n_pairs, (0, 1), eps)
        b = deviation_weight(UNIFORM, n_pairs, (0, 1), wider)
        assert b <= a + 1e-12

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            deviation_weight(UNIFORM, 10, (0, 0), 0.0)
        with pytest.raises(ValueError):
            deviation_weight(UNIFORM, 10, (0, 0), 1.0)

    def test_pair_range_enforced(self):
        with pytest.raises(IndexError):
            deviation_weight(UNIFORM, 10, (2, 0), 0.1)


class TestSampleRecords:
    def test_zero_probability_pairs_never_drawn(self):
        p = singlet_joint_probability(0.0)
        tables = sample_records(p, 200, 20, seed=3)
        assert np.all(tables[:, 0, 0] == 0)
        assert np.all(tables[:, 1, 1] == 0)
        np.testing.assert_array_equal(tables.sum(axis=(1, 2)), 200)

    def test_deterministic(self):
        a = sample_records(UNIFORM, 50, 5, seed=11)
        b = sample_records(UNIFORM, 50, 5, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_trials_have_independent_substreams(self):
        # trial t depends only on (seed, t), not on how many trials ran
        many = sample_records(UNIFORM, 30, 10, seed=2)
        few = sample_records(UNIFORM, 30, 3, seed=2)
        np.testing.assert_array_equal(many[:3], few)

    def test_law_of_large_numbers(self):
        tables = sample_records(singlet_joint_probability(90.0), 10**4, 100, seed=7)
        mean_freq = tables[:, 0, 0].mean() / 10**4
        assert abs(mean_freq - 0.25) < 0.02

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_records(UNIFORM, 0, 1, seed=0)
        with pytest.raises(ValueError):
            sample_records(UNIFORM, 1, 0, seed=0)
