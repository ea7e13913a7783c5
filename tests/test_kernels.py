"""Brute-force enumeration kernel against exact weights and its own contract."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eprsim import CapacityError
from eprsim import kernels


def random_probs(rng, k):
    p = rng.random(k)
    return p / p.sum()


def exact_weights(p, n):
    """Multinomial weight of every count vector, by key, in exact rationals."""
    k = len(p)
    probs = [Fraction(float(x)) for x in p]
    out = {}

    def walk(counts, left):
        if len(counts) == k - 1:
            counts = counts + [left]
            weight, rest = Fraction(1), n
            for c, q in zip(counts, probs):
                weight *= math.comb(rest, c) * q**c
                rest -= c
            out[sum(c * (n + 1) ** i for i, c in enumerate(counts))] = weight
            return
        for c in range(left + 1):
            walk(counts + [c], left - c)

    walk([], n)
    return out


def assert_exact(p, n, atol):
    keys, weights = kernels.sequence_count_weights(p, n)
    exact = {key: w for key, w in exact_weights(p, n).items() if w != 0}
    assert keys.tolist() == sorted(exact)
    want = np.array([float(exact[key]) for key in keys.tolist()])
    np.testing.assert_allclose(weights, want, rtol=0.0, atol=atol)


class TestContract:
    def test_keys_sorted_and_weights_positive(self):
        rng = np.random.default_rng(1)
        keys, weights = kernels.sequence_count_weights(random_probs(rng, 4), 5)
        assert np.all(np.diff(keys) > 0)
        assert np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_entry_count_is_composition_count(self):
        rng = np.random.default_rng(2)
        for k, n in ((2, 6), (3, 4), (4, 5)):
            keys, _ = kernels.sequence_count_weights(random_probs(rng, k), n)
            assert keys.size == math.comb(n + k - 1, k - 1)

    def test_key_encoding(self):
        # single category: the only count vector is (n,), key = n * 1
        keys, weights = kernels.sequence_count_weights(np.array([1.0]), 9)
        assert keys.tolist() == [9]
        assert weights.tolist() == [1.0]

    def test_two_categories_binomial(self):
        p = np.array([0.25, 0.75])
        keys, weights = kernels.sequence_count_weights(p, 3)
        # counts (c0, c1 = 3 - c0), key = c0 + 4 * c1
        got = dict(zip(keys.tolist(), weights.tolist()))
        for c0 in range(4):
            expected = math.comb(3, c0) * 0.25**c0 * 0.75 ** (3 - c0)
            assert got[c0 + 4 * (3 - c0)] == pytest.approx(expected, abs=1e-15)

    def test_zero_probability_category_skipped(self):
        p = np.array([0.0, 0.5, 0.5])
        keys, weights = kernels.sequence_count_weights(p, 4)
        counts0 = keys % 5  # mixed-radix digit of category 0
        assert np.all(counts0 == 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sequence_cap(self):
        with pytest.raises(CapacityError, match="cap"):
            kernels.sequence_count_weights(np.full(4, 0.25), 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernels.sequence_count_weights(np.array([-0.5, 1.5]), 2)
        with pytest.raises(ValueError):
            kernels.sequence_count_weights(np.array([0.5, 0.5]), -1)


class TestExactWeights:
    @pytest.mark.parametrize(
        "k,n", [(1, 10**6), (2, 1), (2, 10), (3, 7), (4, 8), (5, 5), (6, 4)]
    )
    def test_random_probabilities(self, k, n):
        rng = np.random.default_rng([k, n])
        assert_exact(random_probs(rng, k), n, atol=1e-13)

    def test_zero_category(self):
        assert_exact(np.array([0.5, 0.0, 0.25, 0.25]), 6, atol=1e-13)

    def test_coin_many_blocks(self):
        # 2**23 sequences span 128 blocks; one running sum over all of them
        # drifts to ~1e-12 here, per-block sums stay near 1e-14
        assert_exact(np.array([0.3, 0.7]), 23, atol=1e-13)


class TestDenseAndSparse:
    def test_sparse_path(self):
        # (n+1)**k above the dense limit takes the per-block unique route
        k, n = 12, 5
        assert (n + 1) ** k > kernels.DENSE_SLOT_LIMIT
        rng = np.random.default_rng(8)
        p = random_probs(rng, k)
        keys, weights = kernels.sequence_count_weights(p, n)
        assert keys.size == math.comb(n + k - 1, k - 1)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize(
        "p,n",
        [(np.array([0.3, 0.7]), 19), (np.array([0.5, 0.0, 0.25, 0.25]), 9)],
        ids=["coin", "zero-category"],
    )
    def test_paths_agree(self, monkeypatch, p, n):
        dense = kernels.sequence_count_weights(p, n)
        monkeypatch.setattr(kernels, "DENSE_SLOT_LIMIT", 0)
        sparse = kernels.sequence_count_weights(p, n)
        np.testing.assert_array_equal(dense[0], sparse[0])
        np.testing.assert_allclose(dense[1], sparse[1], rtol=0.0, atol=1e-15)
