"""Brute-force enumeration of outcome sequences, aggregated by count vector.

This is the ground truth that the multinomial route in ``branchstats`` is
checked against, so it forms the product weight of every one of the k^n
sequences instead of using a closed form.

A sequence is split into a prefix and a suffix. The weights and count
keys of all prefixes and of all suffixes are built once by outer
products; a block of sequences is then a run of prefixes times every
suffix, one more outer product, summed per count vector by one
``np.bincount``.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

# Sequences per block. Bounds the temporaries to a few megabytes and the
# number of terms each block sum adds one after another, which keeps the
# rounding error of a weight near 1e-14 even at 2^23 sequences.
BLOCK = 1 << 16

# Count-vector keys range over (n+1)**k slots. Up to this many, blocks are
# summed into one dense table; above it, each block is reduced to its
# distinct keys and the blocks are merged once at the end.
DENSE_SLOT_LIMIT = 1 << 22

DEFAULT_SEQUENCE_CAP = 10**7


def _all_sequences(
    p: np.ndarray, strides: np.ndarray, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Product weights and count-vector keys of all k**length sequences."""
    weights = np.ones(1)
    keys = np.zeros(1, dtype=np.int64)
    for _ in range(length):
        weights = np.multiply.outer(weights, p).ravel()
        keys = np.add.outer(keys, strides).ravel()
    return weights, keys


def sequence_count_weights(
    p: np.ndarray,
    n: int,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate weights of all k^n outcome sequences by count vector.

    ``p`` holds the k category probabilities of one draw. Every length-n
    sequence contributes the product of its per-position probabilities to
    its count vector's weight. Returns ``(keys, weights)`` where key
    ``sum_c counts[c] * (n+1)**c`` encodes the count vector; keys are
    ascending and exact-zero weights are dropped.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("category probabilities must be a nonempty 1-d array")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("category probabilities must be finite and nonnegative")
    n = int(n)
    if n < 0:
        raise ValueError("sequence length must be nonnegative")
    k = p.size

    total = k**n
    if total > cap:
        raise CapacityError(
            f"enumeration of {k}**{n} = {total} sequences exceeds cap {cap}; "
            "raise the cap or use multinomial compression"
        )
    slots = (n + 1) ** k
    if slots >= 1 << 62:
        raise CapacityError(
            f"count-vector key space (n+1)**k = {slots} overflows 64-bit keys"
        )

    if k == 1:
        # a single sequence; the block sizing below would take n steps for it
        weight = p[0] ** n
        if weight == 0.0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return np.array([n], dtype=np.int64), np.array([weight])

    strides = (n + 1) ** np.arange(k, dtype=np.int64)
    suffix_len = 0
    while suffix_len < n and k ** (suffix_len + 1) <= BLOCK:
        suffix_len += 1
    w_pre, key_pre = _all_sequences(p, strides, n - suffix_len)
    w_suf, key_suf = _all_sequences(p, strides, suffix_len)
    rows = BLOCK // w_suf.size

    dense = slots <= DENSE_SLOT_LIMIT
    acc = np.zeros(slots) if dense else None
    parts = []
    for start in range(0, w_pre.size, rows):
        weights = np.multiply.outer(w_pre[start : start + rows], w_suf).ravel()
        keys = np.add.outer(key_pre[start : start + rows], key_suf).ravel()
        if dense:
            acc += np.bincount(keys, weights=weights, minlength=slots)
        else:
            uniq, inv = np.unique(keys, return_inverse=True)
            parts.append((uniq, np.bincount(inv, weights=weights)))

    if dense:
        keys_out = np.flatnonzero(acc).astype(np.int64)
        return keys_out, acc[keys_out]
    keys_out, inv = np.unique(np.concatenate([u for u, _ in parts]), return_inverse=True)
    weights_out = np.bincount(inv, weights=np.concatenate([s for _, s in parts]))
    nz = weights_out != 0.0
    return keys_out[nz], weights_out[nz]
