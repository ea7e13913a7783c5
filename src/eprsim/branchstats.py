"""Branch statistics for N identically prepared pairs.

After N pair measurements the global state holds one branch per outcome
sequence; branches whose records have the same per-outcome counts carry
equal weight, so the distribution over count vectors is multinomial in
the single-pair probabilities. Two routes compute it: explicit
enumeration of all (d1*d2)^N sequences (the ground truth, exponential)
and multinomial-coefficient compression over compositions (polynomial).
Both must agree; the test suite holds them against each other.

``deviation_weight`` is the total weight of branches whose relative
frequency of one record pair misses its probability by more than
epsilon. It vanishes as N grows: almost every branch looks statistical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, linalg
from .errors import CapacityError, DimensionError

WEIGHT_TOL = 1e-10

# width of the band around |f - q| = epsilon treated as on-boundary
BOUNDARY_TOL = 1e-12

DEFAULT_COMPOSITION_CAP = 10**6

# Most counts deviation_weight evaluates for one N (its window, below):
# N up to about 7e8. The largest window takes 0.3 s and 45 MB on a 2-CPU
# x86-64 host; larger N raise CapacityError instead of exhausting memory.
DEVIATION_WINDOW_CAP = 1 << 20


def _log_factorial(m: np.ndarray) -> np.ndarray:
    """log(m!) for each entry of a 1-d array of nonnegative integers."""
    x = np.asarray(m, dtype=np.float64) + 1.0
    return np.fromiter(map(math.lgamma, x), dtype=np.float64, count=x.size)


@dataclass(frozen=True)
class CountDistribution:
    """Weights of record-count vectors over N pairs.

    ``counts[m]`` is the (d1, d2) table of per-record-pair counts of the
    m-th vector (entries sum to N); ``weights[m]`` is its total branch
    weight. Vectors are ordered by their mixed-radix key
    ``sum_c counts.flat[c] * (N+1)**c``.
    """

    shape: tuple[int, int]
    total: int
    counts: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if counts.ndim != 3 or counts.shape[1:] != tuple(self.shape):
            raise DimensionError(
                f"counts must have shape (m, {self.shape[0]}, {self.shape[1]})"
            )
        if weights.shape != (counts.shape[0],):
            raise DimensionError("need one weight per count vector")
        if np.any(counts < 0) or np.any(counts.sum(axis=(1, 2)) != self.total):
            raise ValueError(f"each count vector must sum to {self.total}")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        linalg.require_unit_total(weights, "count-vector weights", tol=WEIGHT_TOL)
        object.__setattr__(self, "counts", linalg.frozen_copy(counts))
        object.__setattr__(self, "weights", linalg.frozen_copy(weights))
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "total", int(self.total))

    def __len__(self) -> int:
        return self.counts.shape[0]

    def as_dict(self) -> dict[tuple[int, ...], float]:
        """Map flattened count tuples to weights."""
        return {
            tuple(c.reshape(-1).tolist()): float(w)
            for c, w in zip(self.counts, self.weights)
        }


def _probs(p) -> np.ndarray:
    return linalg.as_probability_table(getattr(p, "matrix", p))


def branch_count_distribution(
    p,
    n_pairs: int,
    mode: str = "multinomial",
    cap: int = kernels.DEFAULT_SEQUENCE_CAP,
    composition_cap: int = DEFAULT_COMPOSITION_CAP,
) -> CountDistribution:
    """Distribution of record-pair counts over ``n_pairs`` measurements.

    ``mode='enumerate'`` walks every outcome sequence and aggregates the
    product weights (capped at ``cap`` sequences); ``mode='multinomial'``
    sums each count vector in closed form via log-space multinomial
    coefficients (capped at ``composition_cap`` compositions).
    """
    probs = _probs(p)
    d1, d2 = probs.shape
    n_pairs = int(n_pairs)
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    flat = probs.reshape(-1)
    k = flat.size

    if mode == "enumerate":
        keys, weights = kernels.sequence_count_weights(flat, n_pairs, cap=cap)
        counts = _decode_keys(keys, k, n_pairs)
    elif mode == "multinomial":
        n_comp = math.comb(n_pairs + k - 1, k - 1)
        if n_comp > composition_cap:
            raise CapacityError(
                f"{n_comp} count vectors exceed the composition cap "
                f"{composition_cap}"
            )
        counts, weights = _multinomial_table(flat, n_pairs)
    else:
        raise ValueError(f"mode must be 'enumerate' or 'multinomial', got {mode!r}")

    keep = weights > 0.0
    counts = counts[keep]
    weights = weights[keep]
    return CountDistribution(
        shape=(d1, d2),
        total=n_pairs,
        counts=counts.reshape(-1, d1, d2),
        weights=weights,
    )


def _decode_keys(keys: np.ndarray, k: int, n: int) -> np.ndarray:
    counts = np.empty((keys.size, k), dtype=np.int64)
    rem = keys.copy()
    for c in range(k):
        counts[:, c] = rem % (n + 1)
        rem //= n + 1
    return counts


def _multinomial_table(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    if flat.size == 1:
        # one count vector; the log-factorial table below would take n steps
        return np.array([[n]], dtype=np.int64), np.array([flat[0] ** n])
    counts = _compositions(n, flat.size)
    counts = counts[~np.any((counts > 0) & (flat == 0.0), axis=1)]
    with np.errstate(divide="ignore"):
        logp = np.where(flat > 0.0, np.log(np.where(flat > 0.0, flat, 1.0)), 0.0)
    lf = _log_factorial(np.arange(n + 1))
    logw = lf[n] - lf[counts].sum(axis=1) + (counts * logp).sum(axis=1)
    return counts, np.exp(logw)


def _compositions(n: int, k: int) -> np.ndarray:
    """Weak compositions of n into k parts, one per row, ascending by the
    mixed-radix key ``sum_c row[c] * (n+1)**c`` the enumeration route uses.

    Parts are placed from the most significant (last) column down, each
    row branching into every value its remainder allows, so rows come out
    in key order.
    """
    rows = np.empty((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        reps = left + 1
        part = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([part, np.repeat(rows, reps, axis=0)])
        left = np.repeat(left, reps) - part
    return np.column_stack([left, rows])


def deviation_weight(p, n_pairs: int, pair: tuple[int, int], epsilon: float) -> float:
    """Total weight of branches whose frequency of ``pair`` strays from its
    probability by more than ``epsilon``.

    A branch counts as deviant when ``|count/N - q| > epsilon`` strictly,
    with q the single-pair probability of ``pair``; frequencies within
    BOUNDARY_TOL of the boundary count as boundary (non-deviant), so a
    q that is off by one float rounding step cannot flip a count class
    sitting exactly on the boundary. The per-pair count is binomial, so
    the sum runs over the binomial tail in log space.
    """
    probs = _probs(p)
    n_pairs = int(n_pairs)
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    i, j = pair
    if not (0 <= i < probs.shape[0] and 0 <= j < probs.shape[1]):
        raise IndexError(f"record pair {pair} out of range for shape {probs.shape}")
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    q = float(probs[i, j])
    if q == 0.0 or q == 1.0:
        return 0.0  # all weight sits at count 0 or N, frequency exactly q

    # Hoeffding: pmf(m) <= exp(-2 t**2 / N) once |m - Nq| >= t, and for
    # t >= sqrt(373 N) that is below the smallest double, so exp returns
    # 0.0 for every count outside Nq +- (ceil(sqrt(373 N)) + 1); half is
    # at least that.
    half = math.isqrt(373 * n_pairs) + 2
    centre = n_pairs * q
    lo = max(0, math.floor(centre) - half)
    hi = min(n_pairs, math.ceil(centre) + half)
    if hi - lo + 1 > DEVIATION_WINDOW_CAP:
        raise CapacityError(
            f"deviation window of {hi - lo + 1} counts at N = {n_pairs} exceeds "
            f"the cap {DEVIATION_WINDOW_CAP}"
        )
    ns = np.arange(lo, hi + 1)
    gap = np.abs(ns / n_pairs - q)
    # boundary band: |f - q| within BOUNDARY_TOL of epsilon is non-deviant
    ns = ns[(gap > epsilon) & (gap - epsilon > BOUNDARY_TOL)]
    logpmf = (
        math.lgamma(n_pairs + 1)
        - _log_factorial(ns)
        - _log_factorial(n_pairs - ns)
        + ns * math.log(q)
        + (n_pairs - ns) * math.log1p(-q)
    )
    return float(np.exp(logpmf).sum())


def sample_records(p, n_pairs: int, trials: int, seed: int) -> np.ndarray:
    """Draw per-trial record-pair count tables from the joint distribution.

    Each trial draws ``n_pairs`` records independently through its own
    seeded substream, so trial t is reproducible in isolation. Returns an
    int array of shape ``(trials, d1, d2)``.
    """
    probs = _probs(p)
    d1, d2 = probs.shape
    n_pairs = int(n_pairs)
    trials = int(trials)
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    if trials < 1:
        raise ValueError("need at least one trial")
    flat = probs.reshape(-1)
    cdf = np.cumsum(flat)
    last = int(np.flatnonzero(flat)[-1])
    out = np.empty((trials, d1, d2), dtype=np.int64)
    for t in range(trials):
        rng = np.random.default_rng([int(seed), t])
        u = rng.random(n_pairs)
        idx = np.searchsorted(cdf, u, side="right")
        idx[idx >= flat.size] = last  # guard the u == cdf[-1] edge
        out[t] = np.bincount(idx, minlength=flat.size).reshape(d1, d2)
    return out
