"""Reference values the benchmark checks every response against.

Nothing here imports eprsim or scipy: the formulas are written out from
the physics (closed-form singlet amplitudes, exact multinomial and
binomial probabilities) with the standard library only, so a bug in the
code under test cannot also sit in its reference.
"""

from __future__ import annotations

import math
import random

# Stated tolerances. Enumeration and the multinomial route must agree
# with exact probabilities within the 1e-12 route gap of acceptance
# test 6; total weights must sum to 1 as tightly.
WEIGHT_ATOL = 1e-12
TOTAL_ATOL = 1e-12
# Deviation weights are sums of terms exp(lgamma(N+1) - ...): at N = 1e7
# the log terms reach 1.5e8, so one rounding step in them is a relative
# error of ~3e-8 in every term, for the library and for this reference.
DEVIATION_RTOL = 1e-6
# Branch amplitudes are products of at most a dozen overlaps.
AMPLITUDE_ATOL = 1e-12
# CLI output is rounded to 12 significant digits.
CLI_RTOL = 1e-10
CLI_ATOL = 1e-11
BOUNDARY_TOL = 1e-12  # a frequency this close to epsilon is not deviant
PRUNE_TOL = 1e-14  # branches with a smaller amplitude modulus are dropped


def close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def multinomial_pmf(counts: tuple[int, ...], probs: tuple[float, ...]) -> float:
    """Probability of one count vector: N!/prod(c!) * prod(p**c)."""
    coef = 1
    left = sum(counts)
    for c in counts:
        coef *= math.comb(left, c)
        left -= c
    weight = float(coef)
    for c, p in zip(counts, probs):
        if c:
            weight *= p**c
    return weight


def composition_count(n: int, k: int) -> int:
    """Number of count vectors of n draws over k categories."""
    return math.comb(n + k - 1, k - 1)


def random_composition(rnd: random.Random, n: int, k: int) -> tuple[int, ...]:
    """Uniform count vector of n over k categories (stars and bars)."""
    bars = sorted(rnd.sample(range(n + k - 1), k - 1))
    edges = [-1, *bars, n + k - 1]
    return tuple(edges[i + 1] - edges[i] - 1 for i in range(k))


def is_deviant(m: int, n: int, q: float, eps: float) -> bool:
    gap = abs(m / n - q)
    return gap > eps and gap - eps > BOUNDARY_TOL


def _log_binom_pmf(m: int, n: int, q: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(m + 1)
        - math.lgamma(n - m + 1)
        + m * math.log(q)
        + (n - m) * math.log1p(-q)
    )


def deviation_weight(n: int, q: float, eps: float) -> float:
    """Binomial weight of counts whose frequency misses q by more than eps.

    Sums each tail outward from its first deviant count with the term
    ratio recurrence, until the terms stop mattering: O(sqrt(n)) terms.
    """
    if q in (0.0, 1.0):
        return 0.0
    total = 0.0
    # lower tail: largest deviant m below the mean, then downward
    m = min(math.floor(n * q), math.floor(n * (q - eps)) + 2)
    while m >= 0 and not is_deviant(m, n, q, eps):
        m -= 1
    if m >= 0 and m < n * q:
        term = math.exp(_log_binom_pmf(m, n, q))
        part = 0.0
        while m >= 0 and term > 0.0:
            part += term
            if term < 1e-20 * part:
                break
            term *= m / (n - m + 1) * (1.0 - q) / q
            m -= 1
        total += part
    # upper tail: smallest deviant m above the mean, then upward
    m = max(math.ceil(n * q), math.ceil(n * (q + eps)) - 2)
    while m <= n and not is_deviant(m, n, q, eps):
        m += 1
    if m <= n and m > n * q:
        term = math.exp(_log_binom_pmf(m, n, q))
        part = 0.0
        while m <= n and term > 0.0:
            part += term
            if term < 1e-20 * part:
                break
            term *= (n - m) / (m + 1) * q / (1.0 - q)
            m += 1
        total += part
    return total


def singlet_table(theta_deg: float) -> list[list[float]]:
    """Joint record probabilities (1 -+ cos theta)/4 of the singlet."""
    c = math.cos(math.radians(theta_deg))
    return [[(1.0 - c) / 4.0, (1.0 + c) / 4.0], [(1.0 + c) / 4.0, (1.0 - c) / 4.0]]


def singlet_amplitudes(theta_deg: float) -> list[list[complex]]:
    """Record-pair amplitudes of the singlet against a tilted analyzer.

    With C = [[0, r], [-r, 0]], r = 1/sqrt(2), and the tilt matrix
    [[c, -i s], [-i s, c]] at half-angle cosines/sines c, s, the
    amplitudes C conj(B) are [[i r s, r c], [-r c, -i r s]].
    """
    half = math.radians(theta_deg) / 2.0
    r = 1.0 / math.sqrt(2.0)
    c, s = math.cos(half), math.sin(half)
    return [[1j * r * s, r * c], [-r * c, -1j * r * s]]


def correlation(theta_deg: float) -> float:
    return -math.cos(math.radians(theta_deg))


def chsh(a: float, ap: float, b: float, bp: float) -> float:
    e = correlation
    return e(a - b) - e(a - bp) + e(ap - b) + e(ap - bp)


def overlaps(unitary, ket) -> list[complex]:
    """Components U^dagger ket: amplitude of each outcome of a basis."""
    d = len(ket)
    return [
        sum(complex(unitary[i][j]).conjugate() * complex(ket[i]) for i in range(d))
        for j in range(d)
    ]


def record_amplitudes(coeffs, basis_a, basis_b) -> list[list[complex]]:
    """Closed-form pair amplitudes K = A^dagger C conj(B)."""
    d1, d2 = len(coeffs), len(coeffs[0])
    left = [
        [
            sum(complex(basis_a[r][i]).conjugate() * complex(coeffs[r][j]) for r in range(d1))
            for j in range(d2)
        ]
        for i in range(len(basis_a[0]))
    ]
    return [
        [
            sum(left[i][j] * complex(basis_b[j][jp]).conjugate() for j in range(d2))
            for jp in range(len(basis_b[0]))
        ]
        for i in range(len(left))
    ]


def chain_amplitudes(components: list[list[complex]]) -> dict[tuple[int, ...], complex]:
    """Amplitude of every outcome history of a product-state measurement chain.

    ``components[i][o]`` is the overlap of particle i's ket with outcome o
    of its basis. Histories whose amplitude modulus falls below the prune
    tolerance are left out, as the measurement drops them.
    """
    table: dict[tuple[int, ...], complex] = {(): 1.0 + 0.0j}
    for comps in components:
        table = {
            hist + (o,): amp * c
            for hist, amp in table.items()
            for o, c in enumerate(comps)
            if abs(amp * c) >= PRUNE_TOL
        }
    return table


def near_prune_edge(amp: complex) -> bool:
    """True for amplitudes so close to the prune tolerance that rounding
    may legitimately keep or drop them."""
    return abs(abs(amp) - PRUNE_TOL) <= 1e-9 * PRUNE_TOL
