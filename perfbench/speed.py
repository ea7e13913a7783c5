"""The machine-speed probe that scales the benchmark's time metrics.

The measuring machine is a share of a host whose other tenants slow all
of its code down at once, by up to about 1.6x, for seconds to minutes.
A fixed piece of work timed next to every request measures that speed,
and ``run.py`` scales each time by it to a fixed reference speed. The
probe never calls eprsim, so a change to eprsim cannot change it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Probe time at the reference speed: about the median probe time on the
# shared 2-vCPU machine the seed baseline was measured on (BASELINE.md).
PROBE_REF_MS = 1.6
NEIGHBOURS = 4  # probes on each side of a request that give its local speed


def speed_probe() -> float:
    """Milliseconds the fixed piece of work takes on this CPU now.

    The work is a little of what the workloads do: interpreted Python
    (dicts, strings, sorting) and block-wise NumPy integer arithmetic,
    fancy indexing and ``bincount`` on arrays of a few thousand rows. The
    host's other tenants slow the two kinds of code by different amounts,
    so the probe holds both. The fastest of three runs counts, so caches
    the previous request left cold do not. One call takes about 5 ms.
    """
    table = np.array([0.1, 0.3, 0.6])
    decode = 3 ** np.arange(8, dtype=np.int64)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(1500):
            counts[i % 89] = counts.get(i % 89, 0) + len(str(i))
        order = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        ranks = np.arange(len(order) << 6, dtype=np.int64)
        digits = (ranks[:, None] // decode[None, :]) % 3
        weights = table[digits].prod(axis=1)
        keys = np.zeros(ranks.size, dtype=np.int64)
        for c in range(3):
            keys += (digits == c).sum(axis=1) * 9**c
        np.bincount(keys, weights=weights, minlength=729)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def at_reference_speed(lat: list[float], probes: list[float]) -> list[float]:
    """Request times scaled to the reference speed.

    ``probes[i]`` is the probe taken just before request ``i``. Each time
    is scaled by PROBE_REF_MS over the median of the probes of the
    request and its NEIGHBOURS on each side."""
    out = []
    for i, ms in enumerate(lat):
        local = statistics.median(probes[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
        out.append(ms * PROBE_REF_MS / local)
    return out
