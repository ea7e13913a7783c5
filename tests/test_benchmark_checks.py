"""The benchmark's own correctness checks, run on one seeded round.

``perfbench/run.py`` compares every response with ``perfbench/reference.py``,
which never imports eprsim; this module runs the same comparison on one
round of each in-process workload, so a mismatch shows in the test suite
and not only in a benchmark run. It uses only ``workloads.get``,
``make_round``, ``execute``, ``check`` and ``tracing.Tracer``, the names
the benchmark worker uses. ``cli`` is left out: it starts a process per
request.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 101

# Branching requests over more than this many particles take most of a
# round's time (9-11 particle chains, about 3.5 s); the smaller ones
# still cover every request kind: chains, run_epr and all three
# coherent_combine variants.
MAX_PARTICLES = 8


def _particles(req) -> int:
    kets = req.get("kets", req.get("kets_a"))
    return 2 if kets is None else len(kets)


@pytest.mark.parametrize("name", ["enumerate", "multinomial", "branching"])
def test_one_round_passes_reference_checks(name):
    wl = workloads.get(name, str(ROOT))
    reqs = wl.make_round(np.random.default_rng([SEED, 0]))
    if name == "branching":
        reqs = [r for r in reqs if _particles(r) <= MAX_PARTICLES]
    rnd = random.Random(SEED)
    off = Tracer()
    problems = []
    for req in reqs:
        problem = wl.check(req, wl.execute(req, off), rnd)
        if problem is not None:
            problems.append(f"{req['kind']}: {problem}")
    assert not problems, problems
