"""The four workloads: request mixes, how each request runs, how it is checked.

A workload's mix is a *round*: a fixed list of request classes (sizes),
whose contents (tables, angles, kets, unitaries, CLI arguments) and
order are drawn from the run's seed. Every run executes whole rounds,
so runs with different seeds do the same amount of work of each size.

``execute`` is the timed part and calls only names in ``eprsim.__all__``
(plus ``kernels.sequence_count_weights``, ``cli.main`` and
``python -m eprsim.cli``). ``check`` runs outside the timed interval and
compares the response with ``reference``, which does not import eprsim.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import random
import subprocess
import sys

import numpy as np

import eprsim
import reference as ref

# ---------------------------------------------------------------- inputs


def random_table(rng, shape) -> np.ndarray:
    """Probability table with every entry at least ~0.2/(size*1.2)."""
    t = 0.2 + rng.random(shape)
    return t / t.sum()


def singlet_table(theta: float) -> np.ndarray:
    return np.array(ref.singlet_table(theta))


def random_ket(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def orthogonal_ket(rng, ket: np.ndarray) -> np.ndarray:
    v = random_ket(rng, ket.size)
    v = v - np.vdot(ket, v) * ket
    return v / np.linalg.norm(v)


def _expand(classes, rng) -> list:
    """One request per (class, repeat), in seeded order."""
    reqs = [make(rng) for make, repeat in classes for _ in range(repeat)]
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def check_distribution(dist, probs: np.ndarray, n: int, rnd: random.Random) -> str | None:
    """Compare a CountDistribution with exact multinomial probabilities."""
    flat = tuple(float(x) for x in probs.reshape(-1))
    k = len(flat)
    if dist.total != n or tuple(dist.shape) != probs.shape:
        return f"distribution has shape {dist.shape} over {dist.total}, want {probs.shape} over {n}"
    rows = np.asarray(dist.counts).reshape(len(dist), -1)
    weights = np.asarray(dist.weights)
    total = math.fsum(weights.tolist())
    if not ref.close(total, 1.0, atol=ref.TOTAL_ATOL):
        return f"weights sum to {total!r}"
    if min(flat) ** n > 1e-290 and len(dist) != ref.composition_count(n, k):
        return f"{len(dist)} count vectors, want {ref.composition_count(n, k)}"
    keys = rows @ ((n + 1) ** np.arange(k, dtype=np.int64))
    if np.any(np.diff(keys) <= 0):
        return "count vectors are not in ascending key order"
    picks = [tuple(int(c) for c in rows[i]) for i in rnd.sample(range(len(rows)), min(24, len(rows)))]
    picks += [ref.random_composition(rnd, n, k) for _ in range(8)]
    for counts in picks:
        want = ref.multinomial_pmf(counts, flat)
        key = sum(c * (n + 1) ** i for i, c in enumerate(counts))
        at = int(np.searchsorted(keys, key))
        got = float(weights[at]) if at < len(keys) and keys[at] == key else 0.0
        if not ref.close(got, want, atol=ref.WEIGHT_ATOL):
            return f"weight of {counts} is {got!r}, want {want!r}"
    return None


# ------------------------------------------------------------ enumerate

# benchmarks/bench_kernels.py's five cases, unchanged
BENCH_KERNEL_CASES = [
    (np.array([[0.3, 0.7]]), 20),
    (np.array([[0.3, 0.7]]), 23),
    (singlet_table(60.0), 10),
    (singlet_table(60.0), 11),
    (np.full((2, 3), 1.0 / 6.0), 8),
]


class Enumerate:
    """branch_count_distribution(p, n, mode='enumerate') over k = 2, 4, 6 and 9."""

    name = "enumerate"

    def __init__(self) -> None:
        def fixed(case):
            return lambda rng: {"kind": "enumerate", "p": case[0], "n": case[1]}

        def seeded(shape, n):
            def make(rng):
                if shape == (2, 2):
                    p = singlet_table(rng.uniform(20.0, 160.0))
                else:
                    p = random_table(rng, shape)
                return {"kind": "enumerate", "p": p, "n": n}

            return make

        # (table shape, n, requests per round): 4.7e4 up to 5.3e5 sequences
        # next to the five fixed cases, which reach 8.4e6. Each size is
        # repeated. In order of time the first four sizes take about 14,
        # 17, 21 and 23 ms, the last two about 120 and 210 ms, and the
        # fixed cases 0.26-3.2 s. A round has 80 requests, so that p50
        # falls in the middle of the 25 coins of n = 16 and p90 in the
        # middle of the six 3 x 3 tables of n = 6, not on the edge between
        # two sizes; two rounds put 16 above p90. The 3 x 3 tables have
        # count spaces (n+1)^9 above kernels.DENSE_SLOT_LIMIT and take the
        # sparse path.
        sizes = [
            ((2, 3), 6, 14), ((2, 2), 8, 14), ((3, 3), 5, 12), ((1, 2), 16, 25),
            ((1, 2), 18, 4), ((3, 3), 6, 6),
        ]
        self.classes = [(fixed(c), 1) for c in BENCH_KERNEL_CASES] + [
            (seeded(shape, n), count) for shape, n, count in sizes
        ]
        self.warm = [{"kind": "enumerate", "p": singlet_table(45.0), "n": 4}]

    def make_round(self, rng) -> list:
        return _expand(self.classes, rng)

    def execute(self, req, tr):
        with tr.span("branchstats.branch_count_distribution"):
            dist = eprsim.branch_count_distribution(req["p"], req["n"], mode="enumerate")
        tr.count("branchstats.count_vectors", len(dist))
        return dist

    def layer(self, req) -> str:
        return "branchstats"

    def check(self, req, dist, rnd) -> str | None:
        return check_distribution(dist, req["p"], req["n"], rnd)


# ---------------------------------------------------------- multinomial


class Multinomial:
    """Multinomial compression (k = 4) and binomial deviation tails."""

    name = "multinomial"

    def __init__(self) -> None:
        def table(rng):
            if rng.random() < 0.5:
                return singlet_table(rng.uniform(20.0, 160.0))
            return random_table(rng, (2, 2))

        def multinomial(n):
            return lambda rng: {"kind": "multinomial", "p": table(rng), "n": n}

        def deviation(n):
            def make(rng):
                p = table(rng)
                pair = (int(rng.integers(2)), int(rng.integers(2)))
                q = float(p[pair])
                eps = float(rng.uniform(1.0, 3.0)) * math.sqrt(q * (1.0 - q) / n)
                return {"kind": "deviation", "p": p, "n": n, "pair": pair, "eps": eps}

            return make

        # A few sizes, each repeated, across the ranges the workload covers,
        # listed fastest first. A round has 51 requests; p50 falls in the
        # middle of the 20 that take 3-4 ms (N = 20 and N = 1e5) and p90 in
        # the middle of the 7 at N = 80, so each is a middle quantile of
        # one size class. The composition generator behind N = 40 and 80
        # is the part most sensitive to the machine's speed, so p50 is kept
        # off it. Interleaved ten-run sets showed a mix graded in steps of
        # N + 1 and x1.25 spreading more across seeds (BASELINE.md).
        self.classes = [
            (deviation(10**4), 15), (multinomial(20), 10), (deviation(10**5), 10),
            (multinomial(40), 3), (deviation(10**6), 4), (multinomial(80), 7),
            (deviation(10**7), 1), (multinomial(150), 1),
        ]
        self.warm = [
            {"kind": "multinomial", "p": singlet_table(45.0), "n": 5},
            {"kind": "deviation", "p": singlet_table(45.0), "n": 100, "pair": (0, 0), "eps": 0.1},
        ]

    def make_round(self, rng) -> list:
        return _expand(self.classes, rng)

    def execute(self, req, tr):
        n = req["n"]
        if req["kind"] == "multinomial":
            with tr.span("branchstats.branch_count_distribution"):
                out = eprsim.branch_count_distribution(req["p"], n)
            tr.count("branchstats.compositions", ref.composition_count(n, req["p"].size))
            return out
        with tr.span("branchstats.deviation_weight"):
            out = eprsim.deviation_weight(req["p"], n, req["pair"], req["eps"])
        tr.count("branchstats.deviation_points", n + 1)
        return out

    def layer(self, req) -> str:
        return "branchstats"

    def check(self, req, out, rnd) -> str | None:
        if req["kind"] == "multinomial":
            return check_distribution(out, req["p"], req["n"], rnd)
        want = ref.deviation_weight(req["n"], float(req["p"][req["pair"]]), req["eps"])
        if not ref.close(out, want, rtol=ref.DEVIATION_RTOL, atol=1e-300):
            return f"deviation weight {out!r}, want {want!r}"
        return None


# ------------------------------------------------------------ branching


def _components(unitaries, kets) -> list[list[complex]]:
    return [ref.overlaps(u.tolist(), k.tolist()) for u, k in zip(unitaries, kets)]


def _compare_tables(got: dict, want: dict) -> str | None:
    for hist, amp in got.items():
        if hist not in want:
            if not ref.near_prune_edge(amp):
                return f"unexpected branch {hist} with amplitude {amp!r}"
        elif abs(amp - want[hist]) > ref.AMPLITUDE_ATOL:
            return f"branch {hist} has amplitude {amp!r}, want {want[hist]!r}"
    for hist, amp in want.items():
        if hist not in got and not ref.near_prune_edge(amp):
            return f"missing branch {hist} with amplitude {amp!r}"
    return None


def _check_basis_blocks(state, unitaries, first: int) -> str | None:
    """Measured particles must sit in the column of their recorded outcome."""
    for br in state.branches:
        outcomes = [label.index for label in br.registers[0]]
        for slots, ket in br.blocks:
            if slots[0] >= first:
                col = unitaries[slots[0] - first][:, outcomes[slots[0] - first]]
                if len(slots) != 1 or np.max(np.abs(ket - col)) > ref.AMPLITUDE_ATOL:
                    return f"particle {slots} is not in its recorded basis ket"
    return None


class Branching:
    """Measurement chains, the full pair experiment and coherent combination."""

    name = "branching"

    def __init__(self) -> None:
        def chain(dim, particles, aligned=()):
            """Measure every particle of a product state in turn; the kets at
            the ``aligned`` positions are basis kets, so their other outcomes
            are pruned."""

            def make(rng):
                us = [random_unitary(rng, dim) for _ in range(particles)]
                kets = [random_ket(rng, dim) for _ in range(particles)]
                for i in aligned:
                    kets[i] = us[i][:, int(rng.integers(dim))].copy()
                return {"kind": "chain", "kets": kets, "unitaries": us}

            return make

        def pair(d):
            def make(rng):
                c = random_ket(rng, d * d).reshape(d, d)
                return {
                    "kind": "run_epr",
                    "coeffs": c,
                    "a": random_unitary(rng, d),
                    "b": random_unitary(rng, d),
                    "far": [random_unitary(rng, d) for _ in range(2)],
                }

            return make

        def combine(variant, particles):
            def make(rng):
                if variant == "blocks":
                    d = int(rng.integers(2, 5))
                    k0, k1 = random_ket(rng, d), random_ket(rng, d)
                    c = random_ket(rng, d * d)
                    a0, b0 = rng.normal(size=2) + 1j * rng.normal(size=2)
                    scale = np.linalg.norm(a0 * np.kron(k0, k1) + b0 * c)
                    return {
                        "kind": "combine",
                        "variant": variant,
                        "kets": [k0, k1],
                        "coeffs": c.reshape(d, d),
                        "alpha": complex(a0 / scale),
                        "beta": complex(b0 / scale),
                    }
                us = [random_unitary(rng, 2) for _ in range(particles)]
                kets_a = [random_ket(rng, 2) for _ in range(particles)]
                if variant == "amplitudes":
                    kets_b = [random_ket(rng, 2) for _ in range(particles)]
                else:  # one block differs: particle 0 stays unmeasured
                    kets_b = list(kets_a)
                    us = us[1:]
                kets_b[0] = orthogonal_ket(rng, kets_a[0])
                angle = float(rng.uniform(0.0, 2.0 * math.pi))
                return {
                    "kind": "combine",
                    "variant": variant,
                    "kets_a": kets_a,
                    "kets_b": kets_b,
                    "unitaries": us,
                    "alpha": 1.0 / math.sqrt(2.0) + 0j,
                    "beta": cmath.exp(1j * angle) / math.sqrt(2.0),
                }

            return make

        # A few sizes, each repeated, listed fastest first. A round has 68
        # requests; p50 falls in the middle of the twenty 2^6 chains and p90
        # in the middle of the nine 2^9 chains, so each is a middle quantile
        # of one size class. Largest chain: 2^11 branches.
        self.classes = [
            (pair(2), 8), (pair(4), 8), (pair(8), 4), (combine("blocks", 2), 4),
            (chain(2, 6), 20),
            (pair(16), 2), (combine("one_block", 6), 2), (chain(2, 8, (0,)), 3),
            (combine("amplitudes", 6), 2), (chain(2, 11, (0, 1, 2)), 1), (chain(3, 6), 2),
            (chain(2, 9), 9),
            (chain(2, 10), 2),
            (chain(2, 11), 1),
        ]
        rng = np.random.default_rng(0)
        self.warm = [chain(2, 3, (0,))(rng), pair(2)(rng), combine("amplitudes", 2)(rng),
                     combine("one_block", 2)(rng), combine("blocks", 2)(rng)]

    def make_round(self, rng) -> list:
        return _expand(self.classes, rng)

    @staticmethod
    def _chain(tr, kets, unitaries, first):
        with tr.span("branching.initial_state"):
            st = eprsim.initial_state(kets, 1)
        for i, u in enumerate(unitaries):
            with tr.span("branching.ObservableBasis"):
                basis = eprsim.ObservableBasis(first + i + 1, u)
            with tr.span("branching.measure"):
                nxt = eprsim.measure(st, first + i, 0, basis)
            tr.count("branching.measure_calls")
            tr.count("branching.parent_slots", len(st.branches) * basis.dim)
            tr.count("branching.branches_out", len(nxt.branches))
            st = nxt
        return st

    def execute(self, req, tr):
        kind = req["kind"]
        if kind == "chain":
            return self._chain(tr, req["kets"], req["unitaries"], 0)
        if kind == "run_epr":
            with tr.span("epr.CoefficientMatrix"):
                coeffs = eprsim.CoefficientMatrix(req["coeffs"])
            with tr.span("branching.ObservableBasis"):
                ba = eprsim.ObservableBasis(1, req["a"])
                bb = eprsim.ObservableBasis(2, req["b"])
                far = [eprsim.ObservableBasis(3 + i, u) for i, u in enumerate(req["far"])]
            with tr.span("epr.run_epr"):
                st = eprsim.run_epr(coeffs, bb, ba)
            d = coeffs.d1
            with tr.span("epr.amplitude_grid"):
                grid = eprsim.amplitude_grid(st, (d, d))
            with tr.span("epr.k_matrix"):
                km = eprsim.k_matrix(coeffs, ba, bb)
            with tr.span("branching.remeasure_consistency"):
                again = eprsim.remeasure_consistency(st, 1, 1, bb)
            with tr.span("epr.no_signaling_report"):
                ns = eprsim.no_signaling_report(coeffs, far)
            return st, grid, km, again, ns
        # combine
        if req["variant"] == "blocks":
            with tr.span("branching.initial_state"):
                sa = eprsim.initial_state(req["kets"], 1)
            with tr.span("branching.from_coefficients"):
                sb = eprsim.from_coefficients(req["coeffs"], 1)
        else:
            first = 1 if req["variant"] == "one_block" else 0
            sa = self._chain(tr, req["kets_a"], req["unitaries"], first)
            sb = self._chain(tr, req["kets_b"], req["unitaries"], first)
        with tr.span("branching.coherent_combine"):
            return eprsim.coherent_combine([(req["alpha"], sa), (req["beta"], sb)])

    def layer(self, req) -> str:
        return "epr" if req["kind"] == "run_epr" else "branching"

    def check(self, req, out, rnd) -> str | None:
        kind = req["kind"]
        if kind == "chain":
            want = ref.chain_amplitudes(_components(req["unitaries"], req["kets"]))
            got = {tuple(l.index for l in br.registers[0]): br.amplitude for br in out.branches}
            return _compare_tables(got, want) or _check_basis_blocks(out, req["unitaries"], 0)
        if kind == "run_epr":
            st, grid, km, again, ns = out
            want = ref.record_amplitudes(req["coeffs"].tolist(), req["a"].tolist(), req["b"].tolist())
            if np.max(np.abs(grid - km.matrix)) > ref.AMPLITUDE_ATOL:
                return "amplitude_grid differs from k_matrix"
            if np.max(np.abs(km.matrix - np.array(want))) > ref.AMPLITUDE_ATOL:
                return "k_matrix differs from A^dagger C conj(B)"
            if len(again.branches) != len(st.branches):
                return "remeasurement changed the branch count"
            if not ns.passed:
                return f"no-signaling spread {ns.max_deviation!r}"
            return None
        alpha, beta = req["alpha"], req["beta"]
        if req["variant"] == "blocks":
            if len(out.branches) != 1:
                return f"{len(out.branches)} branches, want 1"
            br = out.branches[0]
            want = alpha * np.kron(*req["kets"]) + beta * req["coeffs"].reshape(-1)
            if np.max(np.abs(br.amplitude * br.state_vector(out.dims) - want)) > ref.AMPLITUDE_ATOL:
                return "combined state vector is wrong"
            return None
        us = req["unitaries"]
        if req["variant"] == "one_block":
            amps = ref.chain_amplitudes(_components(us, req["kets_a"][1:]))
            mix = alpha * req["kets_a"][0] + beta * req["kets_b"][0]
            got = {tuple(l.index for l in br.registers[0]): br for br in out.branches}
            if set(got) != set(amps):
                return "combined histories differ from the chain's"
            for hist, br in got.items():
                slots, ket = br.blocks[0]
                if slots != (0,) or np.max(np.abs(br.amplitude * ket - amps[hist] * mix)) > ref.AMPLITUDE_ATOL:
                    return f"unmeasured particle of branch {hist} is wrong"
            return _check_basis_blocks(out, us, 1)
        amp_a = ref.chain_amplitudes(_components(us, req["kets_a"]))
        amp_b = ref.chain_amplitudes(_components(us, req["kets_b"]))
        want = {}
        for hist in set(amp_a) | set(amp_b):
            if hist in amp_a and hist in amp_b:
                amp = alpha * amp_a[hist] + beta * amp_b[hist]
                if abs(amp) >= ref.PRUNE_TOL:
                    want[hist] = amp
            else:
                want[hist] = alpha * amp_a[hist] if hist in amp_a else beta * amp_b[hist]
        got = {tuple(l.index for l in br.registers[0]): br.amplitude for br in out.branches}
        return _compare_tables(got, want) or _check_basis_blocks(out, us, 0)


# ------------------------------------------------------------------ cli


def parse_cli(kind: str, fmt: str, text: str):
    """Read one CLI response, JSON or CSV, into plain numbers."""
    if fmt == "json":
        res = json.loads(text)["result"]
        if kind == "probs":
            return res["p"]
        if kind == "kmatrix":
            return [[complex(c["re"], c["im"]) for c in row] for row in res["k"]]
        if kind == "chsh":
            return res["quantum_score"], res["classical_bound"], res["violated"], res["margin"]
        if kind == "branches":
            return [(r["n_pairs"], r["deviation_weight"]) for r in res["rows"]]
        if kind == "nosignal":
            return res["passed"], res["max_deviation"], res["tol"]
        return [t["counts"] for t in res["trials"]]
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if kind == "probs":
        return [[float(x) for x in rows[i][1:3]] for i in range(2)]
    if kind == "kmatrix":
        k = [[0j, 0j], [0j, 0j]]
        for i, j, re, im in rows:
            k[int(i)][int(j)] = complex(float(re), float(im))
        return k
    if kind in ("chsh", "nosignal"):
        vals = {key: value for key, value in rows}
        if kind == "chsh":
            return (float(vals["quantum_score"]), float(vals["classical_bound"]),
                    vals["violated"] == "true", float(vals["margin"]))
        return vals["passed"] == "true", float(vals["max_deviation"]), float(vals["tol"])
    if kind == "branches":
        return [(int(n), float(w)) for n, w in rows]
    return [[[int(r[1]), int(r[2])], [int(r[3]), int(r[4])]] for r in rows]


def check_cli(req, code: int, text: str) -> str | None:
    kind, fmt = req["kind"], req["format"]
    if code != 0:
        return f"exit status {code}"
    got = parse_cli(kind, fmt, text)

    def near(a, b):
        return ref.close(a, b, rtol=ref.CLI_RTOL, atol=ref.CLI_ATOL)

    if kind == "probs":
        want = ref.singlet_table(req["theta"])
        if not all(near(got[i][j], want[i][j]) for i in range(2) for j in range(2)):
            return f"table {got}, want {want}"
        corr = got[0][0] + got[1][1] - got[0][1] - got[1][0]
        if not near(corr, ref.correlation(req["theta"])):
            return f"correlation {corr!r}, want -cos(theta)"
    elif kind == "kmatrix":
        want = ref.singlet_amplitudes(req["theta"])
        if not all(abs(got[i][j] - want[i][j]) <= ref.CLI_ATOL for i in range(2) for j in range(2)):
            return f"amplitudes {got}, want {want}"
    elif kind == "chsh":
        s = ref.chsh(*req["settings"])
        want = (s, 2.0, abs(s) - 2.0 > 1e-12, abs(s) - 2.0)
        score, bound, violated, margin = got
        if req["optimal"] and not near(abs(score), 2.0 * math.sqrt(2.0)):
            return f"optimal |S| = {abs(score)!r}, want 2*sqrt(2)"
        if not (near(score, want[0]) and bound == 2.0 and violated == want[2] and near(margin, want[3])):
            return f"chsh {got}, want {want}"
    elif kind == "branches":
        q = ref.singlet_table(req["theta"])[req["pair"][0]][req["pair"][1]]
        n = req["n"]
        points = sorted({max(1, n // 100), max(1, n // 10), n})
        if [row[0] for row in got] != points:
            return f"rows for N = {[row[0] for row in got]}, want {points}"
        for npairs, w in got:
            want = ref.deviation_weight(npairs, q, req["eps"])
            if not ref.close(w, want, rtol=ref.DEVIATION_RTOL, atol=ref.CLI_ATOL * 1e-3):
                return f"deviation weight at N={npairs} is {w!r}, want {want!r}"
    elif kind == "nosignal":
        passed, spread, tol = got
        if not (passed and spread <= tol):
            return f"no-signaling check failed: {got}"
    else:
        if len(got) != req["trials"]:
            return f"{len(got)} trials, want {req['trials']}"
        for table in got:
            if sum(map(sum, table)) != req["n"] or min(map(min, table)) < 0:
                return f"trial counts {table} do not sum to {req['n']}"
    return None


class Cli:
    """One fresh ``python -m eprsim.cli`` process per request; it finds the
    package through the PYTHONPATH that run.py sets for the worker."""

    name = "cli"

    def __init__(self, root: str) -> None:
        self.root = root

        def make(kind):
            def one(rng, fmt):
                theta = float(rng.uniform(0.0, 360.0))
                req = {"kind": kind, "format": fmt, "theta": theta}
                if kind in ("probs", "kmatrix"):
                    args = ["--theta", repr(theta)]
                elif kind == "chsh_optimal":
                    req.update(kind="chsh", optimal=True, settings=(0.0, 90.0, 45.0, 135.0))
                    args = ["--optimal"]
                elif kind == "chsh":
                    settings = tuple(float(x) for x in rng.uniform(0.0, 360.0, size=4))
                    req.update(optimal=False, settings=settings)
                    args = [x for flag, v in zip(("--a", "--ap", "--b", "--bp"), settings)
                            for x in (flag, repr(v))]
                elif kind == "branches":
                    # json draws n in [1e3, 1e5]; csv runs the largest table, 1e6
                    n = int(10 ** rng.uniform(3.0, 5.0)) if fmt == "json" else 10**6
                    theta = float(rng.uniform(20.0, 160.0))
                    pair = (int(rng.integers(2)), int(rng.integers(2)))
                    q = ref.singlet_table(theta)[pair[0]][pair[1]]
                    eps = float(rng.uniform(1.0, 3.0)) * math.sqrt(q * (1.0 - q) / n)
                    req.update(n=n, theta=theta, pair=pair, eps=eps)
                    args = ["--n", str(n), "--theta", repr(theta), "--epsilon", repr(eps),
                            "--pair", f"{pair[0]},{pair[1]}"]
                elif kind == "nosignal":
                    args = ["--trials", str(int(rng.integers(10, 61))),
                            "--seed", str(int(rng.integers(2**31))),
                            "--dim", str(int(rng.integers(2, 9)))]
                else:  # sample
                    n, trials = int(rng.integers(50, 2001)), int(rng.integers(1, 9))
                    req.update(n=n, trials=trials)
                    args = ["--n", str(n), "--trials", str(trials),
                            "--seed", str(int(rng.integers(2**31))), "--theta", repr(theta)]
                sub = "chsh" if kind == "chsh_optimal" else kind
                req["argv"] = [sub, *args, "--format", fmt]
                return req

            return one

        self.kinds = [make(k) for k in
                      ("probs", "kmatrix", "chsh_optimal", "chsh", "branches", "nosignal", "sample")]
        self.warm = []

    def make_round(self, rng) -> list:
        reqs = [make(rng, fmt) for make in self.kinds for fmt in ("json", "csv")]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def execute(self, req, tr):
        with tr.span("cli.process"):
            proc = subprocess.run(
                [sys.executable, "-m", "eprsim.cli", *req["argv"]],
                capture_output=True, text=True, cwd=self.root, timeout=60,
            )
        return proc.returncode, proc.stdout

    def trace_extra(self, req, tr) -> None:
        """Traced rounds only, after the timed call: the warm in-process
        CLI and the public functions behind it. The cli module is imported
        here, so the other workloads' set-up does not load it."""
        import eprsim.cli

        sink = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(sink):
            eprsim.cli.main(req["argv"])
        kind = req["kind"]
        if kind in ("probs", "kmatrix", "branches", "sample"):
            with tr.span("spin.singlet_joint_probability"):
                eprsim.singlet_joint_probability(req["theta"])
        elif kind == "chsh":
            with tr.span("bell.violation_report"):
                eprsim.violation_report(eprsim.ChshSettings(*req["settings"]))

    def layer(self, req) -> str:
        return "cli"

    def check(self, req, out, rnd) -> str | None:
        return check_cli(req, *out)


def get(name: str, root: str):
    if name == "cli":
        return Cli(root)
    return {"enumerate": Enumerate, "multinomial": Multinomial, "branching": Branching}[name]()
