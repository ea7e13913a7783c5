"""Worker process: one client running one workload in a closed loop.

Started by ``run.py``. It imports eprsim, makes one small untimed call
per request kind, prints ``ready`` and waits. On ``exit`` it stops (that
start only measured set-up time); on ``go`` it draws the seeded rounds,
times each request, checks it outside the timed interval, and prints
one JSON line with the raw results. Before each request it times the
speed probe (``speed.py``), outside the timed interval.

With ``--trace 1`` every round is run twice in the same process, first
untraced and then traced, on the same generated inputs; the tracing
overhead is the difference between the two halves in p50, p90 and
throughput, each at the reference speed. Per-layer totals are reported
per traced round.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import eprsim
import workloads
from speed import at_reference_speed, speed_probe
from tracing import Tracer

MAX_WALL_S = 150.0  # a run that overruns this is abandoned as failed
MIN_ROUNDS = 2  # enough samples for p90; in traced runs, one round of each kind
LAYERS = ("cli", "spin", "bell", "epr", "branching", "branchstats", "kernels")


def metadata() -> dict:
    backend = getattr(eprsim.kernels, "backend", None)
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "backend": backend() if callable(backend) else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "eprsim": eprsim.__version__,
        "nproc": os.environ.get("PERFBENCH_NPROC"),
    }


def _median_wall(argv, cwd, repeats=3) -> tuple[float, list[str]]:
    walls, errs = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=60)
        walls.append(time.perf_counter() - t0)
        errs.append(proc.stderr)
    return statistics.median(walls), errs


def import_times(root: str) -> dict:
    """Interpreter start and import cost, from fresh processes."""
    interp, _ = _median_wall([sys.executable, "-c", "pass"], root)
    _, logs = _median_wall([sys.executable, "-X", "importtime", "-c", "import eprsim"], root)
    samples = {"eprsim": [], "numpy": [], "scipy": []}
    line_re = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)")
    for log in logs:
        rows = [(len(m.group(2)), m.group(3), int(m.group(1)))
                for m in map(line_re.match, log.splitlines()) if m]
        for top in samples:
            mine = [r for r in rows if r[1] == top or r[1].startswith(top + ".")]
            depth = min((r[0] for r in mine), default=None)
            samples[top].append(sum(r[2] for r in mine if r[0] == depth) * 1e-6)
    return {
        "cli.interpreter_s": interp,
        "cli.import_s": statistics.median(samples["eprsim"]),
        "cli.import_numpy_s": statistics.median(samples["numpy"]),
        "cli.import_scipy_s": statistics.median(samples["scipy"]),
    }


class KernelProbe:
    """Wraps kernels.sequence_count_weights in a span while installed."""

    def __init__(self, tracer: Tracer) -> None:
        self.module = eprsim.kernels
        self.inner = eprsim.kernels.sequence_count_weights

        def traced(p, n, *args, **kwargs):
            with tracer.span("kernels.sequence_count_weights"):
                out = self.inner(p, n, *args, **kwargs)
            tracer.count("kernels.sequences", np.asarray(p).size ** int(n))
            return out

        self.traced = traced

    def install(self) -> None:
        self.module.sequence_count_weights = self.traced

    def remove(self) -> None:
        self.module.sequence_count_weights = self.inner


def per_layer(tr: Tracer, rounds: int, halves: dict, root: str) -> dict:
    c = tr.counts
    busy = {name: tr.busy(name) / rounds for name in {s["name"] for s in tr.spans}}

    def b(name):
        return busy.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    kernel_s = b("kernels.sequence_count_weights")
    measure_s = b("branching.measure")
    parents = {s["parent"] for s in tr.spans if s["name"] == "kernels.sequence_count_weights"}
    enumerate_s = sum(
        s["end"] - s["start"] for s in tr.spans
        if s["name"] == "branchstats.branch_count_distribution" and s["id"] in parents
    ) / rounds
    out = {
        "kernels.busy_s": kernel_s,
        "kernels.sequences": c["kernels.sequences"] / rounds,
        "kernels.sequences_per_s": ratio(c["kernels.sequences"] / rounds, kernel_s),
        "branchstats.enumerate_self_s": enumerate_s - kernel_s,
        "branchstats.count_vectors": c["branchstats.count_vectors"] / rounds,
        "branchstats.multinomial_s": b("branchstats.branch_count_distribution") - enumerate_s,
        "branchstats.compositions": c["branchstats.compositions"] / rounds,
        "branchstats.deviation_s": b("branchstats.deviation_weight"),
        "branchstats.deviation_points": c["branchstats.deviation_points"] / rounds,
        "branching.measure_s": measure_s,
        "branching.measure_calls": c["branching.measure_calls"] / rounds,
        "branching.branches_out": c["branching.branches_out"] / rounds,
        "branching.branches_per_s": ratio(c["branching.branches_out"] / rounds, measure_s),
        "branching.kept_ratio": ratio(c["branching.branches_out"], c["branching.parent_slots"]),
        "branching.remeasure_s": b("branching.remeasure_consistency"),
        "branching.combine_s": b("branching.coherent_combine"),
        "branching.construct_s": b("branching.initial_state") + b("branching.from_coefficients"),
        "epr.run_epr_s": b("epr.run_epr"),
        "epr.k_matrix_s": b("epr.k_matrix"),
        "epr.no_signaling_s": b("epr.no_signaling_report"),
        "cli.main_s": b("cli.main"),
        "spin.joint_probability_s": b("spin.singlet_joint_probability"),
        "bell.violation_report_s": b("bell.violation_report"),
    }
    out.update(import_times(root))
    selfs = tr.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0) / rounds
        out[f"{layer}.errors"] = c[f"{layer}.errors"]
    for tag, lat in halves.items():
        out[f"trace.{tag}_p50_ms"] = statistics.median(lat)
        out[f"trace.{tag}_p90_ms"] = statistics.quantiles(lat, n=10, method="inclusive")[8]
        out[f"trace.{tag}_rps"] = len(lat) / (sum(lat) / 1e3)
    for stat in ("p50_ms", "p90_ms"):
        out[f"trace.overhead_{stat}"] = out[f"trace.traced_{stat}"] - out[f"trace.untraced_{stat}"]
    out["trace.overhead_rps"] = out["trace.untraced_rps"] - out["trace.traced_rps"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-file", required=True)
    args = ap.parse_args()
    started = time.perf_counter()

    wl = workloads.get(args.workload, args.root)
    off = Tracer()
    for req in wl.warm:
        wl.execute(req, off)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tr = Tracer()
    kernel_probe = KernelProbe(tr)
    rnd = random.Random(args.seed)
    untraced: list[float] = []
    traced: list[float] = []
    probes: dict[bool, list[float]] = {False: [], True: []}
    timed = {False: 0.0, True: 0.0}
    rounds = {False: 0, True: 0}
    attempted = failed = 0
    request_id = 0
    while True:
        # a traced run replays each untraced round's inputs in a traced round
        tracing = bool(args.trace) and rounds[False] > rounds[True]
        reqs = wl.make_round(np.random.default_rng([args.seed, rounds[False] - tracing]))
        tr.enabled = tracing
        if tracing:
            kernel_probe.install()
        for req in reqs:
            tr.request = request_id
            request_id += 1
            attempted += 1
            probes[tracing].append(speed_probe())
            # a failed request is counted, not fatal
            t0 = time.perf_counter()
            try:
                out = wl.execute(req, tr if tracing else off)
                problem = None
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if problem is None:
                try:
                    if tracing and hasattr(wl, "trace_extra"):
                        wl.trace_extra(req, tr)
                    problem = wl.check(req, out, rnd)
                except Exception as exc:
                    problem = f"{type(exc).__name__}: {exc}"
            (traced if tracing else untraced).append(dt * 1e3)
            timed[tracing] += dt
            if problem is not None:
                failed += 1
                tr.error(wl.layer(req))
                if failed <= 5:
                    print(f"{args.workload} {req['kind']}: {problem}", file=sys.stderr)
        kernel_probe.remove()
        tr.enabled = False
        rounds[tracing] += 1
        if time.perf_counter() - started > MAX_WALL_S:
            print(f"{args.workload}: run exceeded {MAX_WALL_S} s", file=sys.stderr)
            failed = max(failed, 1)
            break
        # stop at the round boundary closest to the requested measuring time
        done = sum(rounds.values())
        spent = timed[False] + timed[True]
        if done < MIN_ROUNDS or tracing != bool(args.trace):
            continue  # a traced run ends on a traced round, after its untraced twin
        if abs(spent - args.seconds) <= abs(spent + spent / done - args.seconds):
            break

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "latencies_ms": untraced,
        "probes_ms": probes[False],
        "rounds": rounds[False],
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
        "meta": metadata(),
    }
    if args.trace:
        halves = {"untraced": at_reference_speed(untraced, probes[False]),
                  "traced": at_reference_speed(traced, probes[True])}
        result["per_layer"] = per_layer(tr, rounds[True], halves, args.root)
        result["traced_rounds"] = rounds[True]
        os.makedirs(os.path.dirname(args.trace_file), exist_ok=True)
        tr.write(args.trace_file, meta=result["meta"], per_layer=result["per_layer"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
