"""eprsim benchmark: one workload, end-to-end metrics or per-layer trace.

    python3 perfbench/run.py --workload {cli,enumerate,multinomial,branching}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the package is used from ``src/`` as is.
Every request is checked against an independent reference; any failure
makes the command exit 1. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
ones. Time metrics are scaled to a fixed reference machine speed, as
measured by the probe in ``speed.py`` next to every request and worker
start. See BASELINE.md next to this file for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import PROBE_REF_MS, at_reference_speed, speed_probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli", "enumerate", "multinomial", "branching")
SETUPS = 15  # worker starts per run; setup_s is their median
WAIT_S = 170.0
NPROC = len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PERFBENCH_NPROC"] = str(NPROC)
    # one BLAS thread: the load is a single client, well under nproc
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, trace_file: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time, or raise. The
    time is scaled to the reference speed by speed probes taken just
    before and just after the start."""
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--root", ROOT, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-file", trace_file,
    ]
    before = speed_probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=worker_env())
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed to start")
    return proc, setup * PROBE_REF_MS / statistics.mean((before, speed_probe()))


def run_worker(args) -> tuple[dict, list[float]]:
    """Start the worker SETUPS times; the middle start runs the load, so
    the set-up samples lie on both sides of it, spread over the run."""
    trace_file = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    starts, load = (1, 0) if args.trace else (SETUPS, SETUPS // 2)
    setups = []
    for i in range(starts):
        proc, setup = start_worker(args, trace_file)
        setups.append(setup)
        try:
            out, _ = proc.communicate("go\n" if i == load else "exit\n", timeout=WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker did not finish in time") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with status {proc.returncode}")
        if i == load:
            result = out
    if not result.strip():
        raise RuntimeError("worker printed no result")
    return json.loads(result.strip().splitlines()[-1]), setups


def latency_metrics(lat: list[float]) -> dict:
    return {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8], "ms"),
        "throughput_rps": (len(lat) / (sum(lat) / 1e3), "1/s"),
    }


def end_to_end(res: dict, setups: list[float], scaled: list[float]) -> dict:
    attempted, failed = res["attempted"], res["failed"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        **latency_metrics(scaled),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "eprsim", "__init__.py")):
        print(f"no eprsim sources under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2
    # Workers and the CLI processes they start inherit this one CPU, so the
    # speed probes measure the CPU that the requests run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        res, setups = run_worker(args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    lat = res["latencies_ms"]
    meta = res["meta"]
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {attempted} requests checked, "
          f"{failed} failed; {len(lat)} timed untraced in {res['rounds']} rounds")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in res["per_layer"].items()}
        print(f"traced rounds: {res['traced_rounds']}; spans in perfbench/out/")
    else:
        scaled = at_reference_speed(lat, res["probes_ms"])
        metrics = end_to_end(res, setups, scaled)
        p90 = metrics["latency_p90_ms"][0]
        print(f"samples: {len(lat)}, {sum(x > p90 for x in scaled)} above p90")
        print(f"speed probe: median {statistics.median(res['probes_ms']):.4g} ms, "
              f"{PROBE_REF_MS} ms at the reference speed; unscaled wall-clock figures:")
        for name, (value, unit) in latency_metrics(lat).items():
            print(f"  wall {name:<27} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'error_rate':<32} {failed / attempted:.6g} ratio (1 - success_rate)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
