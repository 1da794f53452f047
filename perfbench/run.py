"""Benchmark of gaugekit's transform -> identify -> certify pipeline.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Each workload runs in its own single-threaded worker process (worker.py),
which repeats the workload's fixed operation list in whole passes and
reports medians over the passes.  With --trace 0 the last line of output
holds the end-to-end metrics, with times in seconds at a fixed host speed
(reference.py); the set-up time is the median over several fresh worker
processes that import gaugekit and build the inputs.  With --trace 1 a
traced worker reports the per-layer metrics instead, in raw seconds.  See
README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_PROBES = 8        # extra processes that only set up, for setup_s
DEADLINE_S = 170.0      # the whole run, worker processes included


def _worker_env() -> dict:
    env = dict(os.environ)
    # one thread per process: pin BLAS and OpenMP pools before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=_worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probes(common: list, count: int, deadline: float) -> list:
    return [_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(count)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gaugekit pipeline benchmark")
    spec = json.loads(SPEC.read_text())
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # half the set-up probes run before the measuring process and half
        # after it: the host's speed drifts over tens of seconds, and probes
        # run back to back would all see one stretch of it
        setups = []
        if not args.trace:
            setups += _setup_probes(common, SETUP_PROBES // 2, deadline)
        res = _worker(common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], deadline)
        if not args.trace:
            setups += _setup_probes(common, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = res["metrics"]
    if not args.trace:
        # the probes ran just before and after the measuring process, so
        # its reference time scales their set-up times too
        metrics["setup_s"] = statistics.median([res["scale"] * s for s in setups]
                                               + [metrics["setup_s"]])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {res['passes']} passes, {res['attempted']} operations, "
          f"{res['failed']} failed; the run's reference factor is {res['scale']:.4f}",
          file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
