"""One benchmark process for one workload.

Builds the workload's inputs, then runs whole passes over its operation list
until `--seconds` have elapsed, checking every output outside the timed
intervals.  Prints one JSON line: the end-to-end figures, or with --trace 1
the per-layer figures.  `run.py` starts this file; it is not meant to be run
by hand, but it can be:

    python3 perfbench/worker.py --workload integrate --seed 1 --seconds 5 \
        --trace 0 --spawned-at 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, reference
from tracer import Tracer, expression_counts, refine_iterations

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_gaugekit():
    """Import gaugekit from this checkout's src/, never from elsewhere."""
    if not (SRC / "gaugekit" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'gaugekit'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import gaugekit
    if Path(gaugekit.__file__).resolve().parent != (SRC / "gaugekit").resolve():
        raise SystemExit(f"error: imported gaugekit from {gaugekit.__file__}")


def _run_passes(ops, seconds: float, tracer):
    """Whole passes over `ops` for up to `seconds` (at least one pass): a
    pass starts only if a pass of the mean length so far fits in the time
    left.  Untraced, the reference computation runs after every operation,
    outside its timer, and once before the first.  Each timed sample is
    kept with the index of the reference run just before it."""
    op_times = [[] for _ in ops]
    passes, layers = 0, []
    attempted = failed = 0
    correct = True
    emitted = 0
    start = time.perf_counter()
    refs = [] if tracer else [reference()]
    while True:
        first = passes == 0
        lo = tracer.mark() if tracer else 0
        for i, op in enumerate(ops):
            problems = None
            if tracer:
                tracer.enabled = True
            try:
                dt, out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                problems = [f"raised {exc!r}"]
            finally:
                if tracer:
                    tracer.enabled = False
            if problems is None:
                op_times[i].append((dt, len(refs) - 1))
                problems = op.check(out)
                if first:
                    emitted += op.emitted(out)
            if not tracer:
                refs.append(reference())
            attempted += 1
            if problems:
                failed += 1
                if not op.known_fault:
                    correct = False
                    print(f"{op.name}: " + "; ".join(problems), file=sys.stderr)
        passes += 1
        if tracer:
            closed_forms, certificates = tracer.take_outputs()
            layer = tracer.pass_metrics(lo, tracer.mark())
            layer["identify.refine_iterations"] = refine_iterations(certificates)
            if first:
                layer.update(expression_counts(closed_forms))
            layers.append(layer)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    return {"op_times": op_times, "passes": passes, "layers": layers,
            "attempted": attempted, "failed": failed, "correct": correct,
            "emitted": emitted, "refs": refs}


def _end_to_end(res, setup_s: float) -> tuple:
    """The end-to-end figures, with times in seconds at the reference speed
    (see reference.py), and the run's factor, which scales the set-up time."""
    refs = res["refs"]

    def scaled(dt: float, k: int) -> float:
        # the 6 reference runs nearest the sample, 3 before and 3 after: the
        # host's speed drifts within a run, and one reference run is noisy
        return dt * REFERENCE_S / statistics.median(refs[max(0, k - 2):k + 4])

    # per-operation medians over the passes: a slow stretch of the host
    # spoils a few samples of a few operations, not a whole pass
    op_medians = [statistics.median(scaled(dt, k) for dt, k in samples)
                  for samples in res["op_times"] if samples]
    scale = REFERENCE_S / statistics.median(refs)
    metrics = {
        "throughput_ops_s": len(op_medians) / sum(op_medians),
        "latency_p50_s": statistics.median(op_medians),
        "setup_s": scale * setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "emitted_kb": res["emitted"] / 1000.0,
    }
    return metrics, scale


def _per_layer(res) -> dict:
    """Counts from the first pass (they repeat exactly); times are medians."""
    first = res["layers"][0]
    out = {}
    for key, value in first.items():
        if isinstance(value, int):
            out[key] = value
        else:
            out[key] = statistics.median(layer[key] for layer in res["layers"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are built and report the set-up time")
    args = ap.parse_args(argv)

    _import_gaugekit()
    import workloads

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        res = _run_passes(ops, args.seconds, tracer)
        scale = 1.0
        if tracer:
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{args.workload}.npz")
            metrics = _per_layer(res)
        else:
            metrics, scale = _end_to_end(res, setup_s)
        print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "passes": res["passes"],
                          "scale": scale, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
