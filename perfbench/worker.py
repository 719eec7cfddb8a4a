"""One workload pass in a fresh interpreter; started by run.py.

Usage: worker.py --root DIR --result FILE [--setup-only]
                 [--workload NAME --scale SCALE --seed N --trace 0|1]

Reports through FILE: the monotonic time at which ``import ccpsd,
ccpsd.cli`` returned (run.py took the time before starting this process),
then the pass's wall time (without the reference kernel's, see speed.py),
the mean reference time, the wall time scaled to the reference speed, the
time the pass took in all, check outcomes, peak RSS and, when traced, the
per-layer times and counters.
"""

import time

# Set-up time ends when these return; only `time` is imported before them.
import ccpsd
import ccpsd.cli

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--scale", default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--run-id", default="")
    args = p.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(ccpsd.__file__).startswith(src + os.sep):
        sys.exit(f"ccpsd imported from {ccpsd.__file__}, not from {src}")
    result = {"imported": IMPORTED}
    if not args.setup_only:
        result.update(run_pass(args))
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def run_pass(args):
    tracer = tracing.Tracer(args.run_id).install() if args.trace else None
    workdir = os.path.splitext(args.result)[0] + ".work"
    os.makedirs(workdir)
    try:
        start = time.perf_counter()
        clock = speed.Clock()
        rec = workloads.run(args.workload, args.scale, args.seed, workdir, clock)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall, ref, scaled = clock.result()
    out = {
        "wall_s": wall,
        "ref_s": ref,
        "scaled_s": scaled,
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": rec.checks,
        "deviations": rec.deviations,
        "cli_bytes": rec.cli_bytes,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer is not None:
        spans_file = os.path.join(os.path.dirname(args.result),
                                  f"spans-{args.run_id}.jsonl")
        tracer.write_spans(spans_file)
        out.update({
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "failures": tracer.failures,
            "counters": tracer.counters,
            "layer_calls": {layer: tracer.layer_calls(layer)
                            for layer in tracing.LAYERS},
            "spans": len(tracer.spans),
            "spans_file": spans_file,
            "exact_counters": {name: tracer.counters.get(name, 0)
                               for name in workloads.EXACT_COUNTERS},
            "coverage_errors": coverage_errors(args.workload, tracer),
        })
    return out


def coverage_errors(workload, tracer):
    """Layers and exact counters that stayed at zero where they must not."""
    errors = [f"layer {layer} recorded no call on {workload}: missed binding?"
              for layer in tracing.LAYERS
              if layer in workloads.USES[workload]
              and not tracer.layer_calls(layer)]
    errors += [f"exact counter {name} is 0 on {workload}"
               for name, users in workloads.EXACT_COUNTERS.items()
               if workload in users and not tracer.counters.get(name)]
    return errors


if __name__ == "__main__":
    main()
