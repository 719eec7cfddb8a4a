"""ccpsd benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {paper,exact_scale,crosscheck}
        [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]

Each pass of the workload runs in a fresh worker interpreter with BLAS
threads set to 1, so a run uses one core and pays the program's cold caches
on every pass, as a CLI invocation does.  With ``--trace 0`` passes repeat
until ``--seconds`` would be exceeded and the end-to-end metrics are
printed: ``setup_s`` (worker start until ``import ccpsd, ccpsd.cli``
returns; median over at least MIN_SETUP_SAMPLES starts, scaled by the
passes' median reference time), ``wall_s`` (mean pass time, each pass
scaled to the reference speed of speed.py; the raw mean, median and tail
are printed beside it), ``peak_rss_mb`` (median of the workers'
``ru_maxrss``).  The mean, not the median: a shared host can switch between
a fast and a slow state for tens of seconds at a time, and the median of a
run's passes then jumps between the two while the mean moves with the
share of time spent in each.
With ``--trace 1`` one untraced pass is followed by traced passes, and the
per-layer metrics are printed.  Check outcomes, failed checks by family and
route, and the software environment are printed on the lines before the
result; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts failed checks that are not
recorded known failures of exact routes (see ``workloads.KNOWN_FAILURES``)
and not Monte-Carlo misses; ``fail_ratio`` counts every failed check.
A full report goes to ``.perfbench/report-<workload>-seed<n>-trace<t>.json``
and the spans of traced passes to ``.perfbench/spans-*.jsonl``.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from speed import REF_S
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_SETUP_SAMPLES = 11
MIN_TRACED_PASSES = 2
WORKLOADS = ("paper", "exact_scale", "crosscheck")


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.env = worker_env()
        self.setup = []  # seconds from worker start to ccpsd imported
        self.n = 0

    def spawn(self, setup_only=False, trace=0):
        self.n += 1
        result = os.path.join(OUT, f"pass-{os.getpid()}-{self.n}.json")
        run_id = f"{self.args.workload}-s{self.args.seed}-p{self.n}"
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", ROOT, "--result", result]
        if setup_only:
            cmd.append("--setup-only")
        else:
            cmd += ["--workload", self.args.workload, "--scale", self.args.scale,
                    "--seed", str(self.args.seed), "--trace", str(trace),
                    "--run-id", run_id]
        budget = RUN_LIMIT_S - (time.monotonic() - self.start)
        if budget <= 1:
            raise BenchError("time limit reached before the run finished")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=budget,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {RUN_LIMIT_S} s run limit")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             + (proc.stderr or proc.stdout)[-2000:])
        with open(result) as fh:
            out = json.load(fh)
        os.remove(result)
        self.setup.append(out["imported"] - t0)
        out["trace"] = trace
        return out

    def elapsed(self):
        return time.monotonic() - self.start

    def passes(self):
        """Untraced passes until the next one would overrun --seconds."""
        runs = [self.spawn()]
        while self.elapsed() + runs[-1]["elapsed_s"] <= self.args.seconds:
            runs.append(self.spawn())
        while len(self.setup) < MIN_SETUP_SAMPLES:
            self.spawn(setup_only=True)
        return runs

    def traced_passes(self):
        """One untraced pass, then traced passes: two, unless the second
        would put the run at risk of its time limit, and more while they
        fit in --seconds."""
        runs = [self.spawn(), self.spawn(trace=1)]
        while (len(runs) < 1 + MIN_TRACED_PASSES
               or self.elapsed() + runs[-1]["elapsed_s"] <= self.args.seconds):
            if self.elapsed() + 1.5 * runs[-1]["elapsed_s"] > RUN_LIMIT_S - 10:
                break
            runs.append(self.spawn(trace=1))
        return runs


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (1 - 10 / n))
    rank = max(1, math.ceil(p / 100 * n))
    return p, sorted(values)[rank - 1]


def per_layer(traced, untraced):
    """Per-layer metrics: times are medians over traced passes, counts exact."""
    first = traced[0]
    counters, calls, failures = first["counters"], first["calls"], first["failures"]

    def med(get):
        return statistics.median(get(p) for p in traced)

    def count(name, unit="count"):
        return counters.get(name, 0), unit

    m = {f"{layer}.self_s": (med(lambda p, l=layer: p["self_s"][l]), "s")
         for layer in LAYERS}
    m.update({
        "ratfn.evaluate_s": (med(lambda p: p["counters"]["ratfn.evaluate_s"]), "s"),
        "ratfn.evaluate_calls": count("ratfn.evaluate_calls"),
        "ratfn.new_calls": count("ratfn.new_calls"),
        "spectrum.points": count("spectrum.points"),
        "spectrum.stationary_calls": (calls["spectrum.stationary_distribution"], "count"),
        "codebook.enumerate_calls": (calls["codebook.enumerate_codebook"], "count"),
        "codebook.words_enumerated": count("codebook.words_enumerated"),
        "codebook.cardinality_calls": (calls["codebook.group_cardinalities"], "count"),
        "cyclo.autocorr_calls": (calls["cyclo.exact_autocorr"], "count"),
        "cyclo.bridge_bytes": count("cyclo.bridge_bytes", "bytes"),
        "fstd.states_raw": count("fstd.states_raw"),
        "fstd.states_merged": count("fstd.states_merged"),
        "fstd.ostd_states": count("fstd.ostd_states"),
        "transfer.matrices": count("transfer.matrices"),
        "transfer.order_max": count("transfer.order_max"),
        "clocked.bfs_calls": (calls["clocked.bfs_ostd"], "count"),
        "clocked.bfs_failed": (failures.get("clocked.bfs_ostd", 0), "count"),
        "oracle.symbols": count("oracle.symbols"),
        "oracle.lag_products": count("oracle.lag_products"),
        "cli.bytes_written": (first["cli_bytes"], "bytes"),
        "trace_overhead": (statistics.fmean(p["scaled_s"] for p in traced)
                           / statistics.fmean(p["scaled_s"] for p in untraced),
                           "ratio"),
    })
    return m


def check_summary(runs):
    """Check outcomes, which must be the same on every pass of the run."""
    outcomes = [[(c["id"], c["ok"]) for c in r["checks"]] for r in runs]
    problems = []
    if any(o != outcomes[0] for o in outcomes):
        problems.append("check outcomes differ between passes")
    checks = runs[0]["checks"]
    bad = [c for c in checks if not c["ok"]]
    unexpected = [c for c in bad if c["kind"] == "exact" and not c["known"]]
    return checks, bad, unexpected, problems


def trace_problems(traced):
    """Wrappers that never fired, and exact counters that did not repeat."""
    problems = []
    for p in traced:
        problems += p["coverage_errors"]
    first = traced[0]["exact_counters"]
    if any(p["exact_counters"] != first for p in traced):
        problems.append("exact counters differ between traced passes: "
                        + json.dumps([p["exact_counters"] for p in traced]))
    return sorted(set(problems))


def report(args, runs, runner):
    untraced = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    checks, bad, unexpected, problems = check_summary(runs)
    if traced:
        problems += trace_problems(traced)
    walls = [r["wall_s"] for r in untraced]
    env = runs[0]["env"]
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
             f"  scale {args.scale}  passes {len(untraced)} untraced,"
             f" {len(traced)} traced",
             f"environment: python {env['python']}, numpy {env['numpy']},"
             f" nproc {env['nproc']}, BLAS threads {env['blas_threads']}"]
    if args.trace:
        metrics = per_layer(traced, untraced)
        metrics["checks_attempted"] = (len(checks), "count")
        metrics["checks_failed"] = (len(bad), "count")
        metrics["fail_ratio"] = (len(bad) / len(checks), "ratio")
        lines.append(f"spans: {traced[0]['spans']} per traced pass,"
                     f" written to {traced[0]['spans_file']}")
        if len(traced) < MIN_TRACED_PASSES:
            lines.append("note: one traced pass fitted in the time limit;"
                         " exact counters not compared between passes")
    else:
        ref = statistics.median(r["ref_s"] for r in untraced)
        setup_raw = statistics.median(runner.setup)
        metrics = {
            "setup_s": (setup_raw * REF_S / ref, "s"),
            "wall_s": (statistics.fmean(r["scaled_s"] for r in untraced), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced),
                            "MB"),
        }
        tail = tail_percentile(walls)
        lines.append(f"wall_s: mean {metrics['wall_s'][0]:.4f} s at reference"
                     f" speed over {len(walls)} passes; raw: mean"
                     f" {statistics.fmean(walls):.4f} s, median"
                     f" {statistics.median(walls):.4f} s, " + (
                         f"p{tail[0]} {tail[1]:.4f} s" if tail else
                         "no percentile has ten samples beyond it"))
        lines.append(f"setup_s: median of {len(runner.setup)} worker starts"
                     f" scaled by the passes' median reference time; raw"
                     f" {setup_raw:.4f} s")
        lines.append(f"reference kernel: median over passes {ref:.4f} s"
                     f" (REF_S {REF_S} s)")
    known = sum(1 for c in bad if c["known"])
    statistical = sum(1 for c in bad if c["kind"] == "statistical")
    lines.append(f"fail_ratio: {len(bad)}/{len(checks)} = "
                 f"{len(bad) / len(checks):.4f} ({known} known, {statistical}"
                 f" Monte-Carlo, {len(unexpected)} unexpected)")
    for c in bad:
        tag = ("known" if c["known"] else
               "monte-carlo" if c["kind"] == "statistical" else "UNEXPECTED")
        lines.append(f"  failed {c['id']:28s} {tag:11s} {c['detail']}")
    for c in checks:
        if c["known"] and c["ok"]:
            lines.append(f"  fixed  {c['id']} (listed as a known failure)")
    for d in runs[0]["deviations"]:
        lines.append(f"  known deviation {d['id']}: {d['deviation']}"
                     f" (stream seed {d['seed']})")
    for problem in problems:
        lines.append(f"PROBLEM: {problem}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:28s} {value:.6g} {unit}")

    result = {
        "correct": not unexpected and not problems,
        "attempted": len(checks) * len(runs),
        "failed": len(unexpected) * len(runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(
        OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "lines": lines, "result": result,
                   "setup_s": runner.setup, "passes": runs}, fh, indent=1)
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ccpsd", "__init__.py")):
        print(f"error: no ccpsd sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args)
    try:
        runs = runner.traced_passes() if args.trace else runner.passes()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(OUT):
            if name.startswith(f"pass-{os.getpid()}-"):
                path = os.path.join(OUT, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    lines, result = report(args, runs, runner)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
