"""Smoke test of the benchmark itself, at reduced size.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --scale smoke`` untraced and traced, and
fails unless: each run ends with a correct result whose metric names are
exactly the ``end_to_end`` (untraced) or ``per_layer`` (traced) names of
BENCHMARK.json, with their units; every check of the workload ran; and the
traced and untraced runs gave the same check outcomes.  It then runs
``run.py`` in a directory holding only BENCHMARK.json and the benchmark's
files, where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Checks per workload at smoke scale; a check that silently stops running
# changes these.
SMOKE_CHECKS = {"paper": 3, "exact_scale": 10, "crosscheck": 120}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def outcomes(workload, trace):
    path = os.path.join(ROOT, ".perfbench",
                        f"report-{workload}-seed0-trace{trace}.json")
    with open(path) as fh:
        passes = json.load(fh)["passes"]
    return [[(c["id"], c["ok"]) for c in p["checks"]] for p in passes]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in SMOKE_CHECKS:
        seen = {}
        for trace in (0, 1):
            proc = run(workload, trace)
            tag = f"{workload} trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{tag}: metrics {sorted(got)} != {sorted(want[trace])}")
            if not result["correct"]:
                errors.append(f"{tag}: result not correct")
            seen[trace] = outcomes(workload, trace)
            for passed in seen[trace]:
                if len(passed) != SMOKE_CHECKS[workload]:
                    errors.append(f"{tag}: {len(passed)} checks ran, "
                                  f"expected {SMOKE_CHECKS[workload]}")
        if len(seen) == 2 and seen[0][0] != seen[1][-1]:
            errors.append(f"{workload}: traced and untraced outcomes differ")

    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("paper", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("run.py without the ccpsd sources did not fail cleanly")
    finally:
        shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("smoke:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
