"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. A smoke pass of every workload at a tiny size must be correct and print
   exactly the end-to-end metrics named in BENCHMARK.json.
2. A traced smoke pass must print exactly the per-layer metrics named there.
3. Checking against a corrupted expected value must fail: ``correct`` false,
   ``failed`` above 0 (so check_fail_frac above 0) and a nonzero exit.
4. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark must exit nonzero without printing a result.

Exits 0 when every item holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_selftest")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT) -> tuple:
    """Run the benchmark command; return (exit code, parsed last line or None)."""
    proc = subprocess.run(SPEC["command"] + ["--seed", "7", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def main() -> int:
    failures = []

    def expect(label, ok):
        print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(label)

    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        name = w["name"]
        rc, res = bench("--workload", name, "--trace", "0", "--size", "smoke")
        expect(f"{name}: smoke pass correct",
               rc == 0 and res is not None and res["correct"] and res["failed"] == 0
               and res["attempted"] > 0)
        expect(f"{name}: end-to-end metric names",
               res is not None and set(res["metrics"]) == end_to_end)
        rc, res = bench("--workload", name, "--trace", "0", "--size", "smoke", "--corrupt")
        expect(f"{name}: corrupted expected value fails",
               rc != 0 and res is not None and not res["correct"] and res["failed"] > 0)
    rc, res = bench("--workload", SPEC["workloads"][0]["name"], "--trace", "1",
                    "--size", "smoke")
    expect("traced smoke pass correct", rc == 0 and res is not None and res["correct"])
    expect("per-layer metric names", res is not None and set(res["metrics"]) == per_layer)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        os.makedirs(SCRATCH)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(SCRATCH, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, res = bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0",
                        cwd=SCRATCH)
        expect("without the program: nonzero exit, no result", rc != 0 and res is None)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
