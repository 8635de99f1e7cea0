"""linkcensus benchmark: end-to-end metrics, or a traced per-layer run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload crosscheck-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload, each iteration in a fresh interpreter,
until ``--seconds`` have passed (at least once), and reports the mean over
the iterations of ``wall_s`` and ``cpu_s`` and the medians of
``peak_rss_mb`` and ``setup_s``.  ``--trace 1`` runs
the workload once untraced at the benchmark's worker count, then traced at
that count and at one worker, and reports the per-layer metrics.  Every
output is checked against ``expected.json``; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--size smoke`` and ``--corrupt`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MIN_ITERATIONS = 1
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # start no iteration that would likely end past this
ORACLE_MODES = ("closed_all", "closed_planar", "leg2", "gamma", "mixed")
SERIES_KERNELS = ("mul", "div", "sqrt_series", "compose", "newton_solve")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workers: int, seed: int) -> dict:
    versions = {}
    for pkg in ("sympy", "mpmath", "numpy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": nproc(), "workers": workers, "seed": seed, "commit": git_commit(),
            "python": platform.python_version(), **versions}


def run_child(args: list):
    """Run child.py in a fresh interpreter; return its record, or None if it failed.

    ``setup_s`` is added to the record: launch to the end of the import.  The
    child gets its own process group, so a timeout also ends the pool
    workers it forked.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("LINKCENSUS_THREADS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"child timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    except BaseException:  # interrupted: leave no child or pool worker behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"child exited {proc.returncode}\n{err[-2000:]}")
        return None
    record = json.loads(lines[-1])
    record["setup_s"] = record["imported"] - spawned
    return record


def run_iteration(plan: dict, trace: bool) -> tuple:
    """One pass over the workload's calls: (record or None, per-call results)."""
    record = run_child([json.dumps(plan["argv"])] + (["--trace"] if trace else []))
    if record is None:
        return None, [None] * len(plan["argv"])
    return record, record["results"]


def check_outputs(workload, plan, results, expected, tally: dict) -> None:
    for label, ok in workload.check(plan, results, expected):
        tally["attempted"] += 1
        if not ok:
            tally["failed"] += 1
            if len(tally["failures"]) < 10:
                tally["failures"].append(label)


def spread(values: list) -> dict:
    """Mean, median, quartiles and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0] if values else 0.0
    return {"mean": statistics.fmean(values) if values else 0.0,
            "median": statistics.median(values) if values else 0.0,
            "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, plan, seconds: int, expected, tally) -> dict:
    """End-to-end samples: repeat the workload for ``seconds``.

    Every iteration also gives a set-up sample; import-only launches top the
    set-up samples up to ``SETUP_SAMPLES``.
    """
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    run_child(["--setup-only"])  # writes bytecode caches; not counted
    start = time.monotonic()
    iterations, last = 0, 0.0
    while iterations < MIN_ITERATIONS or (
            time.monotonic() - start < seconds
            and time.monotonic() - start + last < RUN_BUDGET_S):
        began = time.monotonic()
        record, results = run_iteration(plan, trace=False)
        last = time.monotonic() - began
        iterations += 1
        check_outputs(workload, plan, results, expected, tally)
        if record is not None:
            for key in samples:
                samples[key].append(record[key])
    for _ in range(SETUP_SAMPLES - len(samples["setup_s"])):
        record = run_child(["--setup-only"])
        if record is not None:
            samples["setup_s"].append(record["setup_s"])
    return {key: spread(values) for key, values in samples.items()}


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# The host switches between a fast and a slow state lasting seconds, and a
# run catches a different mix of them each time.  Over the few iterations of
# a run, the median of a timing jumps between the two states as the mix
# changes, while the mean moves in proportion to it.
ESTIMATOR = {"wall_s": "mean", "cpu_s": "mean", "peak_rss_mb": "median", "setup_s": "median"}


def layer_metrics(t2: dict, t1: dict, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics from the traces at the benchmark's worker count (t2) and one worker (t1)."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def span(trace, name, field):
        rec = trace["spans"].get(name)
        return (rec[field] or 0.0) if rec else 0.0

    zero = {"calls": 0, "self_s": 0.0, "gluings": 0, "worker_cpu_s": 0.0}
    for mode in ORACLE_MODES:
        r2, r1 = t2["oracle"].get(mode, zero), t1["oracle"].get(mode, zero)
        p = f"oracle.{mode}."
        put(p + "calls", r2["calls"], "count")
        put(p + "gluings", r2["gluings"], "count")
        put(p + "self_s", r2["self_s"], "s")
        put(p + "self_s_1w", r1["self_s"], "s")
        put(p + "gluings_per_s", r2["gluings"] / r2["self_s"] if r2["self_s"] else 0.0, "1/s")
        put(p + "worker_cpu_s", r2["worker_cpu_s"], "s")
        put(p + "speedup_2w", r1["self_s"] / r2["self_s"] if r2["self_s"] else 0.0, "ratio")
    calls = t2["oracle_calls"]
    put("oracle.cache_hit_frac", t2["oracle_repeats"] / calls if calls else 0.0, "frac")
    for kernel in SERIES_KERNELS:
        put(f"series.{kernel}.calls", int(span(t2, f"series.{kernel}", "calls")), "count")
        put(f"series.{kernel}.self_s", span(t2, f"series.{kernel}", "self_s"), "s")
        put(f"series.{kernel}.coeff_ops", t2["coeff_ops"].get(kernel, 0), "count")
    put("flype.quintic_s", span(t2, "flype.flype_quintic", "first_s"), "s")
    put("flype.gamma_tilde.self_s", span(t2, "flype.gamma_tilde", "self_s"), "s")
    put("flype.discriminant_s", span(t2, "flype.flype_discriminant", "first_s"), "s")
    put("flype.singularity.self_s", span(t2, "flype.flype_singularity", "self_s"), "s")
    put("flype.fold_gap", t2["fold_gap"], "g")
    put("onematrix.solve_unit_two_point_s",
        span(t2, "onematrix.solve_unit_two_point", "incl_s"), "s")
    put("onematrix.substitute_renormalized_s",
        span(t2, "onematrix.substitute_renormalized", "incl_s"), "s")
    put("onematrix.closed_forms_s", t2["groups"].get("onematrix.closed_forms", 0.0), "s")
    put("abab.two_color_series.self_s", span(t2, "abab.two_color_series", "self_s"), "s")
    put("census.constants_report.self_s", span(t2, "census.constants_report", "self_s"), "s")
    put("census.ratio_asymptotics_s", span(t2, "census.ratio_asymptotics", "incl_s"), "s")
    put("cli.self_s", span(t2, "cli.main", "self_s"), "s")
    put("trace_overhead_frac", traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        "frac")
    return out


def trace_run(workload, plan, plan_1w, expected, tally) -> tuple:
    """Untraced pass, then traced passes at the benchmark's worker count and at one.

    Returns the per-layer metrics and the same table computed from the
    one-worker trace alone, or (None, None) if a pass failed.
    """
    untraced, results = run_iteration(plan, trace=False)
    check_outputs(workload, plan, results, expected, tally)
    traced, results = run_iteration(plan, trace=True)
    check_outputs(workload, plan, results, expected, tally)
    traced_1w, results = run_iteration(plan_1w, trace=True)
    check_outputs(workload, plan_1w, results, expected, tally)
    if untraced is None or traced is None or traced_1w is None:
        return None, None
    metrics = layer_metrics(traced["trace"], traced_1w["trace"],
                            untraced["wall_s"], traced["wall_s"])
    # the one-worker trace in both slots gives the same table at one worker
    metrics_1w = layer_metrics(traced_1w["trace"], traced_1w["trace"],
                               untraced["wall_s"], traced_1w["wall_s"])
    return metrics, metrics_1w


def print_layers(metrics: dict, metrics_1w: dict, workers: int) -> None:
    print(f"  {'metric':42s} {f'{workers} workers':>14s} {'1 worker':>14s}  unit")
    for key, entry in metrics.items():
        one = ("" if key.endswith(("_1w", "speedup_2w", "trace_overhead_frac"))
               else f"{metrics_1w[key]['value']:.6g}")
        print(f"  {key:42s} {entry['value']:>14.6g} {one:>14s}  {entry['unit']}")


def run_workload(name: str, args, workers: int, expected: dict) -> tuple:
    """Run one workload; print its human-readable report; return (metrics, tally)."""
    workload = workloads.WORKLOADS[name]
    plan = workload.plan(args.seed, args.size, workers)
    tally = {"attempted": 0, "failed": 0, "failures": []}
    record = {"workload": name, **provenance(workers, args.seed), "argv": plan["argv"]}
    if args.trace:
        plan_1w = workload.plan(args.seed, args.size, 1)
        metrics, metrics_1w = trace_run(workload, plan, plan_1w, expected, tally)
        print(f"workload {name}: traced run, {workers} workers and 1 worker")
        if metrics is None:
            print("  a traced pass failed; no per-layer metrics")
        else:
            print_layers(metrics, metrics_1w, workers)
        record["per_layer"] = metrics
        record["per_layer_1_worker"] = metrics_1w
    else:
        stats = measure(workload, plan, args.seconds, expected, tally)
        print(f"workload {name}: {stats['wall_s']['n']} iterations, {workers} workers")
        for key, s in stats.items():
            print(f"  {key:12s} {ESTIMATOR[key]} {s[ESTIMATOR[key]]:.4f} {UNITS[key]} "
                  f"(mean {s['mean']:.4f}, median {s['median']:.4f}, "
                  f"q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
        metrics = ({key: {"value": s[ESTIMATOR[key]], "unit": UNITS[key]}
                    for key, s in stats.items()}
                   if stats["wall_s"]["n"] else None)
        record["end_to_end"] = stats
    frac = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0
    print(f"  check_fail_frac {frac:.4g} frac ({tally['failed']} of {tally['attempted']} "
          f"checks failed{': ' + ', '.join(tally['failures']) if tally['failures'] else ''})")
    record["check_fail_frac"] = frac
    print("record " + json.dumps(record, sort_keys=True))
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="check against deliberately wrong expected values")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "linkcensus", "cli.py")):
        print(f"no linkcensus sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workers = min(2, nproc())
    expected = workloads.corrupted(workloads.EXPECTED) if args.corrupt else workloads.EXPECTED
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, complete = {}, 0, 0, True
    for name in names:
        m, tally = run_workload(name, args, workers, expected)
        attempted += tally["attempted"]
        failed += tally["failed"]
        complete = complete and m is not None
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in (m or {}).items()})
    correct = complete and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
