"""The benchmark's workloads: CLI calls made from a seed, and their checks.

Each workload's ``plan(seed, size, workers)`` returns a dict whose ``"argv"``
is a list of ``linkcensus`` argv lists, run in order in one fresh
interpreter, plus whatever its checks need; ``check(plan, results,
expected)`` checks the captured outputs against the values stored in
``expected.json``.  A check is one
``(label, ok)`` pair; a call that crashed or printed nothing fails every
check that reads it.  ``size`` is ``"full"`` for measuring and ``"smoke"``
for the harness self-test.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from fractions import Fraction

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as _f:
    EXPECTED = json.load(_f)

# loop weights for the `on` model; the enumeration work does not depend on them
LOOP_WEIGHTS = ("1/2", "1/3", "2/3", "3/4", "3/2", "2", "5/2", "3")


def _json(result):
    """The parsed JSON output of a call that exited 0, else None."""
    if not result or result["rc"] != 0:
        return None
    try:
        return json.loads(result["stdout"])
    except ValueError:
        return None


def _coeffs(result) -> list:
    """The coefficients of a JSON series output, or [] if there is none."""
    try:
        return [Fraction(c) for c in _json(result)["coeffs"]]
    except (TypeError, KeyError, ValueError):
        return []


def _series_checks(label, result, expected) -> list:
    """One check per coefficient of a JSON series against ``expected``."""
    got = _coeffs(result)
    return [(f"{label} g^{p}", p < len(got) and got[p] == Fraction(want))
            for p, want in enumerate(expected)] + [
        (f"{label} order", len(got) == len(expected))]


class Crosscheck:
    """Closed forms against the oracle: all-genus closed, 2-leg and gamma modes."""

    def plan(self, seed, size, workers):
        vmax = 4 if size == "full" else 2
        return {"argv": [["--threads", str(workers), "crosscheck", "--vmax", str(vmax)]],
                "vmax": vmax}

    def check(self, plan, results, expected):
        result = results[0]
        lines = result["stdout"].splitlines() if result else []
        want = [line.replace("{vmax}", str(plan["vmax"]))
                for line in expected["crosscheck_lines"]]
        checks = [("crosscheck exit 0", bool(result) and result["rc"] == 0)]
        checks += [(f"crosscheck line {i}", i < len(lines) and lines[i] == w)
                   for i, w in enumerate(want)]
        checks.append(("crosscheck line count", len(lines) == len(want)))
        return checks


class LoopWeight:
    """The `on` model at a seeded rational loop weight, then two-color reduced."""

    name = "loop-weight"

    def plan(self, seed, size, workers):
        order = 5 if size == "full" else 3
        r = random.Random(seed).choice(LOOP_WEIGHTS)
        return {"argv": [
            ["--threads", str(workers), "series", "--model", "on", "--n", r,
             "--order", str(order)],
            ["--threads", str(workers), "series", "--model", "two-color", "--reduced",
             "--order", str(order)],
        ], "order": order, "r": r}

    def check(self, plan, results, expected):
        order, r = plan["order"], Fraction(plan["r"])
        polys = {int(V): {int(k): Fraction(c) for k, c in poly.items()}
                 for V, poly in expected["loop_polynomials"].items()}

        def at(n):
            return [sum((c * n**k for k, c in polys[V].items()), Fraction(0)) if V else 0
                    for V in range(order + 1)]

        checks = _series_checks(f"on n={plan['r']}", results[0], at(r))
        closed = [Fraction(c) for c in expected["free_energy_raw_5"][:order + 1]]
        checks += [(f"loop polynomials at n=1 g^{p}", a == b)
                   for p, (a, b) in enumerate(zip(at(Fraction(1)), closed))]
        checks += _series_checks("two-color reduced", results[1],
                                 expected["two_color_reduced_5"][:order + 1])
        return checks


class FlypeCertify:
    """The flype-class series to order 60, then the certified constants table."""

    name = "flype-certify"

    def plan(self, seed, size, workers):
        order = 60 if size == "full" else 10
        return {"argv": [
            ["--threads", str(workers), "series", "--model", "flype", "--what", "tangles",
             "--order", str(order)],
            ["--threads", str(workers), "constants", "--format", "json"],
        ], "order": order}

    def check(self, plan, results, expected):
        got = _coeffs(results[0])
        checks = [(f"flype prefix g^{p}", got[p:p + 1] == [Fraction(want)])
                  for p, want in enumerate(expected["flype_prefix"])]
        checks += _series_checks("flype series", results[0],
                                 expected["flype_tangles_60"][:plan["order"] + 1])
        rows = _json(results[1]) or []
        by_name = {row.get("name"): row for row in rows}
        checks.append(("constants row names",
                       [row.get("name") for row in rows]
                       == [c["name"] for c in expected["constants"]]))
        for want in expected["constants"]:
            row = by_name.get(want["name"], {})
            if "tolerance" not in want:
                checks.append((f"constants {want['name']} kind", row.get("kind") == want["kind"]))
                continue
            how, tol = want["tolerance"]
            value = row.get("computed_value")
            ok = isinstance(value, float)
            if ok:
                err = abs(value - want["paper_value"])
                ok = err <= (tol * abs(want["paper_value"]) if how == "rel" else tol)
            checks.append((f"constants {want['name']} within {how} {tol:g}", ok))
        return checks


class MixedSpecies:
    """Crossing/tangency tables at V = 3, k = 1, 2, 3 tangencies, all-genus and planar."""

    def plan(self, seed, size, workers):
        cases = [(k, planar) for k in (1, 2, 3) for planar in (False, True)]
        random.Random(seed).shuffle(cases)
        return {"argv": [["--threads", str(workers), "enumerate", "--vertices", "3",
                          "--tangencies", str(k)] + (["--planar"] if planar else [])
                         for k, planar in cases],
                "cases": cases}

    def check(self, plan, results, expected):
        checks = []
        for (k, planar), result in zip(plan["cases"], results):
            label = f"mixed k={k}{' planar' if planar else ''}"
            rows = (result["stdout"].strip().splitlines()[1:]
                    if result and result["rc"] == 0 else [])
            try:
                total = sum(int(row[-1]) for row in csv.reader(io.StringIO("\n".join(rows))))
            except (ValueError, IndexError):
                total = None
            want_total = expected["mixed_totals"]["planar" if planar else "all"]
            checks.append((f"{label} total {want_total}", total == want_total))
            checks.append((f"{label} cells",
                           rows == expected["mixed_cells"][f"{k}{'p' if planar else ''}"]))
        return checks


class CrosscheckMixed:
    """Crosscheck, then the mixed-species tables, in one interpreter.

    Both parts exercise only the oracle.  The tables alone take under a
    second, and on a host whose speed drifts by a fifth within minutes their
    run-to-run spread came close to the benchmark's bound; run after the
    crosscheck, they are timed within a steadier total.
    """

    name = "crosscheck-mixed"
    parts = (Crosscheck(), MixedSpecies())

    def plan(self, seed, size, workers):
        plans = [part.plan(seed, size, workers) for part in self.parts]
        return {"argv": [argv for plan in plans for argv in plan["argv"]], "parts": plans}

    def check(self, plan, results, expected):
        checks, start = [], 0
        for part, part_plan in zip(self.parts, plan["parts"]):
            end = start + len(part_plan["argv"])
            checks += part.check(part_plan, results[start:end], expected)
            start = end
        return checks


def corrupted(expected: dict) -> dict:
    """A copy of ``expected`` with one wrong value for every workload's checks."""
    bad = json.loads(json.dumps(expected))
    bad["crosscheck_lines"][0] += " (corrupted)"
    bad["loop_polynomials"]["1"]["1"] = "1"
    bad["flype_prefix"][7] = "373"
    bad["mixed_totals"]["all"] += 1
    return bad


WORKLOADS = {w.name: w for w in (CrosscheckMixed(), LoopWeight(), FlypeCertify())}
