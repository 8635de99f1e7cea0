"""Outside-in tracer: times calls into each layer's public functions.

The program is not edited.  `Tracer.install` replaces every traced function
in its defining module and in each ``linkcensus`` module that imported it by
name (``from .series import mul``), so internal calls are seen too.  Each
call is a span; a span's self time is its duration minus the time of the
traced spans it encloses.  Oracle calls also record their search mode (read
from the arguments), whether the arguments repeat an earlier call (a cache
hit), the gluings in the returned table and the CPU the pool workers spent
(the ``RUSAGE_CHILDREN`` delta).  Series kernels record their coefficient
work, computed from operand orders.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

ORACLE = ("enumerate_pairings", "two_point_table")
SERIES = ("mul", "div", "sqrt_series", "compose", "newton_solve")
FLYPE = ("flype_quintic", "gamma_tilde", "flype_discriminant", "flype_singularity")
ONEMATRIX = ("solve_unit_two_point", "substitute_renormalized")
CLOSED_FORMS = ("a2_raw_series", "g2_raw_series", "gamma_raw_series", "g4_raw_series",
                "free_energy_raw_series", "a2_reduced_series", "t_series",
                "gamma_reduced_series", "g4_reduced_series", "free_energy_reduced_series")
TARGETS = {
    "oracle": ORACLE,
    "series": SERIES,
    "flype": FLYPE,
    "onematrix": ONEMATRIX + CLOSED_FORMS,
    "abab": ("two_color_series",),
    "census": ("constants_report", "ratio_asymptotics"),
    "cli": ("main",),
}
# spans summed as one group, counting only the outermost member on the stack
GROUP_OF = {f"onematrix.{fname}": "onematrix.closed_forms" for fname in CLOSED_FORMS}
# arguments that do not change an oracle table, so not part of its cache key
_NOT_IN_KEY = ("threads", "ceiling")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _tri(n: int) -> int:
    """Multiply-adds of a truncated product through order n - 1."""
    return n * (n + 1) // 2


def coeff_ops(name: str, args: tuple) -> int:
    """Coefficient multiply-adds a series kernel does, from its operand orders."""
    if name in ("mul", "div"):
        return _tri(min(args[0].order, args[1].order) + 1)
    if name == "sqrt_series":
        return _tri(args[0].order)
    if name == "compose":
        outer, inner = args
        v = inner.valuation()
        if v is None:
            return 0
        order = min(inner.order, v * (outer.order + 1) - 1)
        return min(outer.order, order // v) * _tri(order + 1)
    if name == "newton_solve":
        system, order = args
        deg = system.relation.degree_y()
        ops, prec = 0, 0
        while prec < order:  # the precision ladder of newton_solve
            prec = min(2 * prec + 1, order)
            ops += (2 * deg) * _tri(prec + 1)  # P(y) and dP/dy(y) by Horner, then a division
        return ops + deg * _tri(order + 1)  # the residual check
    raise KeyError(name)


def oracle_mode(bound: inspect.BoundArguments) -> str:
    """The search mode of an oracle call, read from its arguments."""
    a = bound.arguments
    if "legs" in a:
        if a["legs"] == 2:
            return "leg2"
        if a["twopi"]:
            return "twopi"
        return "gamma" if a["gamma_only"] else "leg4"
    if any(name != "crossing" and count for name, count in (a["type_counts"] or {}).items()):
        return "mixed"
    return "closed_planar" if a["planar_only"] else "closed_all"


class Tracer:
    def __init__(self) -> None:
        self.stack: list = []      # [name, start, child time] per open span
        self.spans: dict = {}      # name -> {"calls", "self_s", "incl_s", "first_s"}
        self.groups: dict = {}     # group -> inclusive seconds of its outermost spans
        self.oracle: dict = {}     # mode -> {"calls", "self_s", "gluings", "worker_cpu_s"}
        self.seen_keys: set = set()
        self.oracle_calls = 0
        self.oracle_repeats = 0
        self.coeff_ops: dict = {}
        self.fold_gap = 0.0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "linkcensus" or name.startswith("linkcensus.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"linkcensus.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, name: str, fn):
        layer, fname = name.split(".", 1)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if layer == "oracle":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                cpu0 = _children_cpu()
            elif layer == "series":
                self.coeff_ops[fname] = self.coeff_ops.get(fname, 0) + coeff_ops(fname, args)
            active = any(frame[0] == name for frame in self.stack)
            group = GROUP_OF.get(name)
            outermost = group is not None and not any(
                GROUP_OF.get(frame[0]) == group for frame in self.stack)
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                self_s = duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
                rec = self.spans.setdefault(
                    name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "first_s": None})
                rec["calls"] += 1
                rec["self_s"] += self_s
                if not active:
                    rec["incl_s"] += duration
                if rec["first_s"] is None:
                    rec["first_s"] = duration
                if outermost:
                    self.groups[group] = self.groups.get(group, 0.0) + duration
            if bound is not None:
                self._record_oracle(fname, bound, result, self_s, _children_cpu() - cpu0)
            elif name == "flype.flype_singularity":
                self.fold_gap = max(self.fold_gap, result.agreement)
            return result

        return wrapper

    def _record_oracle(self, fname, bound, table, self_s, worker_cpu) -> None:
        mode = oracle_mode(bound)
        key = (fname,) + tuple(
            (k, tuple(sorted(v.items())) if isinstance(v, dict) else v)
            for k, v in bound.arguments.items() if k not in _NOT_IN_KEY)
        repeat = key in self.seen_keys
        self.seen_keys.add(key)
        self.oracle_calls += 1
        self.oracle_repeats += repeat
        rec = self.oracle.setdefault(
            mode, {"calls": 0, "self_s": 0.0, "gluings": 0, "worker_cpu_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += self_s
        rec["worker_cpu_s"] += worker_cpu
        if not repeat:
            rec["gluings"] += sum(table.cells.values())

    # -- report ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "groups": self.groups,
            "oracle": self.oracle,
            "oracle_calls": self.oracle_calls,
            "oracle_repeats": self.oracle_repeats,
            "coeff_ops": self.coeff_ops,
            "fold_gap": self.fold_gap,
        }
