"""Command-line interface for batch runs and reproducing the headline numbers.

Subcommands
-----------
series      print a generating function as JSON (or CSV rows)
enumerate   dump an exact pairing count table as CSV (or JSON)
constants   print the constants table
crosscheck  closed forms vs. the enumeration oracle; nonzero exit on mismatch
asymptotics ratio-method growth/exponent estimate with full diagnostics

Exit codes: 0 success, 1 crosscheck mismatch, 2 usage error, 3 a library
self-check failed (a lost or ambiguous series branch in the flype
singularity analysis, an out-of-range arithmetic residual, an inexact
polynomial division in the flype elimination, or an odd Euler numerator at
an oracle leaf, which means a miscounted face); codes 2 and 3 print a
one-line ``error:`` message on stderr.  Enumerations run in a single
process, so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import abab, census, flype, onematrix, oracle
from .series import Series, rational_to_str

__all__ = ["main"]


def _series_for(args: argparse.Namespace) -> Series:
    model, what, order = args.model, args.what, args.order
    # refused rather than ignored: a flag a model does not read would print
    # some other series than the one asked for
    if args.n is not None and model != "on":
        raise ValueError("--n sets the loop weight of --model on only")
    if args.reduced and model != "two-color":
        raise ValueError("--reduced applies to --model two-color only")
    if model == "raw":
        return (onematrix.free_energy_raw_series(order) if what == "links"
                else onematrix.gamma_raw_series(order))
    if model == "reduced":
        return (onematrix.free_energy_reduced_series(order) if what == "links"
                else onematrix.gamma_reduced_series(order))
    if model == "flype":
        if what != "tangles":
            raise ValueError("the flype correction is computed for tangles")
        return flype.gamma_tilde(order)
    if model == "on":
        if what != "links":
            raise ValueError("loop-weight series are computed for links")
        return oracle.free_energy_series(order, n=1 if args.n is None else args.n)
    if model == "two-color":
        if what != "links":
            raise ValueError("two-color series are computed for links")
        return abab.two_color_series(order, reduced=args.reduced)
    raise ValueError(f"unknown model {model!r}")


def _emit_series(series: Series, output: str) -> str:
    if output == "json":
        return json.dumps(series.to_json_dict(), sort_keys=True)
    lines = ["p,count"]
    lines.extend(f"{p},{rational_to_str(c)}" for p, c in enumerate(series.coeffs))
    return "\n".join(lines) + "\n"


def _cmd_series(args: argparse.Namespace) -> int:
    print(_emit_series(_series_for(args), args.output))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.tangencies:
        counts = {"crossing": args.vertices - args.tangencies,
                  "tangency": args.tangencies}
        table = oracle.enumerate_pairings(
            args.vertices, oracle.VertexModel.generalized(), type_counts=counts,
            planar_only=args.planar, connected_only=args.connected)
    else:
        table = oracle.enumerate_pairings(
            args.vertices, planar_only=args.planar, connected_only=args.connected)
    if args.output == "csv":
        sys.stdout.write(oracle.count_table_csv([table]))
    else:
        payload = {
            "V": table.num_vertices,
            "vertex_type_counts": dict(table.vertex_counts),
            "planar_only": table.planar_only,
            "connected_only": table.connected_only,
            "cells": [
                {"genus": h, "strands": k, "connected": conn, "count": c}
                for (h, k, conn), c in sorted(table.cells.items())
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    rows = census.constants_report()
    if args.output == "csv":
        sys.stdout.write(census.constants_to_csv(rows))
    else:
        print(census.constants_to_json(rows))
    return 0


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    """Closed forms against the oracle, coefficient by coefficient."""
    vmax = args.vmax
    if vmax < 1:
        raise ValueError(f"crosscheck needs --vmax >= 1, got {vmax}")
    checks = [
        ("free-energy", onematrix.free_energy_raw_series(vmax),
         oracle.free_energy_series(vmax)),
        ("two-point", onematrix.g2_raw_series(vmax), oracle.g2_series(vmax)),
        ("connected-four-point", onematrix.gamma_raw_series(vmax),
         oracle.gamma_series(vmax)),
    ]
    for name, closed, counted in checks:
        for p in range(vmax + 1):
            if closed[p] != counted[p]:
                print(f"MISMATCH {name} at g^{p}: closed form {closed[p]} "
                      f"!= oracle {counted[p]}")
                return 1
        print(f"ok {name}: coefficients agree through g^{vmax}")
    for V in range(1, vmax + 1):
        table = oracle.enumerate_pairings(V)
        expected = oracle.double_factorial(4 * V - 1)
        if table.total() != expected:
            print(f"MISMATCH pairing total at V={V}: {table.total()} != {expected}")
            return 1
    print(f"ok pairing totals: (4V-1)!! for V <= {vmax}")
    return 0


def _cmd_asymptotics(args: argparse.Namespace) -> int:
    builders = {
        "raw-links": census.raw_link_diagrams,
        "reduced-links": census.reduced_link_diagrams,
        "reduced-tangles": census.reduced_tangles,
        "flype-classes": census.flype_tangle_classes,
    }
    seq = builders[args.sequence](args.terms)
    est = census.ratio_asymptotics(seq)
    payload = {
        "sequence": seq.name,
        "terms": args.terms,
        "growth": est.growth,
        "exponent": est.exponent,
        "ratios": list(est.ratios),
        "diagnostics": list(est.diagnostics),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


_COMMANDS = {
    "series": _cmd_series,
    "enumerate": _cmd_enumerate,
    "constants": _cmd_constants,
    "crosscheck": _cmd_crosscheck,
    "asymptotics": _cmd_asymptotics,
}


def _fraction(text: str) -> Fraction:
    """A rational option value such as ``1/2``; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkcensus",
        description="Exact counting of alternating link/tangle diagrams and flype classes.",
    )
    # accepted and ignored, so that scripts written for the former worker-count
    # option still parse; enumeration is single-process
    parser.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="print a generating function")
    p_series.add_argument("--model", choices=["raw", "reduced", "flype", "on", "two-color"],
                          default="reduced")
    p_series.add_argument("--what", choices=["links", "tangles"], default="links")
    p_series.add_argument("--n", type=_fraction, default=None,
                          help="loop weight for --model on (a rational, e.g. 1/2; default 1)")
    p_series.add_argument("--reduced", action="store_true",
                          help="renormalized variant (two-color model)")
    p_series.add_argument("--order", type=int, default=8)
    p_series.add_argument("--format", dest="output", choices=["json", "csv"], default="json")

    p_enum = sub.add_parser("enumerate", help="dump an exact pairing count table")
    p_enum.add_argument("--vertices", type=int, required=True)
    p_enum.add_argument("--planar", action="store_true")
    p_enum.add_argument("--connected", action="store_true")
    p_enum.add_argument("--tangencies", type=int, default=0,
                        help="how many vertices use the tangency wiring")
    p_enum.add_argument("--format", dest="output", choices=["csv", "json"], default="csv")

    p_const = sub.add_parser("constants", help="print the constants table")
    p_const.add_argument("--format", dest="output", choices=["json", "csv"], default="json")

    p_cross = sub.add_parser("crosscheck", help="closed forms vs. the oracle")
    p_cross.add_argument("--vmax", type=int, default=4)

    p_asym = sub.add_parser("asymptotics", help="ratio-method growth estimate")
    p_asym.add_argument("--sequence", choices=["raw-links", "reduced-links",
                                               "reduced-tangles", "flype-classes"],
                        default="reduced-links")
    p_asym.add_argument("--terms", type=int, default=12)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except oracle.CeilingError as exc:
        # the command line cannot raise the ceiling, so it names it as a fixed limit
        print(f"error: V = {exc.vertices} exceeds the enumeration ceiling: the "
              f"command line enumerates at most {exc.ceiling} vertices", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (flype.BranchMismatchError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
