"""Command-line interface for batch runs and reproducing the headline numbers.

Subcommands
-----------
series      print a generating function as JSON (or CSV rows)
enumerate   dump an exact pairing count table as CSV (or JSON)
constants   print the constants table
crosscheck  closed forms vs. the enumeration oracle; nonzero exit on mismatch
asymptotics ratio-method growth/exponent estimate with full diagnostics

Syntax: ``linkcensus [--threads N] COMMAND [--opt VALUE | --opt=VALUE |
--switch] ...``; ``-h`` or ``--help`` prints the help, generated from the
same table that parsing reads, and exits 0.

Exit codes: 0 success (help included), 1 crosscheck mismatch, 2 usage
error (an unknown command or option, an abbreviated option, a missing or
bad value, a stray word, and an ``asymptotics`` fit whose last two growth
extrapolants differ by more than 1e-3 relative: a larger ``--terms`` is
needed), 3 a library self-check failed (a lost or ambiguous series branch
in the flype singularity analysis, a Newton residual that does not cancel,
an inexact polynomial division in the flype elimination, an odd Euler
numerator at an oracle leaf, which means a miscounted face, or a negative
tangle count, which means a two-leg or four-leg count is off); codes 2 and
3 print a one-line ``error:`` message on stderr.  Enumerations run in a
single process, so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import gc
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import abab, census, flype, onematrix, oracle
from .series import Series, rational_to_str

__all__ = ["main"]


def _series_for(args: SimpleNamespace) -> Series:
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


def _cmd_series(args: SimpleNamespace) -> int:
    print(_emit_series(_series_for(args), args.output))
    return 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
    if args.vertices is None:
        raise ValueError("enumerate needs --vertices")
    counts = {"crossing": args.vertices - args.tangencies, "tangency": args.tangencies}
    table = oracle.enumerate_pairings(args.vertices, type_counts=counts, planar_only=args.planar,
                                      connected_only=args.connected)
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


def _cmd_constants(args: SimpleNamespace) -> int:
    rows = census.constants_report()
    if args.output == "csv":
        sys.stdout.write(census.constants_to_csv(rows))
    else:
        print(census.constants_to_json(rows))
    return 0


def _cmd_crosscheck(args: SimpleNamespace) -> int:
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


def _cmd_asymptotics(args: SimpleNamespace) -> int:
    builders = {
        "raw-links": census.raw_link_diagrams,
        "reduced-links": census.reduced_link_diagrams,
        "reduced-tangles": census.reduced_tangles,
        "flype-classes": census.flype_tangle_classes,
    }
    seq = builders[args.sequence](args.terms)
    est = census.ratio_asymptotics(seq)
    # refused rather than printed: until the last two growth extrapolants
    # agree, the fit can be far off with nothing to show it (flype-classes
    # at 12 terms gives growth 6.862 and exponent -10.99 against 6.148 and
    # -2.5; 30 terms agree to 1e-5 on every sequence)
    fits = est.diagnostics
    if len(fits) < 2 or abs(fits[-1] - fits[-2]) > 1e-3 * abs(fits[-1]):
        raise ValueError(f"{seq.name}: the last two growth extrapolants differ by more "
                         f"than 1e-3 relative at {args.terms} terms; pass a larger --terms")
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


# command -> (handler, help, options); option -> (attribute, kind, default, help),
# where a kind is int, Fraction, a tuple of choices, or bool for a switch.
# Parsing, the defaults and the help all read this one table
_COMMANDS = {
    "series": (_cmd_series, "print a generating function", {
        "--model": ("model", ("raw", "reduced", "flype", "on", "two-color"), "reduced",
                    "which diagrams are counted"),
        "--what": ("what", ("links", "tangles"), "links", "closed links or four-leg tangles"),
        "--n": ("n", Fraction, None, "loop weight for --model on (a rational, e.g. 1/2; "
                                     "default 1)"),
        "--reduced": ("reduced", bool, False, "renormalized variant (two-color model)"),
        "--order": ("order", int, 8, "truncation order in g"),
        "--format": ("output", ("json", "csv"), "json", "output format"),
    }),
    "enumerate": (_cmd_enumerate, "dump an exact pairing count table", {
        "--vertices": ("vertices", int, None, "number of vertices (required)"),
        "--planar": ("planar", bool, False, "planar diagrams only"),
        "--connected": ("connected", bool, False, "connected diagrams only"),
        "--tangencies": ("tangencies", int, 0, "how many vertices use the tangency wiring"),
        "--format": ("output", ("csv", "json"), "csv", "output format"),
    }),
    "constants": (_cmd_constants, "print the constants table", {
        "--format": ("output", ("json", "csv"), "json", "output format"),
    }),
    "crosscheck": (_cmd_crosscheck, "closed forms vs. the oracle", {
        "--vmax": ("vmax", int, 4, "largest number of vertices compared"),
    }),
    "asymptotics": (_cmd_asymptotics, "ratio-method growth estimate", {
        "--sequence": ("sequence", ("raw-links", "reduced-links", "reduced-tangles",
                                    "flype-classes"), "reduced-links", "counting sequence"),
        "--terms": ("terms", int, 30, "number of terms fitted"),
    }),
}
# the options before the command: --threads is accepted and ignored, so that
# scripts written for the former worker-count option still parse (enumeration
# is single-process), and it is left out of the help
_GLOBAL_OPTIONS = {"--threads": ("threads", int, None, "")}


def _cmd_help(args: SimpleNamespace) -> int:
    """Print the help of ``args.command``, or the program's when it is None."""
    if args.command is None:
        lines = ["usage: linkcensus COMMAND [options]", "",
                 "Exact counting of alternating link/tangle diagrams and flype classes.", "",
                 "commands:"]
        lines += [f"  {name:<13}{text}" for name, (_, text, _) in _COMMANDS.items()]
        lines += ["", "linkcensus COMMAND --help lists the options of a command."]
    else:
        _, text, options = _COMMANDS[args.command]
        lines = [f"usage: linkcensus {args.command} [options]", "", text, "", "options:"]
        for name, (attr, kind, default, doc) in options.items():
            if isinstance(kind, tuple):
                name += " {" + ",".join(kind) + "}"
            elif kind is not bool:
                name += " " + attr.upper()
            if default is not None and kind is not bool:
                doc += f" (default: {default})"
            lines += [f"  {name}", f"      {doc}"]
    print("\n".join(lines))
    return 0


def _value(option: str, kind, text: str):
    """An option's value from its word; a bad value is a usage error."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"{option}: invalid choice {text!r} (choose from "
                             f"{', '.join(kind)})")
        return text
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option}: invalid {kind.__name__} value {text!r}") from None


def _parse(words):
    """The handler for a command line and the arguments to call it with.

    Accepted: ``[--threads N] COMMAND`` followed by ``--opt VALUE``,
    ``--opt=VALUE`` or ``--switch``, or ``-h``/``--help`` in place of an
    option.  A
    repeated option keeps its last value, and a value word may start with
    ``-``.  Anything else, an abbreviated option among them, is a usage
    error (ValueError).
    """
    command, options, given = None, _GLOBAL_OPTIONS, {}
    words = iter(words)
    for word in words:
        if word in ("-h", "--help"):
            return _cmd_help, SimpleNamespace(command=command)
        if not word.startswith("-"):
            if command is not None or word not in _COMMANDS:
                raise ValueError(f"unrecognized {'argument' if command else 'command'} "
                                 f"{word!r}; see linkcensus --help")
            command, options, given = word, _COMMANDS[word][2], {}
            continue
        option, has_value, text = word.partition("=")
        if option not in options:
            raise ValueError(f"unrecognized option {option!r}"
                             + (f" of {command}" if command else " before the command"))
        attr, kind, _, _ = options[option]
        if kind is bool:
            if has_value:
                raise ValueError(f"{option} takes no value")
            given[attr] = True
            continue
        if not has_value:
            text = next(words, None)
            if text is None:
                raise ValueError(f"{option} needs a value")
        given[attr] = _value(option, kind, text)
    if command is None:
        raise ValueError("no command given; see linkcensus --help")
    handler, _, options = _COMMANDS[command]
    defaults = {attr: default for attr, _, default, _ in options.values()}
    return handler, SimpleNamespace(**{**defaults, **given})


def main(argv=None) -> int:
    # everything alive now (the import's objects, and an earlier call's
    # caches) lives for the rest of the run, so the cyclic collector need
    # not trace it again: freezing it spares the command the collector's
    # passes over the import's objects.  In-process callers (the tests, the
    # benchmark's child) freeze too, once per call; what they freeze and
    # later drop in a reference cycle is never collected
    gc.freeze()
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
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
