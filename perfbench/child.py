"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/child.py '<json list of CLI argv lists>' [--trace]
       python3 perfbench/child.py --setup-only

Imports ``linkcensus.cli`` from the checkout's ``src``, runs every argv
through ``cli.main`` with stdout captured, and prints one JSON object on its
own stdout: the monotonic time the import finished, the wall and CPU time of
the CLI calls, peak RSS, each call's exit code and output, and (with
``--trace``) the per-layer trace.  ``--setup-only`` stops after the import.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from linkcensus import cli  # noqa: E402

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> None:
    if argv == ["--setup-only"]:
        print(json.dumps({"imported": IMPORTED}))
        return
    calls = json.loads(argv[0])
    tracer = None
    if "--trace" in argv[1:]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = []
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    for call in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(call)
        results.append({"rc": rc, "stdout": buf.getvalue()})
    wall = time.monotonic() - start
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {"imported": IMPORTED, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": rss_kb / 1024.0, "results": results}
    if tracer is not None:
        record["trace"] = tracer.summary()
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
