"""Run one ``nodecount`` command with spans installed, then write the spans.

Usage: ``python perfbench/traced_cli.py SPANS_FILE -- ARGS...`` with ``src``
on ``PYTHONPATH``.  Standard output and the exit code are the command's own;
the span report (see ``tracer.Tracer.report``) goes to SPANS_FILE as JSON.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tracing


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE -- ARGS...")
    t0 = time.perf_counter()
    import nodepoly.cli as cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = tracing.Tracer()
    tracer.install()
    code = cli.run(argv)
    sys.stdout.flush()
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(import_ms=import_ms), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
