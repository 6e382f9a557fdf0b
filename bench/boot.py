"""Traced entry point for one CLI command: ``python bench/boot.py <argv>``.

Times ``import wellposed``, installs the benchmark's wrappers, then runs
``wellposed.cli.main(argv)`` inside a ``cli.<subcommand>`` span.  The
report goes to stdout unchanged; the trace summary goes to stderr on one
line that starts with the trace marker.
"""

import json
import sys
import time

before = len(sys.modules)
t0 = time.perf_counter()
import wellposed  # noqa: E402

import_s = time.perf_counter() - t0
modules_loaded = len(sys.modules) - before

import wellposed.cli  # noqa: E402

import tracer  # noqa: E402


def main(argv):
    tr = tracer.Tracer()
    tracer.install(tr)
    span = tr.open(f"cli.{argv[0]}")
    try:
        code = wellposed.cli.main(argv)
    finally:
        tr.close(span)
        sys.stdout.flush()
        summary = tr.summary()
        summary["import_s"] = import_s
        summary["import.modules_loaded"] = modules_loaded
        sys.stderr.write(tracer.TRACE_MARK + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
