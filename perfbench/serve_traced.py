"""``python -m repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_traced.py SPANS_FILE serve [serve options]``.
Runs the unchanged CLI in this process with every entry point listed in
``tracing.WRAPPED`` wrapped, and writes the spans to SPANS_FILE when the
server exits (SIGINT).  Worker processes the server spawns import this
file as their main module but install nothing, so simulations inside
them are not traced.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SpanRecorder, install  # noqa: E402


def main() -> int:
    from repro.cli import main as cli

    recorder = SpanRecorder()
    install(recorder)
    try:
        return cli(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
