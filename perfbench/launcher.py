"""Run repro's ``serve`` entry point with perfbench's layer wrappers installed.

Usage (``PYTHONPATH=src``; the traced serve-mixed run starts it)::

    python3 -u perfbench/launcher.py TRACE_OUT serve --quiet --port 0

Installs the span wrappers of ``spans.install`` plus the HTTP handler
wrappers that read each request's op id, then calls ``repro.__main__.main``
with the remaining arguments.  When the server stops (SIGINT), every
recorded span, count and collection is written to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys

import spans


def main(argv: "list[str]") -> int:
    trace_out, serve_argv = argv[0], argv[1:]
    from repro.__main__ import main as repro_main

    recorder = spans.Recorder()
    spans.install(recorder, server=True)
    recorder.watch_gc()
    try:
        return repro_main(serve_argv)
    finally:
        recorder.unwatch_gc()
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
