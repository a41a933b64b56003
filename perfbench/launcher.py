"""Start ``repro serve`` in this process, optionally with layer tracing.

    python3 perfbench/launcher.py [--trace-out PATH] -- SERVE-ARGS...

Without ``--trace-out`` this is exactly ``repro.serving.cli.main``.
With it, the layer wrappers of :mod:`tracing` are installed first, every
response carries an ``X-Perfbench-Dispatch-Ns`` header with the time
``Router.dispatch`` took (so the client can split its latency into
dispatch and front-end time), and the span statistics are written to
PATH as JSON when the server stops.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

DISPATCH_HEADER = "X-Perfbench-Dispatch-Ns"


def _time_dispatch() -> None:
    from repro.serving.http import Router

    dispatch = Router.dispatch

    def timed(self, *args, **kwargs):
        started = time.perf_counter_ns()
        response = dispatch(self, *args, **kwargs)
        elapsed = time.perf_counter_ns() - started
        return dataclasses.replace(
            response, headers=tuple(response.headers) + ((DISPATCH_HEADER, str(elapsed)),)
        )

    Router.dispatch = timed


def main(argv: list[str]) -> int:
    trace_out = None
    if argv and argv[0] == "--trace-out":
        trace_out, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    common.ensure_source_tree()
    tracer = None
    if trace_out is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            _time_dispatch()
        except (ImportError, AttributeError):
            pass
    from repro.serving.cli import main as serve_main

    try:
        return serve_main(argv)
    finally:
        if tracer is not None:
            Path(trace_out).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
