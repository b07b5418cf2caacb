"""Run one CLI invocation in this process with a span around each layer call.

Usage: ``child_trace.py SPANS_OUT SPAWN_TIME -- ARGV...``.  SPAWN_TIME is the
parent's ``time.perf_counter()`` just before it started this process; on
Linux that clock is system-wide, so ``[SPAWN_TIME, start of this script]`` is
the interpreter start-up span.  The spans are written to SPANS_OUT as JSON.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, spawn, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child_trace.py SPANS_OUT SPAWN_TIME -- ARGV...")
    tracer = spans.Tracer()
    tracer.add("cli.interp_start", float(spawn), T0)
    with tracer.span("cli.import"):
        import parabolic.cli  # noqa: F401
    undo = spans.install(tracer, "parabolic", spans.LAYERS)
    try:
        code = sys.modules["parabolic.cli"].run(argv)
    finally:
        spans.uninstall(undo)
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({
                "names": [tracer.names[i] for i in tracer.name_id],
                "parent": list(tracer.parent),
                "start": list(tracer.start),
                "end": list(tracer.end),
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
