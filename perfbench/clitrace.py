"""Run one zmeasures command line with tracing on.

    python3 perfbench/clitrace.py SPAN_FILE -- ARGS...

Times ``import zmeasures.cli``, installs the wrappers of ``tracing.py``,
runs the command exactly as ``python -m zmeasures.cli ARGS...`` would, and
writes the spans to SPAN_FILE at exit.
"""

import json
import sys
import time

t0 = time.perf_counter()
import zmeasures.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    span_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: clitrace.py SPAN_FILE -- ARGS...", file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return zmeasures.cli.run(argv)
    finally:
        with open(span_file, "w") as f:
            json.dump({**tracer.dump(), "import_s": import_s}, f)


if __name__ == "__main__":
    sys.exit(main())
