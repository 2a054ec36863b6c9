"""Run one `loophom` command with the span tracer installed.

    python3 child.py TRACE_FILE ARGV...

Times `import loophom.cli`, wraps loophom's layer boundaries with the tracer,
runs `loophom.cli.main(ARGV)` in this process and writes the tracer's
aggregates and spans to TRACE_FILE when the command ends, also when it
crashes.  Exit status and output are those of the CLI.
"""

from __future__ import annotations

import sys
import time


def main(args) -> int:
    trace_path, argv = args[0], args[1:]
    start = time.perf_counter()
    import loophom.cli

    import_s = time.perf_counter() - start

    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return loophom.cli.main(argv)
    finally:
        tracer.write(trace_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
