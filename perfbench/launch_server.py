"""Start ``python -m repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 launch_server.py SPANS_OUT serve [serve options...]``.
The spans are written to ``SPANS_OUT`` once the server shuts down
(on SIGINT).
"""

import sys

import harness
import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    harness.import_program()
    tracer = spans.Tracer()
    spans.install(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
