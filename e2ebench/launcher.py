"""Start ``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python launcher.py TRACE_OUT serve --http 0 ...``. The wrappers
go in before the CLI builds the server; the spans are written to
``TRACE_OUT`` when the CLI returns (on SIGTERM, after its graceful drain).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install_server_wrappers(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
