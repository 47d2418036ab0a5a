"""Run one zeqr command with the benchmark's span wrappers installed.

Usage: python3 perfbench/launch.py SPANS_JSON <zeqr arguments...>

Times the import of zeqr.cli in this fresh interpreter, installs the
wrappers, calls zeqr.cli.main as the root span ``cli.<command>`` and writes
the spans to SPANS_JSON when the command returns.
"""

import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import zeqr.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    command = next((a for a in argv if not a.startswith("-")), "none")
    try:
        return tracer.root(f"cli.{command}", zeqr.cli.main, argv)
    finally:
        tracer.dump(out, command=command, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
