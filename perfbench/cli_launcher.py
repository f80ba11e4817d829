"""Run one areafun CLI call with per-layer tracing.

Usage: python3 cli_launcher.py TRACE_JSON <areafun arguments...>

Times the cold import of areafun.cli, wraps the traced layers, calls
areafun.cli.main with the remaining arguments and writes the trace
snapshot to TRACE_JSON.  The exit code is the CLI's.
"""

import json
import os
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import areafun.cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.import_s.append(import_s)
    try:
        return areafun.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
