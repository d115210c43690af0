"""Run one econclimb CLI command under the span tracer.

Usage: python bench/traced_cli.py SIDECAR_JSON CLI_ARGS...

Times ``import econclimb.cli_io`` in this fresh interpreter, installs the
tracer, runs ``cli_io.main(CLI_ARGS)`` and writes the spans, counts, import
time and ``sys.modules`` size to SIDECAR_JSON. Exits with the CLI's code.
"""

import sys
import time

t0 = time.perf_counter()
import econclimb.cli_io as cli_io  # noqa: E402

IMPORT_S = time.perf_counter() - t0
MODULES_LOADED = len(sys.modules)

import spans  # noqa: E402


def main():
    sidecar, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.op, tracer.active = 0, True
    rc = None
    try:
        rc = cli_io.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        tracer.dump(sidecar, {"rc": rc, "import_s": IMPORT_S,
                              "modules_loaded": MODULES_LOADED})
    return rc


if __name__ == "__main__":
    sys.exit(main())
