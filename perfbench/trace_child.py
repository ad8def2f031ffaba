"""Run one traced ``redup`` CLI command: the child of the traced ``cli_cold`` pass.

Usage: python3 trace_child.py SPANS_OUT ARG...

Times ``import redup`` on its own, runs ``redup.cli.main(ARG...)`` with the
layer wrappers installed, writes the import time and the spans to SPANS_OUT
as JSON, and exits with the command's exit code.
"""

import json
import sys
from time import perf_counter

from spans import Tracer, installed

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import redup
    import redup.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    with installed(tracer):
        code = redup.cli.main(argv)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "spans": [list(s) for s in tracer.spans]}, handle)
    sys.exit(code)
