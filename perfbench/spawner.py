"""Start the processes of ``cli_cold`` from a process that stays small.

Usage: python3 spawner.py TIMEOUT_S

Reads one JSON list of arguments per line on standard input and runs each
as a child process. For each it answers with one JSON line: ``code`` (the
exit code, or null if the child ran past TIMEOUT_S and was killed),
``out``, ``err`` and ``elapsed`` (wall seconds). At the end of its input
it answers with ``maxrss_kb``, the largest peak RSS of its children, and
exits.

On Linux a child's peak RSS counts the memory of the process it was
started from, up to the moment it runs its program. The benchmark's own
process holds the host-speed reference table and the goldens, so children
started from it would report the benchmark's size, not their own.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def main() -> None:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        args = json.loads(line)
        t0 = perf_counter()
        try:
            done = subprocess.run(args, capture_output=True, text=True, timeout=timeout)
            reply = {"code": done.returncode, "out": done.stdout, "err": done.stderr}
        except subprocess.TimeoutExpired:
            reply = {"code": None, "out": "", "err": ""}
        reply["elapsed"] = perf_counter() - t0
        print(json.dumps(reply), flush=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"maxrss_kb": peak}), flush=True)


if __name__ == "__main__":
    main()
