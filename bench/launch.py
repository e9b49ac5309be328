"""A lean process that starts the measured processes and reports their cost.

Linux folds the resident set of the process that forks into the child's
``ru_maxrss``, so a child started by ``run.py``, which holds the generated
inputs, would report that memory as its own.  ``run.py`` therefore starts
this launcher first, while it is still small, and asks it
to run each measured command.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path|null, "stderr": path, "timeout": s}``;
one JSON reply per line on stdout, ``{"exit": code, "seconds": s,
"peak_rss_mb": mb}``.  The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    stdout = open(request["stdout"], "wb") if request["stdout"] else subprocess.DEVNULL
    with open(request["stderr"], "wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
        )
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    if stdout is not subprocess.DEVNULL:
        stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
