"""Spawn benchmark jobs one at a time and report their wall time and rusage.

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout":
FILE, "stderr": FILE}``, runs it to completion and answers with one JSON
line ``{"rc", "wall", "cpu", "rss_kb"}`` on stdout.  A job still running
after JOB_TIMEOUT_S seconds is killed.  Exits at end of input.

A child's ``ru_maxrss`` starts from the resident size of the process
that spawned it, so jobs are spawned from this small process rather
than from the runner, whose size grows with the outputs it verifies.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

JOB_TIMEOUT_S = 120
_current: subprocess.Popen | None = None


def _expire(signum: int, frame: object) -> None:
    if _current is not None and _current.returncode is None:
        _current.kill()


def _stop(signum: int, frame: object) -> None:
    if _current is not None and _current.returncode is None:
        _current.kill()
        try:
            os.waitpid(_current.pid, 0)
        except ChildProcessError:
            pass
    sys.exit(128 + signum)


def main() -> int:
    global _current
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGALRM, _expire)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            _current = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            signal.alarm(JOB_TIMEOUT_S)
            _, status, usage = os.wait4(_current.pid, 0)
            signal.alarm(0)
            wall = time.perf_counter() - start
        _current.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "rc": _current.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
        }) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
