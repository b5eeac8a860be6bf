"""Run one command and report its wall time and peak resident memory.

    python3 bench/launch.py REPORT_FILE COMMAND...

Writes ``{"wall_s", "cpu_s", "peak_rss_mb", "rc"}`` to REPORT_FILE and exits 0.
Linux counts the memory of the process that forked a child into the child's
peak, so the benchmark, which holds its inputs in memory, starts each timed
command through this small process instead of forking it itself.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    report, command = argv[0], argv[1:]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # and stop the child
    t0 = time.perf_counter()
    proc = subprocess.Popen(command)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
