"""Run one command and print its exit code, wall time, CPU time and peak
RSS as a JSON list on stdout.

    python3 perfbench/launch.py COMMAND [ARG ...]

Linux carries the spawning process's memory high-water mark into the
child's ``ru_maxrss``, so a child started straight from run.py, which
holds a parsed corpus for its checks, would report run.py's peak instead
of its own.  This launcher is a fresh, small process, so the peak it
reports is the command's.  The command's stderr passes through.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0]))


if __name__ == "__main__":
    main()
