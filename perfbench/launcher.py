"""Runs commands for the benchmark and reports their wall time and peak RSS.

Linux starts a child's ru_maxrss at the peak RSS of the process it was
forked from, so a benchmark process that has grown (numpy, generated
catalogs) would inflate every child's figure. This helper is a fresh, small
interpreter that imports nothing heavy, so the peak RSS it reports for each
child is the child's own.

Protocol: one JSON request per stdin line, {"argv": [...], "log": path};
one JSON reply per stdout line, {"code": int, "wall_s": float,
"maxrss_kb": int}. The helper exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
