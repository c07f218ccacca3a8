"""Starts benchmark child processes from a small, long-lived process.

On Linux a child's peak RSS (``ru_maxrss`` from ``os.wait4``) starts at
the high-water mark of the process that spawned it, so children must
not be spawned by run.py, whose memory grows while it validates
outputs.  This process imports only the standard library and serves
one request per line on stdin:

    {"argv": [...], "stdout": PATH, "stderr": PATH, "cwd": PATH,
     "env": {...}, "timeout": SECONDS}

and answers each with one line: {"wall_s", "rc", "peak_rss_mb"}.
A child still running at its timeout is killed and reported as such.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                req["argv"], stdout=out, stderr=err, cwd=req["cwd"], env=req["env"]
            )
        except OSError as exc:
            print(f"cannot start {req['argv'][:3]}: {exc}", file=err)
            return {"wall_s": 0.0, "rc": -1, "peak_rss_mb": 0.0}
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
