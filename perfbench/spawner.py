"""Launch and time the benchmark's child processes from a small process.

A child's ``ru_maxrss`` also counts the peak RSS of the process that forked
it: Linux records the forking process's high-water mark when the child
calls exec.  Spawned straight from the benchmark, which parses documents
of up to 70 MB, every job would read at least the benchmark's own peak.
This process imports only the standard library and stays near 10 MB, below
any job, so the RSS it reports is the job's own.

Protocol, one JSON object per line: the request on stdin is
``{"cmd": [...], "log": path, "timeout": seconds}``, the reply on stdout is
``{"wall": seconds, "rss_mb": MB, "code": exit code}``.  Wall time runs
from spawn to exit.  A job past its timeout is killed.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(cmd, log, timeout) -> dict:
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> None:
    # terminated while waiting, it still kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["cmd"], request["log"], request["timeout"])), flush=True)


if __name__ == "__main__":
    main()
