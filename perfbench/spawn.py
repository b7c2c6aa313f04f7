"""Lean launcher: runs one command at a time and reports its cost.

Reads requests from stdin, one per line, tab-separated:

    TIMEOUT_S <tab> STDOUT_PATH <tab> ARG0 <tab> ARG1 ...

and answers each with one line:

    WALL_S <tab> EXIT_CODE <tab> MAX_RSS_KB <tab> TIMED_OUT

run.py starts the children through this process, not directly,
because Linux seeds a new process's max-RSS figure with the resident
size of the process it was forked from. This launcher imports nothing
beyond os, signal, sys and time and allocates almost nothing, so the
max RSS that os.wait4 reports for each child is the child's own.
Each child's stderr goes to STDOUT_PATH + ".err"; a child still running
at TIMEOUT_S is killed. Exits when stdin closes.
"""

import os
import signal
import sys
import time


def _spawn(timeout: float, out_path: str, argv: list) -> str:
    out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(out_path + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_RDONLY)
            os.dup2(null, 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    os.close(out)
    os.close(err)
    timed_out = []

    def on_alarm(signum, frame):
        timed_out.append(True)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited just as the timer fired
            pass

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return f"{wall!r}\t{code}\t{usage.ru_maxrss}\t{int(bool(timed_out))}"


def main() -> None:
    for line in sys.stdin:
        timeout, out_path, *argv = line.rstrip("\n").split("\t")
        sys.stdout.write(_spawn(float(timeout), out_path, argv) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
