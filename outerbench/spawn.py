"""Run one command and report its wall time, exit code and own peak RSS.

    python3 -S outerbench/spawn.py STDOUT STDERR TIMEOUT_S PROGRAM [ARG ...]

Prints ``wall_s exit_code peak_rss_kib`` on one line.  The command's stdout
and stderr go to the files STDOUT and STDERR; it is killed after TIMEOUT_S
seconds.

This process stays small on purpose (``-S``, only ``os``, ``signal``,
``sys`` and ``time``).  On Linux, a child's ``ru_maxrss`` is at least the
resident size of the process that spawned it, because exec records the
old address space's high-water mark.  Spawned from ``run.py``
(about 20 MB), every call would read at least 20 MB; spawned from here
(about 8 MB), it reads the child's own peak, which is above that floor.
"""

import os
import signal
import sys
import time


def main() -> int:
    out_path, err_path, timeout, *argv = sys.argv[1:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
