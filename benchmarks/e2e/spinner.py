"""Busy-wait on one CPU at idle priority until the parent exits.

Started by ``harness.AwakeCpus``; see there for why.
"""

import os
import sys


def main() -> None:
    parent = os.getppid()
    os.sched_setaffinity(0, {int(sys.argv[1])})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)  # the closest an unprivileged process may get
    while os.getppid() == parent:
        for __ in range(100_000):
            pass


if __name__ == "__main__":
    main()
