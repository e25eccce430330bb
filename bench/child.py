"""`python bench/child.py ARGS` runs `python -m bohmpart ARGS` and samples speed.

speed.calibration_s() is timed at start, every speed.TICK_S seconds (from a
SIGALRM timer) and at exit, inside this process, so the samples see the core
the program runs on.  They are written as a JSON list to the file descriptor
in BENCH_SPEED_FD.
"""

import json
import os
import runpy
import signal
import sys

import speed


def main():
    fd = int(os.environ.pop("BENCH_SPEED_FD"))
    samples = [speed.calibration_s()]
    signal.signal(signal.SIGALRM, lambda *_: samples.append(speed.calibration_s()))
    signal.setitimer(signal.ITIMER_REAL, speed.TICK_S, speed.TICK_S)
    try:
        sys.argv = ["bohmpart", *sys.argv[1:]]
        runpy.run_module("bohmpart", run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples.append(speed.calibration_s())
        with os.fdopen(fd, "w") as out:
            json.dump(samples, out)


if __name__ == "__main__":
    main()
