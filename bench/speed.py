"""Machine-speed calibration, shared by bench/run.py and bench/child.py.

On a shared machine the speed of every process drifts by tens of percent
within a minute.  calibration_s() times a fixed pure-Python kernel that
never touches bohmpart; REF_S / calibration_s() turns a time measured next
to it into seconds at reference speed.  The benchmark and its children are
pinned to one core, and samples are taken on it while nothing else of the
benchmark runs: between operations in the parent, and inside a child
process by its own timer (bench/child.py).
"""

from time import perf_counter

REF_S = 0.00155  # calibration_s() on the reference machine at its fastest
TICK_S = 0.25   # sampling period inside a child process


def calibration_s() -> float:
    t0 = perf_counter()
    acc = 0.0
    for i in range(15_000):
        acc += (i * 0.5) ** 0.5
    return perf_counter() - t0
