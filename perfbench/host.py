"""How fast the host runs right now, measured with fixed work that does not
touch the program.

    python3 perfbench/host.py     prints calibrate() in a fresh interpreter
"""
import time

import numpy as np


def calibrate() -> float:
    """Seconds taken by fixed work that does not touch the program: numpy
    scalar draws and element updates in an interpreter loop, then passes
    over a 4 MB array.

    A shared host's speed drifts by half and more within minutes, longer
    than a run.  Each operation is bracketed by two calibrations, and its
    time over theirs follows the program's own cost much more steadily than
    its raw time does (METRICS.md has the figures).  The calibration is
    outside the operation's clock, and its arrays are freed on return.
    """
    g = np.random.Generator(np.random.PCG64(0))
    w = np.zeros(1024)
    start = time.perf_counter()
    acc = 0.0
    for i in range(25_000):
        acc += g.laplace()
        w[i & 1023] += acc
    a = np.linspace(0.0, 1.0, 500_000)
    for _ in range(8):
        np.subtract(a, 0.5, out=a)
        np.abs(a, out=a)
        np.cumsum(a, out=a)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(calibrate())
