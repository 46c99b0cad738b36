"""A fixed piece of work that measures how fast the host is running this process.

The shared host runs the benchmark at speeds up to 1.8x apart: the speed
switches within a second and drifts over minutes, and every kind of op slows
down by the same factor.  The benchmark times this snippet right after every
op and scales that op's time (on ``sweep``, also the kernel build before it)
by a nominal snippet time over the snippet's time, which removes the host's
speed and keeps the program's.  The snippet does not depend on the program.  Only its second run
after an op is timed, because the first one pays to refill the caches the op
used (50% extra after an ``analyze`` op), which would tie the scale to the
program.
"""

from __future__ import annotations

import time

import numpy as np

_A = np.arange(16, dtype=complex)


def reference() -> float:
    out = np.zeros(16, dtype=complex)
    for i in np.nonzero(_A)[0][:6]:
        for j in range(4):
            out[(i + j) % 16] += _A[i] * 0.5
    return sum({k: k * 2 for k in range(20)}.values())


def timed_reference() -> int:
    """Nanoseconds of one reference() run, after an untimed warming run."""
    reference()
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0
