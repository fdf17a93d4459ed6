"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host the speed of one core drifts by up to 2x over minutes, and
a whole run can fall in a slow stretch.  The kernel is timed next to the
program's calls, in the same process; dividing a call's wall time by the
kernel's time at that moment removes the drift, because both slow down
together.  Times are then reported at reference speed: the speed at which
the kernel takes ``REFERENCE_S``, about its time on an idle core of the
2-core Xeon host the benchmark was written on.

    reference_time = wall_time * REFERENCE_S / kernel_time

A faster program gives smaller reference times; the kernel does not call
the package, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.00067


def kernel() -> int:
    """Small-integer arithmetic and dict traffic, the operations the
    package's engines spend their time on."""
    table: dict = {}
    acc = 0
    for i in range(4000):
        key = i & 255
        table[key] = table.get(key, 0) + i * 7
        acc += (i * i) % 13
    return acc + len(table)


def time_kernel() -> float:
    """Wall time of one run of the kernel, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(kernel_times) -> float:
    """Factor taking a wall time to reference speed, from kernel timings
    taken around it.  Their median stands for the host's speed: single
    timings jitter by a quarter either way within a tenth of a second."""
    return REFERENCE_S / statistics.median(kernel_times)
