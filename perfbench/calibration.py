"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU time of the same work drifts by up to 2x, in
phases from under a second to minutes, as other tenants contend for the
core and its caches. The benchmark therefore times a fixed pure-Python
kernel, which uses no SDX code, between the operations it measures, and
scales each operation's CPU time by ``NOMINAL_S`` over the mean kernel
time of the calibrations just before and just after it: the
operation's time on a machine where the kernel takes ``NOMINAL_S``. A
change to the SDX code moves the scaled times as it moves the raw ones;
a change of machine speed moves the kernel with them and cancels out.

The kernel mixes what the SDX pipeline spends its time on: small-object
allocation, attribute access, dict and set building with tuple keys,
sorting by key and string formatting.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Sequence

#: Kernel CPU time the scaled timings are expressed against (its median
#: on a 2-vCPU Intel Xeon guest under CPython 3.11 in a quiet phase).
NOMINAL_S = 0.0025

#: Kernel repetitions per calibration; the calibration is their median.
REPS = 5

#: Objects the kernel builds per repetition.
SIZE = 3000


class _Row:
    __slots__ = ("key", "value", "tag")

    def __init__(self, key: int, value: int, tag: str) -> None:
        self.key = key
        self.value = value
        self.tag = tag


def kernel(size: int = SIZE) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    rows = [_Row(i, (i * 2654435761) % 1000003, f"p{i % 97}")
            for i in range(size)]
    index: dict = {}
    for row in rows:
        index.setdefault(row.tag, []).append(row)
    total = 0
    for _, group in sorted(index.items()):
        group.sort(key=lambda row: row.value)
        total += len({row.value % 4093 for row in group}) + group[0].key
    pairs = {(a.key, b.key) for a, b in zip(rows, rows[1:])
             if a.value < b.value}
    return total + len(pairs)


def measure() -> float:
    """Median CPU seconds of one kernel repetition, now.

    The collector is off while the kernel runs, so the reading does not
    depend on how much garbage the measured program left behind.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            began = time.process_time()
            kernel()
            times.append(time.process_time() - began)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale_around(kernels: Sequence[float], index: int) -> float:
    """Factor from CPU seconds to nominal seconds for an operation run
    between calibrations ``index`` and ``index + 1``: ``NOMINAL_S`` over
    their mean kernel time, the machine's speed on both sides of it."""
    return NOMINAL_S / statistics.fmean(kernels[index:index + 2])
