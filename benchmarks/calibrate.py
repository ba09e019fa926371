"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of up to two over seconds to minutes: process CPU time drifts with
wall time, so the slowdown is the host's, not this process's waiting.  The
timed metrics are therefore reported in *reference seconds*: each measured
interval is scaled by ``REF_S / k``, where ``k`` is the time this kernel took
right before and right after the interval.  The kernel uses no rankbin code,
so a faster or slower program moves the scaled figures exactly as it moves
the wall-clock ones, while a slower host moves the kernel and the interval
together and cancels out.

The kernel mixes the kinds of work the program does: interpreter-level
loops with dict and string work, numpy calls on a few hundred elements, and
one sort of 50,000 doubles.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal time of one kernel call, near its fastest on a 2-core shared Intel
# Xeon host (4.1 to 6.7 ms there).  Only ratios to it matter: it fixes the
# scale of the figures, never how two runs compare.
REF_S = 0.005

_RNG = np.random.default_rng(20231115)
_SMALL = _RNG.random(256)
_BIG = _RNG.random(50_000)


def kernel() -> float:
    """One fixed amount of mixed interpreter and numpy work."""
    acc = 0.0
    seen: dict[int, int] = {}
    parts = []
    for i in range(300):
        order = np.argsort(_SMALL, kind="stable")
        acc += float(np.cumsum(_SMALL[order])[-1])
        acc += int((_SMALL > _SMALL[i & 255]).sum())
        seen[i % 37] = seen.get(i % 37, 0) + i
        parts.append(f"{acc:.6g},{i}")
    acc += float(np.sort(_BIG)[100]) + len(",".join(parts))
    return acc


class HostClock:
    """Samples the kernel between timed intervals and scales them."""

    def __init__(self, reps: int):
        self.reps = reps
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel ``reps`` times; record and return seconds per call."""
        t0 = time.perf_counter()
        for _ in range(self.reps):
            kernel()
        k = (time.perf_counter() - t0) / self.reps
        self.samples.append(k)
        return k

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from wall seconds to reference seconds for one interval."""
        return REF_S / (0.5 * (before + after))

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.samples) if self.samples else 0.0
