"""The host's speed floor, from a fixed loop timed in the benchmark's process.

On a shared host the CPU runs at different speeds: it switches between fast
and slow stretches within seconds, and over minutes the fastest speed it
reaches moves too (by 20-40% on the host the benchmark was built on).  The
fastest round of a cell (metrics.py) removes the slow stretches but not the
moving floor.  So run.py times a short burst of this loop between its timed
calls, never beside them, and scales every time by REFERENCE_S over the
fastest burst of the run: both are the fastest speed the host gave in that
run.  The loop uses no program code, so a change to the program cannot move
the factor.
"""

from __future__ import annotations

import statistics
import time

# Fastest burst on the 2-vCPU AMD EPYC KVM guest the benchmark was built on,
# while its floor was low.  Scaled times are seconds at this speed.
REFERENCE_S = 0.0025
BURST_LOOPS = 5


def loop() -> int:
    table: dict[int, int] = {}
    items = list(range(256))
    acc = 0
    for i in range(25_000):
        acc = (acc * 31 + items[i & 255]) % 1_000_003
        table[acc & 1023] = table.get(i & 1023, 0) + 1
    return acc


def burst() -> float:
    """Median time of BURST_LOOPS runs of the loop, in seconds."""
    times = []
    for _ in range(BURST_LOOPS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(bursts: list[float]) -> float:
    """Multiplying a time taken in a run by this gives seconds at the
    reference speed: REFERENCE_S over the run's fastest burst."""
    return REFERENCE_S / min(bursts)
