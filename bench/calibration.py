"""Host-speed calibration for the benchmark's times.

The benchmark runs on shared hosts whose cores run up to twice as slowly
while other tenants are busy, in stretches from a fraction of a second to
minutes.  No statistic over the program's own repetitions can tell such a
stretch from a slower program.  So every timed call is bracketed by
``pace()``, which times a fixed pure-Python reference loop (dict updates,
heap pushes and pops, string formatting and a sort, the same kinds of work
flowtrace does).  A run reports

    REFERENCE_S * sum(call seconds) / sum(pace seconds)

that is, the call's time on a host that runs the reference loop in
``REFERENCE_S``.  A slow stretch lengthens the call and the loop alike and
cancels out; a slower program does not.

A busy host does not slow all code alike.  Sorting a run's repetitions
into quartiles by how slow the host was (1.1 to 2.0 times slower), the
ratio of flowtrace's time to the loop's drifted by 12 to 14% across the
quartiles for a loop whose data fits in the first-level cache, by 6 to 12%
the other way for one that walks a 60 000-entry table, and by 3 to 4% for
the two halves together.  So the reference loop does half of its work in
each way.
"""

from __future__ import annotations

import heapq
import random
import time

# Iterations of each half of the reference loop, and the size of the
# table the second half walks; the loop takes about 15 ms on an unloaded core.
REFERENCE_ITERATIONS = 4_000
TABLE_SIZE = 60_000
# Best time of the reference loop on an unloaded core of the host the
# benchmark was built on (x86-64, 2 vCPUs, CPython 3).  It only sets the
# scale of the reported seconds; any fixed value would do.
REFERENCE_S = 0.0155


_TABLE = {f"k{i}": [i, str(i)] for i in range(TABLE_SIZE)}
_KEYS = list(_TABLE)


def reference_loop(n: int = REFERENCE_ITERATIONS) -> int:
    """A fixed amount of interpreter work; the result depends only on ``n``.

    The first half keeps its data in a few kilobytes, the second half
    reads and updates entries spread over a large table.
    """
    rng = random.Random(12345)
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    out: list[str] = []
    for i in range(n):
        key = rng.randrange(512)
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            _, j = heapq.heappop(heap)
            out.append(f"{j}:{counts[key]}")
    total = len(out) + sum(counts.values())
    far: list[tuple[int, int, str]] = []
    for i in range(n):
        key = _KEYS[rng.randrange(TABLE_SIZE)]
        entry = _TABLE[key]
        entry[0] += 1
        heapq.heappush(far, (entry[0], i, key))
        if len(far) > 256:
            _, j, key = heapq.heappop(far)
            out.append(f"{j}:{key}")
        total += len(entry[1])
    out.sort(key=len)
    return total + len(out)


def pace() -> float:
    """Seconds the reference loop takes right now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def corrected(seconds: float, pace_seconds: float) -> float:
    """``seconds`` scaled to a host that runs the loop in ``REFERENCE_S``."""
    return REFERENCE_S * seconds / pace_seconds
