"""A fixed piece of pure-Python work that tracks the machine's speed.

The benchmark's host is shared: its speed drifts by 1.4-2.8x in phases
that last from seconds to minutes, so a run that falls wholly inside a
slow phase is slow on every wall-time metric.  A pass therefore runs a
few yardstick chunks between its work items (outside their timing) and
the end-to-end times are scaled by :data:`REFERENCE_S` over the
median chunk time of the pass: they read as the wall time the pass
would have taken on a machine where one chunk takes
:data:`REFERENCE_S`.  The chunk does the kind of work the simulator
does (heap pushes and pops, dict updates, small-object allocation) and
touches none of the program's code, so a change to the program moves
the scaled times in the same proportion as the wall times.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: Seconds one chunk is taken to last on the reference machine (about
#: its median on an unloaded core of a 2-core container, Python 3.11).
REFERENCE_S = 0.0025
#: Chunks run at each sampling point between work items.
CHUNKS = 2


class _Node:
    __slots__ = ("key", "links")

    def __init__(self, key: int) -> None:
        self.key = key
        self.links: List[tuple] = []


def chunk() -> int:
    heap: List[tuple] = []
    table = {}
    nodes = []
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i % 211] = table.get(i % 211, 0) + i
        node = _Node(i)
        node.links.append((i, i + 1))
        nodes.append(node)
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    return total + len(nodes)


class Yardstick:
    """The chunk times of one pass and the seconds they took."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        for _ in range(CHUNKS):
            begin = time.perf_counter()
            chunk()
            self.times.append(time.perf_counter() - begin)
        self.spent += time.perf_counter() - started

    def scale(self) -> float:
        """The factor that turns this pass's wall times into reference
        times (1.0 when nothing was sampled)."""
        if not self.times:
            return 1.0
        return REFERENCE_S / statistics.median(self.times)
