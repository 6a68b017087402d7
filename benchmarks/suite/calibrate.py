"""A fixed CPU job, timed next to each request, that takes host speed out of timings.

On a machine that shares its host, how fast the vCPUs run changes by
tens of percent from one minute to the next, and the guest sees no
steal time for it.  Every timing moves with it.  The suite therefore
times this job right before each request (closed loops) or in the
daemon's idle gaps (serve-mix) and reports each request's time as a
multiple of the job's time next to it: a unit called ``cal``.  A
change to the program moves a metric in ``cal`` as it moves it in
seconds; a slow stretch of the host moves both the request and the job,
and cancels out.

The job mixes what the program spends its time on: a Python graph
search over dicts, sets and lists (as the max-flow solvers do) and
small numpy array operations (as the probability phase does).  It
takes about 7 ms on the reference machine and never changes.
"""

from __future__ import annotations

import time

import numpy as np

_NODES = 500
_GRAPH = {i: [(i * 7 + k) % _NODES for k in range(4)] for i in range(_NODES)}
_ARRAY = np.arange(4096.0)


def job() -> int:
    """The fixed work; returns a checksum so none of it can be skipped."""
    reached = 0
    for _ in range(20):
        seen = {0}
        stack = [0]
        while stack:
            for v in _GRAPH[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reached += len(seen)
    a = _ARRAY
    for _ in range(200):
        a = np.sort(a * 1.0001)
    return reached + int(a[-1] > a[0])


def seconds() -> float:
    """Wall time of one run of :func:`job`."""
    t0 = time.perf_counter()
    job()
    return time.perf_counter() - t0


# The first run pays for allocations no later run repeats.
job()
