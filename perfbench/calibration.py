"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark host shares its cores with other tenants, and its speed
switches between states about 1.6x apart that last from seconds to many
minutes.  Every time the benchmark reports is therefore scaled to a
reference speed: it is multiplied by ``REFERENCE_S / t``, where ``t`` is the
time this kernel took next to the measurement.  The kernel does the same
kinds of work as the program, set intersections and dict updates in Python
plus a numpy reduction, on fixed inputs, and never calls the program.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

# About the kernel's time on the benchmark host in its fast state (a 2-vCPU
# cloud VM, CPython 3.11, numpy 2.4): 0.0102 s at best, 0.0128 s median over
# four minutes.  Reported times are scaled to this speed.
REFERENCE_S = 0.010


class Calibration:
    def __init__(self):
        rng = random.Random(20181016)
        n = 1500
        adj = [set() for _ in range(n)]
        for _ in range(6 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        self.adj = [frozenset(a) for a in adj]
        self.keys = [rng.randrange(4001) for _ in range(40000)]
        self.array = np.array(self.keys, dtype=np.int64)
        self.expected = self._kernel()

    def _kernel(self) -> int:
        adj = self.adj
        total = 0
        for nbrs in adj:
            for v in nbrs:
                total += len(nbrs & adj[v])
        counts: dict[int, int] = {}
        for key in self.keys:
            counts[key] = counts.get(key, 0) + 1
        total += max(counts.values())
        total += int(np.bincount(self.array, minlength=4001).argmax())
        return total

    def time(self) -> float:
        """Run the kernel once and return its wall time."""
        start = perf_counter()
        result = self._kernel()
        elapsed = perf_counter() - start
        if result != self.expected:
            raise RuntimeError("calibration kernel gave a different result")
        return elapsed

    def median(self, runs: int) -> float:
        return statistics.median(self.time() for _ in range(runs))
