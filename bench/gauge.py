"""A speed gauge: fixed pure-Python work timed between the benchmark's phases.

The benchmark runs on shared machines whose speed changes from one half
hour to the next: the same ``paper-flows`` round took 15.5 s in one hour and
8.4 s in the next, so raw times from two sets of runs can differ twofold
with no change to the program.  The gauge times a fixed kernel shaped like
the program's hot loops (building a large list and dictionary while
combining 64-lane words, as AIG simulation and structural hashing do) at
the phase boundaries of a run.  The kernel is memory-heavy on purpose:
timed between chunks of real compile and SAT work on this machine, a
400,000-entry version correlated with the chunks' times at 0.58 per call,
against 0.33 for a 40,000-entry one that fits in cache.  A run's times at reference speed are its wall
times multiplied by ``factor()``.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.25  # the kernel's time at reference speed (see README.md)

_NODES = 200_000
_INPUTS = 256
_LANES = 64


class SpeedGauge:
    def __init__(self) -> None:
        x = 12345
        f0, f1 = [0] * _NODES, [0] * _NODES
        for node in range(_INPUTS, _NODES):
            lits = []
            for _ in range(2):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                lits.append(2 * (x % node) + ((x >> 16) & 1))
            f0[node], f1[node] = lits
        self.f0, self.f1 = f0, f1
        self.mask = (1 << _LANES) - 1
        rng = random.Random(0)
        self.inputs = [rng.getrandbits(_LANES) for _ in range(_INPUTS)]
        self.timings: list[float] = []
        self._kernel()  # the first call also grows the heap; keep it out

    def _kernel(self) -> int:
        f0, f1, mask = self.f0, self.f1, self.mask
        vals = self.inputs + [0] * (_NODES - _INPUTS)
        table: dict[int, int] = {}
        for node in range(_INPUTS, _NODES):
            a = f0[node]
            b = f1[node]
            va = vals[a >> 1]
            if a & 1:
                va ^= mask
            vb = vals[b >> 1]
            if b & 1:
                vb ^= mask
            vals[node] = va & vb
            key = (a << 32) | b
            if key not in table:
                table[key] = node
        return len(table)

    def read(self) -> None:
        """Time one kernel call, a fraction of a second."""
        t0 = time.perf_counter()
        self._kernel()
        self.timings.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Reference-speed seconds per wall second over this run.

        The mean, not a minimum, because the program's wall time also pays
        for the slow moments.
        """
        return REFERENCE_S / statistics.mean(self.timings)
