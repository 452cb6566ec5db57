"""The machine's momentary speed, measured by a fixed reference unit between operations.

The benchmark shares a 2-core machine whose speed drifts by up to 1.8x over
tens of seconds, mostly from other work competing for caches and memory.
Timed phases are cut into segments: one operation (a request, or one
summary inside ``evaluate``), then one reference unit.  The unit is fixed
work in the benchmark's own code, with the same kind of object-heavy Python
as the program: type-collapse frequency counting (``oracle``) over a window
of pseudo-queries that moves through a pool of several megabytes.  It does
not depend on the program or on the seed.

A segment's time is scaled by ``NOMINAL_UNIT_S / local unit time`` (local:
the median of the units on either side), which turns it into time at the
nominal speed.  A change in the program moves its segments and not the
units, so it shows in full.  Interference moves both, so it cancels.
"""

from __future__ import annotations

import statistics
import time
from array import array

from oracle import IRI, RDF_TYPE, VARIABLE, Stream, node_frequencies

# one unit's time on this machine when quiet (2-core x86-64 VM, Python 3.11.7)
NOMINAL_UNIT_S = 0.00025
POOL_RECORDS = 15_000
WINDOW = 40
NEIGHBOURS = 2

clock = time.perf_counter


def _pool(size: int):
    """Pseudo-queries shaped like the synthetic log: typed variables, links, constants."""
    rng = Stream(20240304)
    terms = {}

    def iri(name):
        return terms.setdefault(name, (IRI, "http://example.org/ref/" + name, None))

    variables = [(VARIABLE, f"v{i}", None) for i in range(8)]
    records = []
    for _ in range(size):
        patterns = []
        var = 0
        for _ in range(1 + rng.randrange(5)):
            roll = rng.randrange(3)
            if roll == 0:
                patterns.append((variables[var], RDF_TYPE, iri(f"C{rng.randrange(400)}")))
            elif roll == 1:
                patterns.append((variables[var], iri(f"p{rng.randrange(1300)}"),
                                 iri(f"E{rng.randrange(20000)}")))
            elif var < 7:
                patterns.append((variables[var], iri(f"p{rng.randrange(1300)}"), variables[var + 1]))
                var += 1
        records.append(patterns)
    return records


class Pace:
    def __init__(self, pool_records: int = POOL_RECORDS):
        self.pool = _pool(pool_records)
        self._cursor = 0
        self.units = array("d")
        self.segments = array("d")
        self._resume = clock()

    def unit(self) -> float:
        """Run one reference unit; returns its duration."""
        start = self._cursor
        self._cursor = (start + WINDOW) % (len(self.pool) - WINDOW)
        t0 = clock()
        node_frequencies(self.pool, range(start, start + WINDOW))
        return clock() - t0

    def reset(self) -> None:
        """Forget all segments and units."""
        del self.segments[:]
        del self.units[:]

    def start(self) -> None:
        self._resume = clock()

    def mark(self) -> int:
        """Close the current segment, run a unit, start the next; returns the segment index."""
        self.segments.append(clock() - self._resume)
        self.units.append(self.unit())
        self._resume = clock()
        return len(self.segments) - 1

    def factor(self, index: int) -> float:
        """Nominal over local unit time around segment ``index``."""
        lo = max(0, index - NEIGHBOURS)
        return NOMINAL_UNIT_S / statistics.median(self.units[lo:index + NEIGHBOURS + 1])

    def normalized(self) -> float:
        """Total segment time at the nominal speed."""
        return sum(seg * self.factor(i) for i, seg in enumerate(self.segments))

    def raw(self) -> float:
        return sum(self.segments)
