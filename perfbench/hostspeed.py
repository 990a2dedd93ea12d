"""Host-speed reference for the benchmark's timings.

The benchmark is meant to run on shared virtual machines whose speed
drifts: the same probe can take 70 ms for a minute and 140 ms the next,
because other tenants share the cores and caches.  Those states last
from under a second to minutes, so a run of a minute can land mostly in
a fast or mostly in a slow one, and more samples per run do not average
the drift out.

So the benchmark times a fixed reference pass (pure Python, independent
of the program: byte decoding, dictionary updates and a sort, the kinds
of work the program's storage layers do) between the timed operations,
when nothing else runs, and scales each operation's measured time by
``REFERENCE_SECONDS / t_ref``, where ``t_ref`` is the mean time of the
passes adjacent to that operation: the last one before it, the first one
after it, and any taken in a pause inside it.  The speed changes within
a second, so the adjacent passes track it better than a wider window
does; on a shared 2-vCPU VM a window of one second each side left twice
the run-to-run spread in the p90 latencies.  A timing therefore reads as
seconds on a host where one reference pass takes ``REFERENCE_SECONDS``:
a change to the program moves it, a change of the host's speed mostly
does not.  The
raw (unscaled) medians and the median reference time are printed beside
the result for comparison.
"""

from __future__ import annotations

import bisect
import random
import statistics

#: The nominal time of one reference pass: scaled timings read as
#: seconds on a host where one pass takes this long.
REFERENCE_SECONDS = 0.002

_RNG = random.Random(20240229)
_BYTES = _RNG.randbytes(16384)
_FLOATS = [_RNG.random() for __ in range(8192)]


def reference_pass() -> float:
    """A fixed piece of interpreter work: integer decoding from bytes,
    dictionary updates and a sort.  Its result only defeats dead-code
    elimination."""
    blob = _BYTES
    table: dict[int, float] = {}
    total = 0
    for offset in range(0, len(blob), 8):
        value = int.from_bytes(blob[offset:offset + 8], "little")
        total += value >> 60
        table[value & 255] = table.get(value & 255, 0.0) + 1.0
    for index, value in enumerate(_FLOATS):
        key = index & 511
        table[key] = table.get(key, 0.0) + value
    return total + sorted(_FLOATS[:4096])[0] + len(table)


class HostSpeed:
    """Reference timings over a run, and the scaling of operation times
    by them."""

    def __init__(self, clock):
        self.clock = clock
        self.at: list[float] = []
        self.seconds: list[float] = []

    def measure(self, passes: int = 1) -> None:
        """Time ``passes`` reference passes now; call it only while no
        timed operation is running."""
        clock = self.clock
        for __ in range(passes):
            started = clock()
            reference_pass()
            ended = clock()
            self.at.append((started + ended) / 2)
            self.seconds.append(ended - started)

    def reference(self, start: float, end: float) -> float:
        """Mean time of the passes inside ``[start, end]`` and of the
        nearest pass on each side of it."""
        low = max(0, bisect.bisect_left(self.at, start) - 1)
        high = min(len(self.at), bisect.bisect_right(self.at, end) + 1)
        return statistics.fmean(self.seconds[low:high])

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at reference speed."""
        return seconds * REFERENCE_SECONDS / self.reference(start, start + seconds)

    def median(self) -> float:
        return statistics.median(self.seconds)
