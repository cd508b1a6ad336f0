"""Reference kernels that track the host's speed during a run.

The reference host runs at two speeds about 1.5x apart, in phases that
last from under a second to over a minute, and the slow phase stretches
short calls (a 0.04 ms catalog read) more than long ones (a 3 ms write
window).  A run can fall wholly inside one phase, so raw timings of the
same code spread by 15-60% across runs.

Two fixed pure-Python kernels live here, outside the program under test.
The benchmark times them along the measured phase — the small one right
after every write, where reads run, and the block one every
:data:`BLOCK_PERIOD_S` — and divides each operation's raw time by the
speed factor of its neighbourhood: the median kernel time within
:data:`WINDOW_S` of the operation over the kernel's reference time.  A
reported timing is therefore the operation's time at the reference
host's faster speed, in ms.  Reads use the small kernel, everything else
the block kernel.

The kernels free every object they allocate before they return, so
they leave the program's garbage-collection schedule as it was, and the
program's heap size does not enter their timing.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

#: kernel times (seconds) on the reference host at its faster speed; they
#: only set the scale of every reported time
SMALL_REF_S = 8.5e-6
BLOCK_REF_S = 6.9e-4
#: how often the block kernel runs, and the neighbourhood of a factor
BLOCK_PERIOD_S = 0.025
WINDOW_S = 0.05
#: factor bins: every operation in one bin shares a factor
BIN_S = 0.02


class _Row:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value):
        self.key = key
        self.value = value


# block kernel data: a hash join's build side and probe side
_PROBE_SIDE = tuple(_Row(i % 97, i) for i in range(600))
_BUILD_SIDE: dict[int, list[_Row]] = {}
for _index in range(600):
    _BUILD_SIDE.setdefault(_index % 97, []).append(_Row(_index % 97, _index * 3))
# small kernel data: point lookups into a keyed table
_TABLE = {i: _Row(i, (i, str(i))) for i in range(2000)}
_LOOKUPS = tuple((i * 37) % 2000 for i in range(60))


def _keep(row: _Row) -> bool:
    return row.value % 3 != 0


def _project(row: _Row) -> tuple:
    return (row.key, row.value)


def block_kernel() -> int:
    """A filtered hash-join probe, about as long as a few interactive
    writes.  Its tuples die as soon as they are hashed."""
    total = 0
    for left in _PROBE_SIDE:
        if not _keep(left):
            continue
        for right in _BUILD_SIDE.get(left.key, ()):
            if isinstance(right, _Row):
                total += hash((_project(left), right.value & 15)) & 7
    return total


def small_kernel() -> int:
    """Point lookups gathered and sorted, about as long as a catalog read."""
    found = []
    for key in _LOOKUPS:
        row = _TABLE.get(key)
        if row is not None and isinstance(row, _Row):
            found.append((row.key, row.value[1]))
    found.sort()
    return len(found)


class HostClock:
    """Kernel samples along one phase, and the speed factors they give."""

    def __init__(self) -> None:
        # parallel float lists: start time and duration of each sample
        self.small_at: list[float] = []
        self.small_s: list[float] = []
        self.block_at: list[float] = []
        self.block_s: list[float] = []
        self._next_block = 0.0

    def after_write(self) -> None:
        """Sample the small kernel, and the block kernel when it is due."""
        start = perf_counter()
        small_kernel()
        end = perf_counter()
        self.small_at.append(start)
        self.small_s.append(end - start)
        if end >= self._next_block:
            self.sample_block()

    def sample_block(self) -> None:
        start = perf_counter()
        block_kernel()
        end = perf_counter()
        self.block_at.append(start)
        self.block_s.append(end - start)
        self._next_block = end + BLOCK_PERIOD_S

    def small_factors(self) -> "Factors":
        return Factors(self.small_at, self.small_s, SMALL_REF_S)

    def block_factors(self) -> "Factors":
        return Factors(self.block_at, self.block_s, BLOCK_REF_S)


def block_factor_now(samples: int = 9) -> float:
    """Speed factor from back-to-back block kernels (around a setup)."""
    clock = HostClock()
    for _ in range(samples):
        clock.sample_block()
    return statistics.median(clock.block_s) / BLOCK_REF_S


class Factors:
    """Speed factor (kernel time ÷ reference) per time bin of a phase."""

    def __init__(self, times: list[float], values: list[float], reference: float):
        if not times:
            raise ValueError("no kernel samples to derive speed factors from")
        self.origin = times[0] - WINDOW_S
        bins = int((times[-1] - self.origin + 2 * WINDOW_S) / BIN_S) + 1
        self.bins = []
        for index in range(bins):
            centre = self.origin + (index + 0.5) * BIN_S
            lo = bisect.bisect_left(times, centre - WINDOW_S)
            hi = bisect.bisect_right(times, centre + WINDOW_S)
            if hi <= lo:  # no sample nearby: take the nearest one
                lo = min(max(lo - 1, 0), len(values) - 1)
                hi = lo + 1
            self.bins.append(statistics.median(values[lo:hi]) / reference)

    def typical(self) -> float:
        """The phase's median factor."""
        return statistics.median(self.bins)

    def __call__(self, when: float) -> float:
        index = int((when - self.origin) / BIN_S)
        return self.bins[min(max(index, 0), len(self.bins) - 1)]
