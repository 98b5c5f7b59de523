"""Small measurement helpers: host speed, percentiles, seeds and ``/proc``
readings."""

from __future__ import annotations

import bisect
import gc
import os
import random
import statistics
from time import perf_counter

#: Clock ticks per second of the ``/proc/<pid>/stat`` CPU counters.
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Median time of one :func:`reference_loop` on an uncontended 2-vCPU Xeon
#: KVM guest.  Times are reported as they would read at that host speed.
REFERENCE_S = 0.0013


def reference_loop() -> int:
    """Fixed pure-Python work: string keys, dict updates, list appends and a
    sort.  Nothing it allocates is tracked by the garbage collector except
    one list, so it leaves the program's collection schedule alone."""
    table: "dict[str, int]" = {}
    keys: "list[str]" = []
    for i in range(2500):
        key = str(i * 7919 % 1009)
        table[key] = table.get(key, 0) + i
        keys.append(key)
    keys.sort()
    return len(table) + len(keys)


def reference_seconds() -> float:
    """Wall time of one :func:`reference_loop`, with collections off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        reference_loop()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """How much slower than :data:`REFERENCE_S` the host ran around each op.

    The host shares its CPUs with other guests, and its speed swings by up to
    1.7x from one second to the next, with no CPU steal to show for it.  So a
    phase calls :meth:`checkpoint` between its ops, at moments when nothing
    else of the benchmark or the program runs; each checkpoint times *loops*
    reference loops in the calling thread.  The stretch between two
    checkpoints is a segment, and its slowdown is the median reference time
    of the two checkpoints around it over :data:`REFERENCE_S`.  A time
    measured in a segment divided by the segment's slowdown is the time at
    reference speed.
    """

    def __init__(self, loops: int):
        self.loops = loops
        self._starts: "list[float]" = []
        self._ends: "list[float]" = []
        self._times: "list[list[float]]" = []

    def checkpoint(self) -> None:
        """Time :attr:`loops` reference loops now."""
        self._starts.append(perf_counter())
        self._times.append([reference_seconds() for _ in range(self.loops)])
        self._ends.append(perf_counter())

    def slowdown(self, at: float) -> float:
        """Slowdown of the segment holding the ``perf_counter`` time *at*."""
        segment = bisect.bisect_right(self._ends, at) - 1
        return self._segment_slowdown(min(max(segment, 0), len(self._times) - 2))

    def _segment_slowdown(self, segment: int) -> float:
        around = self._times[segment] + self._times[segment + 1]
        return statistics.median(around) / REFERENCE_S

    def segments(self) -> "list[tuple[float, float]]":
        """``(seconds, slowdown)`` of each segment, checkpoints left out."""
        return [
            (self._starts[i + 1] - self._ends[i], self._segment_slowdown(i))
            for i in range(len(self._times) - 1)
        ]

    def wall_s(self) -> float:
        """Time between the first and the last checkpoint, theirs left out."""
        return sum(seconds for seconds, _ in self.segments())

    def scaled_wall_s(self) -> float:
        """:meth:`wall_s` at reference speed."""
        return sum(seconds / slowdown for seconds, slowdown in self.segments())

    def checkpoints_s(self) -> float:
        """Time spent in checkpoints."""
        return sum(end - start for start, end in zip(self._starts, self._ends))


def percentile(values, q: float) -> float:
    """The *q*-quantile (0..1) of *values*, interpolated between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def sub_seed(seed: int, purpose: str) -> int:
    """A seed for one input generator, derived from the run's ``--seed``."""
    return random.Random(f"{seed}:{purpose}").randrange(2**31)


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5), counted after the ")" closing the name.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_times() -> "list[int]":
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(v) for v in stat.readline().split()[1:]]


def steal_share(before: "list[int]", after: "list[int]") -> float:
    """Share of all CPU time between two :func:`cpu_times` readings that the
    hypervisor gave to other guests (the ``steal`` column)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already counted in user/nice
    return delta[7] / total if total > 0 else 0.0
