"""Host time scaled to a reference speed.

On a virtual machine that shares its cores with other tenants (the 2-vCPU
machine behind the figures in README.md), the speed of one pure-Python
thread drifts by up to 2x, in phases from under a second to minutes long,
and the hypervisor takes the CPU away for milliseconds at a time.  Raw op
times swing with both.  So every timed interval is measured as wall time
and process CPU time, and is followed by one run of a fixed reference
kernel.  The CPU part is scaled by REF_NOMINAL_S over the mean of the
reference CPU times taken just before and just after the interval:

    scaled = cpu * REF_NOMINAL_S / mean(ref_before, ref_after)
             + (wall - cpu)    only for intervals that may sleep

Time off the CPU is kept only where the program sleeps by design (a
real-clock world); elsewhere the program never leaves the CPU, so time off
it is the host's, and is dropped.  The kernel mixes what the program
spends its time on: small slotted objects, struct packing, a heap, a dict
and a generator.  It shares no code with the program, so no change to the
program can change the reference.  It runs with the garbage collector off,
so the program's live heap cannot slow it.
"""

from __future__ import annotations

import gc
import heapq
import struct
import time

# Reference kernel CPU time on the README.md machine when it is quiet, so
# scaled times read close to the raw times of a quiet machine.
REF_NOMINAL_S = 0.0024
_KERNEL_ITERATIONS = 2000


def stamp() -> tuple[float, float]:
    """(wall, process CPU) seconds now."""
    return time.perf_counter(), time.process_time()


class _Item:
    __slots__ = ("key", "data")

    def __init__(self, key, data):
        self.key = key
        self.data = data


def _sink():
    while True:
        yield


def _kernel() -> float:
    pack = struct.Struct("<d")
    heap: list = []
    table: dict = {}
    sink = _sink()
    next(sink)
    total = 0.0
    for i in range(_KERNEL_ITERATIONS):
        item = _Item(i, pack.pack(i * 0.5))
        table[i & 1023] = item
        heapq.heappush(heap, (i * 7919 % 1009, i, item))
        if len(heap) > 64:
            heapq.heappop(heap)
        sink.send(item)
        total += pack.unpack_from(item.data, 0)[0]
    return total


class Meter:
    """Scales measured intervals.  `spent` is the (wall, CPU) time its own
    reference runs took, for callers that must subtract it."""

    def __init__(self):
        self.spent = (0.0, 0.0)
        self.samples: list[float] = []
        self._ref_s = self._reference()

    def _reference(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            w0, c0 = stamp()
            _kernel()
            w1, c1 = stamp()
        finally:
            if enabled:
                gc.enable()
        self.spent = (self.spent[0] + w1 - w0, self.spent[1] + c1 - c0)
        self.samples.append(c1 - c0)
        return c1 - c0

    def scale(self, wall: float, cpu: float, sleeps: bool = False) -> float:
        """Scale one interval that has just ended; takes the next sample."""
        before = self._ref_s
        after = self._ref_s = self._reference()
        cpu = min(max(cpu, 0.0), wall)
        scaled = cpu * REF_NOMINAL_S * 2.0 / (before + after)
        return scaled + (wall - cpu if sleeps else 0.0)
