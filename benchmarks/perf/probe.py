"""Host speed: converts host seconds on a shared machine to reference seconds.

On a shared virtual machine the same work can take 1.7x longer in one
minute than in the next, far more than any regression bound.  Two things
change: how much of the time the hypervisor gives the virtual CPU to
someone else (steal time, which Linux reports per CPU in ``/proc/stat``),
and how fast the CPU runs while we have it.  While a workload runs, this
script shares its CPU and, every 100 ms, times a fixed kernel in thread
CPU time (so its waits for the workload do not count) and reads that
CPU's steal counter (``python probe.py OUT CPU`` appends ``start
kernel_cpu_seconds steal_seconds`` lines to ``OUT`` until terminated).

An interval of ``d`` host seconds with ``s`` seconds stolen, during which
the kernel's median time was ``m``, is ``(d - s) * REFERENCE_S / m``
reference seconds (:class:`HostSpeed`).

The host speeds up and slows down cache-resident interpreter code more
than memory-bound code, so the kernel has one part of each: an
interpreter loop, and a full garbage collection, which chases pointers
through the heap as the collection ``repro serve`` runs after every job
does.  Their sum tracked every workload better than either part alone.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import os
import signal
import statistics
import sys
import time

#: Kernel time that defines one reference second: about its median on
#: the host the committed baseline was measured on (history.jsonl).
REFERENCE_S = 0.011

PERIOD_S = 0.1

#: Samples around an interval that set its scale: those within PAD_S
#: seconds of it, the margin doubling until at least MIN_SAMPLES are in.
PAD_S = 0.5
MIN_SAMPLES = 5


def kernel() -> None:
    """Dict, tuple, heap and float work, like the simulator's inner loops,
    then a full collection of every object the process holds."""
    table: dict[int, tuple[int, float]] = {}
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i in range(4000):
        table[i & 511] = (i, i * 0.5)
        heapq.heappush(heap, (table[(i >> 1) & 511][1], i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    gc.collect()


def stolen_s(cpu: int) -> float:
    """Seconds the hypervisor has taken from ``cpu`` since boot."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(prefix):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise ValueError(f"no {prefix.strip()} line in /proc/stat")


class HostSpeed:
    """Reference seconds for intervals, from samples taken around them."""

    def __init__(self, samples: list[tuple[float, float, float]]) -> None:
        samples = sorted(samples)
        self.starts = [start for start, _, _ in samples]
        self.durations = [duration for _, duration, _ in samples]
        self.steal = [steal for _, _, steal in samples]

    @classmethod
    def read(cls, path: str | os.PathLike) -> "HostSpeed":
        with open(path, encoding="ascii") as handle:
            rows = [line.split() for line in handle]
        # A line cut short by termination has fewer fields.
        return cls([tuple(map(float, r)) for r in rows if len(r) == 3])

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second of CPU time over ``[start, end]``."""
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.starts, start - pad)
            hi = bisect.bisect_right(self.starts, end + pad)
            if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(self.starts)):
                break
            pad *= 2
        if hi == lo:
            raise ValueError("no host-speed samples")
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def _steal_at(self, moment: float) -> float:
        """The steal counter at ``moment``, interpolated between samples."""
        i = bisect.bisect_left(self.starts, moment)
        if i == 0:
            return self.steal[0]
        if i == len(self.starts):
            return self.steal[-1]
        t0, t1 = self.starts[i - 1], self.starts[i]
        s0, s1 = self.steal[i - 1], self.steal[i]
        return s0 + (s1 - s0) * (moment - t0) / (t1 - t0)

    def seconds(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, in reference seconds."""
        end = start + seconds
        stolen = min(max(self._steal_at(end) - self._steal_at(start), 0.0), seconds)
        return (seconds - stolen) * self.factor(start, end)


class Unscaled(HostSpeed):
    """Host seconds as measured."""

    def __init__(self) -> None:
        super().__init__([])

    def factor(self, start: float, end: float) -> float:
        return 1.0

    def seconds(self, start: float, seconds: float) -> float:
        return seconds


def main() -> int:
    out, cpu = sys.argv[1], int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    # The kernel's collection chases pointers through these 40,000 lists
    # and tuples.
    heap = [[i, (i, str(i))] for i in range(20000)]  # noqa: F841
    with open(out, "a", encoding="ascii") as handle:
        while True:
            stolen = stolen_s(cpu)
            start = time.perf_counter()
            used = time.thread_time()
            kernel()
            used = time.thread_time() - used
            handle.write(f"{start!r} {used!r} {stolen!r}\n")
            handle.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    sys.exit(main())
