"""Access-counter value objects shared across the memory substrate."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class AccessCounters:
    """Running totals of memory traffic into a DIMM, device or tier.

    ``media_reads``/``media_writes`` count *media-granule* operations —
    the quantity Intel's ``ipmctl show -performance`` reports for Optane —
    while ``bytes_read``/``bytes_written`` count logical demand bytes.
    """

    media_reads: int = 0
    media_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    random_reads: int = 0
    random_writes: int = 0

    @property
    def total_accesses(self) -> int:
        """Total media operations (reads + writes)."""
        return self.media_reads + self.media_writes

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def write_ratio(self) -> float:
        """Fraction of media operations that are writes (0 when idle)."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        return self.media_writes / total

    def add(self, other: "AccessCounters") -> None:
        """Accumulate ``other`` into this counter in place."""
        self.media_reads += other.media_reads
        self.media_writes += other.media_writes
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.random_reads += other.random_reads
        self.random_writes += other.random_writes

    def add_times(self, other: "AccessCounters", times: int) -> None:
        """Accumulate ``times`` copies of ``other`` in place: for integer
        counts, exactly what ``times`` calls of :meth:`add` produce."""
        self.media_reads += times * other.media_reads
        self.media_writes += times * other.media_writes
        self.bytes_read += times * other.bytes_read
        self.bytes_written += times * other.bytes_written
        self.random_reads += times * other.random_reads
        self.random_writes += times * other.random_writes

    def __add__(self, other: "AccessCounters") -> "AccessCounters":
        result = AccessCounters()
        result.add(self)
        result.add(other)
        return result

    def snapshot(self) -> "AccessCounters":
        """Copy of the current totals (for delta-based telemetry)."""
        return AccessCounters(
            media_reads=self.media_reads,
            media_writes=self.media_writes,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            random_reads=self.random_reads,
            random_writes=self.random_writes,
        )

    def delta(self, since: "AccessCounters") -> "AccessCounters":
        """Difference between this snapshot and an earlier one."""
        return AccessCounters(
            media_reads=self.media_reads - since.media_reads,
            media_writes=self.media_writes - since.media_writes,
            bytes_read=self.bytes_read - since.bytes_read,
            bytes_written=self.bytes_written - since.bytes_written,
            random_reads=self.random_reads - since.random_reads,
            random_writes=self.random_writes - since.random_writes,
        )


class PendingBursts:
    """Bursts counted but not yet added to the counters they feed.

    Each cell ``[bursts, delta, share]`` stands for ``bursts`` equal bursts
    whose ``delta`` goes to ``total`` and whose ``share`` goes to each of
    ``shares``.  :meth:`fold` adds ``bursts × delta`` and ``bursts ×
    share`` (for integer counts, exactly the repeated sums) and empties
    the list.  A device and its DIMMs share one, so reading any of their
    counters folds all of them, and no DIMM refers back to its device.
    """

    __slots__ = ("total", "shares", "cells")

    def __init__(self, total: AccessCounters) -> None:
        self.total = total
        self.shares: list[AccessCounters] = []
        self.cells: list[list] = []

    def fold(self) -> None:
        cells = self.cells
        if not cells:
            return
        for cell in cells:
            bursts, delta, share = cell
            cell[0] = 0
            self.total.add_times(delta, bursts)
            for counters in self.shares:
                counters.add_times(share, bursts)
        cells.clear()


@dataclass
class TrafficTotals:
    """Aggregated traffic summary with per-category breakdown."""

    by_category: dict[str, AccessCounters] = field(default_factory=dict)

    def category(self, name: str) -> AccessCounters:
        """Counter bucket for ``name``, created on first use."""
        if name not in self.by_category:
            self.by_category[name] = AccessCounters()
        return self.by_category[name]

    def total(self) -> AccessCounters:
        out = AccessCounters()
        for counters in self.by_category.values():
            out.add(counters)
        return out
