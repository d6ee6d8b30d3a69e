"""Individual memory modules (DIMMs)."""

from __future__ import annotations

import math

from repro.memory.counters import AccessCounters, PendingBursts
from repro.memory.technology import MemoryTechnology


class Dimm:
    """One memory module: capacity, media counters and wear state.

    The device model (:class:`repro.memory.device.MemoryDevice`) stripes
    traffic across its DIMMs round-robin (interleaving), so per-DIMM
    counters are simply the device totals divided evenly — matching how a
    real interleaved namespace spreads load.  A DIMM of a device receives
    its share when the counters are read: reading :attr:`counters` folds
    the bursts the device has recorded since the last read.
    """

    def __init__(
        self,
        dimm_id: str,
        technology: MemoryTechnology,
        pending: PendingBursts | None = None,
    ) -> None:
        self.dimm_id = dimm_id
        self.technology = technology
        self._counters = AccessCounters()
        #: The owning device's pending bursts, which feed this DIMM too.
        self._pending = pending
        if pending is not None:
            pending.shares.append(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Dimm {self.dimm_id} {self.technology.name}>"

    @property
    def capacity(self) -> int:
        return self.technology.dimm_capacity

    @property
    def counters(self) -> AccessCounters:
        """This DIMM's running totals, with its device's pending bursts
        folded in."""
        if self._pending is not None:
            self._pending.fold()
        return self._counters

    # -- endurance ---------------------------------------------------------
    @property
    def media_writes(self) -> int:
        return self.counters.media_writes

    def wear_fraction(self) -> float:
        """Fraction of the module's total write endurance consumed.

        Assumes ideal wear leveling: total endurance is
        ``cells × endurance_per_cell`` where a "cell" is one media granule.
        DRAM returns 0.0 (infinite endurance).
        """
        endurance = self.technology.endurance_writes_per_cell
        if math.isinf(endurance):
            return 0.0
        cells = self.capacity / self.technology.access_granularity
        total_endurance = cells * endurance
        return min(1.0, self.counters.media_writes / total_endurance)

    def estimated_lifetime_seconds(self, elapsed: float) -> float:
        """Extrapolated time to wear-out at the observed write rate.

        Returns ``inf`` for DRAM or when no writes have occurred.
        """
        worn = self.wear_fraction()
        if worn <= 0.0 or elapsed <= 0.0:
            return float("inf")
        return elapsed / worn
