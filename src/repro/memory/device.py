"""NUMA memory pool with a discrete-event service model.

A :class:`MemoryDevice` is one NUMA node's worth of DIMMs behind an
integrated memory controller.  Tasks issue *bursts* — an
:class:`AccessProfile` of streamed bytes plus latency-bound random
accesses — and the device turns each burst into simulated time:

- **Latency component**: random accesses pay the technology's idle
  latency (plus any NUMA-hop latency), divided by the memory-level
  parallelism a core sustains against the medium.
- **Bandwidth component**: streamed bytes move at the minimum of the
  core's streaming ability and the device's *fair share* bandwidth
  (device peak ÷ concurrent streams), optionally capped by an
  interconnect ceiling and the MBA throttle.
- **Queueing**: the controller admits a bounded number of in-flight
  bursts (``dimms × queue_depth_per_dimm``); excess bursts wait.  Optane's
  small queue depth makes it collapse under executor contention
  (Takeaway 6), exactly as in the paper's Fig. 4.

Determinism: service times depend only on the burst, the device state at
admission time, and static parameters — repeated runs are bit-identical.
That purity is also what lets each device memoize its arithmetic by
value (see :meth:`MemoryDevice.service_time` and
:meth:`MemoryDevice.record`), and lets ``record`` count bursts and fold
their counter deltas only when the counters are read.  It goes three
levels deep:

- a burst's counter deltas depend only on its profile, the technology
  and the DIMM count, so devices of many runs may share them through
  :class:`DeltaTables` (a replayed trace's compiled plan owns one, so
  every replay of the trace computes each delta once);
- a service time depends on the burst and its *context* (technology,
  path, core bandwidth, MLP overrides, MBA fraction) plus the active
  stream count, so a miss of the per-device memo recomputes only the
  burst's own terms: the context's constants are built once per
  context, its bandwidth ceilings once per stream count;
- the memo itself lives and dies with the device.
"""

from __future__ import annotations

import math
import typing as t
from dataclasses import dataclass, field

from repro.memory.counters import AccessCounters, PendingBursts
from repro.memory.dimm import Dimm
from repro.memory.technology import MemoryTechnology
from repro.sim import Environment, Resource
from repro.units import CACHE_LINE, gbps_to_bps

#: Streaming bandwidth one core can pull by itself (prefetcher-limited).
DEFAULT_CORE_STREAM_BW = gbps_to_bps(12.0)


@dataclass(frozen=True, slots=True)
class AccessProfile:
    """Memory demand of one task burst.

    ``bytes_read``/``bytes_written`` are sequential (streamed) volume;
    ``random_reads``/``random_writes`` count latency-bound accesses
    (hash probes, pointer chases, shuffle record scatter...).
    """

    bytes_read: float = 0.0
    bytes_written: float = 0.0
    random_reads: float = 0.0
    random_writes: float = 0.0
    #: Hash of the four values, computed once: every burst is a memo key
    #: of ``service_time`` and ``record``.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = (self.bytes_read, self.bytes_written, self.random_reads, self.random_writes)
        if (
            self.bytes_read < 0
            or self.bytes_written < 0
            or self.random_reads < 0
            or self.random_writes < 0
        ):
            for name, value in zip(
                ("bytes_read", "bytes_written", "random_reads", "random_writes"), values
            ):
                if value < 0:
                    raise ValueError(f"{name} must be non-negative")
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def is_empty(self) -> bool:
        return (
            self.bytes_read == 0
            and self.bytes_written == 0
            and self.random_reads == 0
            and self.random_writes == 0
        )

    def scaled(self, factor: float) -> "AccessProfile":
        """Uniformly scale the burst (e.g. split across chunks)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return AccessProfile(
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            random_reads=self.random_reads * factor,
            random_writes=self.random_writes * factor,
        )

    def __add__(self, other: "AccessProfile") -> "AccessProfile":
        return AccessProfile(
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            random_reads=self.random_reads + other.random_reads,
            random_writes=self.random_writes + other.random_writes,
        )


@dataclass(frozen=True)
class PathCharacteristics:
    """How a burst reaches the device: NUMA hops and interconnect limits.

    ``hop_latency`` is added to every random access; ``bandwidth_cap``
    ceilings the deliverable stream bandwidth (UPI); ``efficiency``
    derates device throughput for protocol pathologies (remote DDRT);
    ``mlp_factor`` derates a core's memory-level parallelism on this path
    — cross-socket misses overlap far less (fewer remote-tracking queue
    entries, directory round trips), a first-order cause of the large
    remote-access penalties the paper measures.  The effective MLP is
    floored at 1 so dependent-load (pointer-chase) latency still matches
    the idle spec.
    """

    hop_latency: float = 0.0
    bandwidth_cap: float = float("inf")
    efficiency: float = 1.0
    mlp_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.hop_latency < 0:
            raise ValueError("hop_latency must be non-negative")
        if self.bandwidth_cap <= 0:
            raise ValueError("bandwidth_cap must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if not 0 < self.mlp_factor <= 1:
            raise ValueError("mlp_factor must be in (0, 1]")
        # Hashed once, like AccessProfile: a path is part of every
        # ``service_time`` memo key.
        object.__setattr__(
            self,
            "_hash",
            hash((self.hop_latency, self.bandwidth_cap, self.efficiency, self.mlp_factor)),
        )

    def __hash__(self) -> int:
        return self._hash

    def effective_mlp(self, mlp: float) -> float:
        """Overlap achievable on this path (never below 1)."""
        return max(1.0, mlp * self.mlp_factor)


LOCAL_PATH = PathCharacteristics()

#: A burst's ``(device delta, per-DIMM delta)``.
Deltas = tuple[AccessCounters, AccessCounters]


class DeltaTables:
    """Counter deltas of bursts, shared by the devices bound to them.

    One table per (technology, DIMM count) maps a burst's profile to its
    ``(device delta, per-DIMM delta)``, which depend on nothing else.  A
    bound device (:meth:`MemoryDevice.share_deltas`) reads a burst's
    deltas here on a ``record`` miss and adds the ones it has to
    compute; an entry never changes once it is in, and nothing mutates
    a delta.  Whoever creates the tables owns them: the compiled plan of
    a replayed trace holds one, so they die with the decoded trace.
    """

    __slots__ = ("_tables", "__weakref__")

    def __init__(self) -> None:
        self._tables: dict[tuple[MemoryTechnology, int], dict[AccessProfile, Deltas]] = {}

    def table(self, technology: MemoryTechnology, dimm_count: int) -> dict[AccessProfile, Deltas]:
        """The table of ``technology`` on ``dimm_count`` DIMMs."""
        key = (technology, dimm_count)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {}
        return table


class MemoryDevice:
    """One NUMA node's memory pool (a set of interleaved DIMMs).

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Label used in reports (e.g. ``"numa2-nvm"``).
    technology:
        The medium of every DIMM in this pool.
    dimm_count:
        Number of interleaved DIMMs.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        technology: MemoryTechnology,
        dimm_count: int,
    ) -> None:
        if dimm_count < 1:
            raise ValueError("dimm_count must be >= 1")
        self.env = env
        self.name = name
        self.technology = technology
        self._counters = AccessCounters()
        #: Bursts recorded since the counters were last read, shared with
        #: the DIMMs (see :meth:`record`).
        self._pending = PendingBursts(self._counters)
        self.dimms = [
            Dimm(f"{name}/dimm{i}", technology, self._pending) for i in range(dimm_count)
        ]
        self.queue = Resource(
            env,
            capacity=dimm_count * technology.queue_depth_per_dimm,
            name=f"{name}-queue",
        )
        #: Streams currently inside the controller (granted queue slots
        #: actively transferring) — drives fair-share bandwidth.
        self._active_streams = 0
        #: Integrated busy time (at least one stream active), for reports.
        self.busy_time = 0.0
        self._busy_since: float | None = None
        #: MBA throttle: fraction of peak bandwidth deliverable (0, 1].
        self._mba_fraction = 1.0
        #: Where ``record`` finds and keeps counter deltas across devices
        #: (see :meth:`share_deltas`); ``None`` keeps them private.
        self._delta_tables: DeltaTables | None = None
        self._reset_memos()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryDevice {self.name} {self.technology.name} x{len(self.dimms)}>"
        )

    # -- static characteristics --------------------------------------------------
    @property
    def dimm_count(self) -> int:
        return len(self.dimms)

    @property
    def capacity(self) -> int:
        """Total pool capacity in bytes."""
        return sum(d.capacity for d in self.dimms)

    # -- capacity reservations --------------------------------------------------
    # Allocation accounting lives on the device so several allocators (one
    # per membind-ed executor) share one pool, like real NUMA nodes.
    @property
    def reserved_bytes(self) -> int:
        return getattr(self, "_reserved_bytes", 0)

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.reserved_bytes

    def reserve(self, nbytes: int) -> None:
        """Claim capacity; raises :class:`MemoryError` when exhausted."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes > self.free_bytes:
            raise MemoryError(
                f"{self.name}: requested {nbytes} bytes but only "
                f"{self.free_bytes} free"
            )
        self._reserved_bytes = self.reserved_bytes + nbytes

    def release_reservation(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._reserved_bytes = max(0, self.reserved_bytes - nbytes)

    @property
    def peak_read_bandwidth(self) -> float:
        """Aggregate sequential read bandwidth of the pool."""
        return self.dimm_count * self.technology.dimm_read_bandwidth

    @property
    def peak_write_bandwidth(self) -> float:
        return self.dimm_count * self.technology.dimm_write_bandwidth

    @property
    def mba_fraction(self) -> float:
        return self._mba_fraction

    def set_bandwidth_cap(self, fraction: float) -> None:
        """Throttle *per-core* deliverable bandwidth (Intel MBA emulation).

        Real MBA programs a request-rate delay between each core's L2 and
        the mesh — it ceilings what one core can pull, not the device's
        aggregate capability.  This is why the paper's Fig. 3 finds the
        workloads insensitive: their per-core streaming demand already
        sits below even a 10 % throttle, because their time goes to
        latency-bound accesses MBA does not delay.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self._mba_fraction = fraction

    # -- service model ------------------------------------------------------------
    def _reset_memos(self) -> None:
        """Start the value memos of ``service_time`` and ``record`` afresh
        for the current ``technology``.  Both call it whenever
        ``technology`` is no longer the object the memos were built for:
        :func:`repro.memory.faults.age_device` swaps it on a live device,
        and swaps it back.  Cells still pending keep the deltas they were
        recorded with until the next fold."""
        self._service_memo: dict[tuple, float] = {}
        self._record_memo: dict[AccessProfile, list] = {}
        self._memo_technology = self.technology
        tables = self._delta_tables
        #: The shared counter deltas of this technology and DIMM count,
        #: when the device is bound to tables.
        self._deltas: dict[AccessProfile, Deltas] | None = (
            None if tables is None else tables.table(self.technology, self.dimm_count)
        )
        #: ``_service_time``'s current context, its constants and its
        #: bandwidth ceilings by stream count (see ``_enter_context``).
        self._context: tuple | None = None
        self._constants: tuple = ()
        self._ceilings: dict[int, tuple[float, float, float, float]] = {}

    def share_deltas(self, tables: DeltaTables) -> None:
        """Read and keep counter deltas in ``tables`` from now on.

        ``record`` then computes a burst's deltas only when no device
        bound to the same tables has computed them for this technology
        and DIMM count.  The values are those it would compute itself.
        """
        self._delta_tables = tables
        self._reset_memos()

    def service_time(
        self,
        profile: AccessProfile,
        path: PathCharacteristics = LOCAL_PATH,
        core_stream_bw: float = DEFAULT_CORE_STREAM_BW,
        mlp_read: float | None = None,
        mlp_write: float | None = None,
    ) -> float:
        """Time to serve ``profile`` at the *current* contention level.

        Memoized by value on every input the arithmetic reads: the
        profile, path, core bandwidth and MLP overrides, plus the active
        stream count and MBA fraction at call time (the technology and
        DIMM count are fixed for the memo's lifetime).  Equal inputs
        give the identical float, so a hit returns exactly what a fresh
        computation would.
        """
        if self.technology is not self._memo_technology:
            self._reset_memos()
        key = (
            profile,
            path,
            core_stream_bw,
            mlp_read,
            mlp_write,
            self._active_streams,
            self._mba_fraction,
        )
        memo = self._service_memo
        total = memo.get(key)
        if total is None:
            total = memo[key] = self._service_time(
                profile, path, core_stream_bw, mlp_read, mlp_write
            )
        return total

    def _enter_context(
        self,
        context: tuple,
        path: PathCharacteristics,
        mlp_read: float | None,
        mlp_write: float | None,
    ) -> None:
        """Build the constants ``_service_time`` uses for ``context``:
        latency plus hop per direction, effective MLPs and the granule.
        The bandwidth ceilings, which also depend on the stream count,
        start empty."""
        tech = self.technology
        mlp_r = tech.mlp_read if mlp_read is None else mlp_read
        mlp_w = tech.mlp_write if mlp_write is None else mlp_write
        if mlp_r <= 0 or mlp_w <= 0:
            raise ValueError("memory-level parallelism must be positive")
        self._constants = (
            tech.read_latency + path.hop_latency,
            tech.write_latency + path.hop_latency,
            path.effective_mlp(mlp_r),
            path.effective_mlp(mlp_w),
            tech.access_granularity,
        )
        self._ceilings = {}
        self._context = context

    def _bandwidth_ceilings(
        self, streams: int, path: PathCharacteristics, core_stream_bw: float
    ) -> tuple[float, float, float, float]:
        """Bandwidths the current context grants at ``streams`` active
        streams: random reads, random writes, streamed reads, streamed
        writes.

        The pool's direction-specific peak is shared fairly among active
        streams, ceilinged by the interconnect cap and by what one core
        can pull.  Streamed bytes get the path-derated peak, and MBA
        throttles the core's request rate.  Random accesses move media
        granules at the *raw* peak (path efficiency is a loaded-streaming
        pathology that does not bind individual granule fetches), and
        MBA barely delays such dependent-miss traffic, the root of Fig.
        3's insensitivity (see :meth:`set_bandwidth_cap`).
        """
        peak_read = self.peak_read_bandwidth
        peak_write = self.peak_write_bandwidth
        cap = path.bandwidth_cap
        core_bw = core_stream_bw * self._mba_fraction
        ceilings = self._ceilings[streams] = (
            max(1.0, min(core_stream_bw, peak_read / streams, cap)),
            max(1.0, min(core_stream_bw, peak_write / streams, cap)),
            max(1.0, min(core_bw, peak_read * path.efficiency / streams, cap)),
            max(1.0, min(core_bw, peak_write * path.efficiency / streams, cap)),
        )
        return ceilings

    def _service_time(
        self,
        profile: AccessProfile,
        path: PathCharacteristics,
        core_stream_bw: float,
        mlp_read: float | None,
        mlp_write: float | None,
    ) -> float:
        # Everything but the burst's own values is fixed by the context
        # and the stream count, so it is computed once per context (and
        # stream count), with the same operations in the same order.  A
        # new technology resets the context (``_reset_memos``).
        context = (path, core_stream_bw, mlp_read, mlp_write, self._mba_fraction)
        if context != self._context:
            self._enter_context(context, path, mlp_read, mlp_write)
        streams = max(1, self._active_streams)
        ceilings = self._ceilings.get(streams)
        if ceilings is None:
            ceilings = self._bandwidth_ceilings(streams, path, core_stream_bw)
        read_latency, write_latency, mlp_r, mlp_w, gran = self._constants
        random_read_bw, random_write_bw, read_bw, write_bw = ceilings
        total = 0.0
        random_reads = profile.random_reads
        if random_reads:
            # Latency-bound until the media's random-access throughput
            # binds: every random access moves a full media granule, so
            # under concurrency the fair-share bandwidth is the ceiling
            # (the famous Optane random-access throughput collapse).
            total += max(
                random_reads * read_latency / mlp_r, random_reads * gran / random_read_bw
            )
        random_writes = profile.random_writes
        if random_writes:
            total += max(
                random_writes * write_latency / mlp_w, random_writes * gran / random_write_bw
            )
        if profile.bytes_read:
            total += profile.bytes_read / read_bw
        if profile.bytes_written:
            total += profile.bytes_written / write_bw
        return total

    def access(
        self,
        profile: AccessProfile,
        path: PathCharacteristics = LOCAL_PATH,
        core_stream_bw: float = DEFAULT_CORE_STREAM_BW,
        mlp_read: float | None = None,
        mlp_write: float | None = None,
    ) -> t.Generator:
        """Simulation process: serve one burst, including queueing.

        Usage from a process: ``elapsed = yield from device.access(p)``.
        Returns the burst's total residence time (queueing + service).
        """
        if profile.is_empty:
            return 0.0
        start = self.env.now
        with self.queue.request() as req:
            yield req
            self._stream_started()
            try:
                service = self.service_time(
                    profile,
                    path=path,
                    core_stream_bw=core_stream_bw,
                    mlp_read=mlp_read,
                    mlp_write=mlp_write,
                )
                yield self.env.timeout(service)
            finally:
                self._stream_finished()
        self.record(profile)
        return self.env.now - start

    def _stream_started(self) -> None:
        if self._active_streams == 0:
            self._busy_since = self.env.now
        self._active_streams += 1

    def _stream_finished(self) -> None:
        self._active_streams -= 1
        if self._active_streams == 0 and self._busy_since is not None:
            self.busy_time += self.env.now - self._busy_since
            self._busy_since = None

    @property
    def active_streams(self) -> int:
        return self._active_streams

    # -- accounting ------------------------------------------------------------
    @property
    def counters(self) -> AccessCounters:
        """The device's running totals, with every recorded burst folded in."""
        self._pending.fold()
        return self._counters

    def record(self, profile: AccessProfile) -> None:
        """Convert a served burst into media-level counters.

        Streamed bytes touch ``ceil(bytes / granule)`` granules; each random
        access touches one granule (sub-granule writes are read-modify-write
        at the media and therefore count as a full granule write — the write
        amplification that burns Optane endurance).

        The device and per-DIMM deltas depend only on the profile's
        values, the technology's granule and the DIMM count, so they are
        memoized by profile value: chunked payment, control traffic and
        replay serve equal profiles over and over.  A device bound to
        :class:`DeltaTables` takes a new profile's deltas from there when
        they are in (the technology and DIMM count pick the table).  A
        call only counts the burst in its memo cell ``[bursts, device
        delta, per-DIMM delta]``; reading ``counters`` on the device or
        on any of its DIMMs folds ``bursts × delta`` into all of them
        (:class:`~repro.memory.counters.PendingBursts`).  The deltas are
        integers, so each product equals the repeated sum and every
        counter is bit-identical to adding the deltas call by call.
        """
        if self.technology is not self._memo_technology:
            self._reset_memos()
        cell = self._record_memo.get(profile)
        if cell is None:
            table = self._deltas
            deltas = None if table is None else table.get(profile)
            if deltas is None:
                deltas = self._record_deltas(profile)
                if table is not None:
                    table[profile] = deltas
            cell = self._record_memo[profile] = [0, *deltas]
        if not cell[0]:
            self._pending.cells.append(cell)
        cell[0] += 1

    def _record_deltas(self, profile: AccessProfile) -> Deltas:
        """The device delta of one burst and each DIMM's share of it."""
        gran = self.technology.access_granularity
        delta = AccessCounters(
            media_reads=int(math.ceil(profile.bytes_read / gran))
            + int(round(profile.random_reads)),
            media_writes=int(math.ceil(profile.bytes_written / gran))
            + int(round(profile.random_writes)),
            bytes_read=int(profile.bytes_read + profile.random_reads * CACHE_LINE),
            bytes_written=int(
                profile.bytes_written + profile.random_writes * CACHE_LINE
            ),
            random_reads=int(round(profile.random_reads)),
            random_writes=int(round(profile.random_writes)),
        )
        # Interleaving spreads traffic evenly across the DIMMs.
        share = 1.0 / self.dimm_count
        per_dimm = AccessCounters(
            media_reads=int(round(delta.media_reads * share)),
            media_writes=int(round(delta.media_writes * share)),
            bytes_read=int(round(delta.bytes_read * share)),
            bytes_written=int(round(delta.bytes_written * share)),
            random_reads=int(round(delta.random_reads * share)),
            random_writes=int(round(delta.random_writes * share)),
        )
        return delta, per_dimm
