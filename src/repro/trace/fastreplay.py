"""Trace replay: re-time a captured trace with a specialised micro-kernel.

A replayable trace has a **fixed, fault-free workload shape**:
round-robin placement, one attempt per task, no retries, no
speculation, no injected losses.  Under that shape the event graph is
known up front, so this module walks it with a specialised micro-kernel
(a bare heap of ``(time, priority, seq)`` entries driving plain
generators) instead of the generic DES kernel, while calling the
*unchanged* model arithmetic — :meth:`MemoryDevice.service_time`/
:meth:`~MemoryDevice.record`, :meth:`CpuSpec.compute_seconds`, the
datanode share formula, the RAPL/ipmctl readers and the derived-event
formulas — against real :class:`MemoryDevice` instances.  Because the
walk schedules the same state-mutating events in the same relative
order as a direct run and every quantity is produced by the same code,
every simulated time, counter and energy value is **bit-identical** to
a direct simulation of the config
(:func:`repro.core.experiment.run_experiment`).

**Compile once, bind per replay.**  What the walk needs from a trace
does not depend on the timing point: per-task chunk counts, the
per-chunk and I/O access profiles, HDFS output sizes, metric deltas and
evaluation ranks.  The first replay of a decoded trace compiles them
(numpy-vectorized over the columnar
:class:`~repro.trace.records.TaskSetTrace` arrays) into an immutable
plan kept on that trace object, keyed by the checksum every replay
verifies plus the shuffle chunk size; later replays only bind a fresh
``TaskMetrics`` per task.  The plan is not a dataclass field, so it is
never pickled, checksummed or compared, and it goes when the decoded
trace does.  Every burst still calls the device's ``service_time`` and
``record`` once.  What a burst's counters gain depends only on the burst
and the kind of device, so the plan also owns
:class:`~repro.memory.device.DeltaTables`, one table per (technology,
DIMM count), which each replay binds its fresh device to: a ``record``
miss reads the deltas an earlier replay computed instead of computing
them again.  Service times depend on the tier and MBA level too, so
their memo stays with the replay's device, where a miss recomputes
only the burst's own terms.  ``record`` only counts a burst, and the
device folds the counted deltas into its and its DIMMs' counters when
the telemetry readers read them.

**Cheap events.**  The kernel loop resumes a generator inline and
merges the entry it hands back into the heap with the next pop
(``heappushpop``), so a process that stays the earliest never touches
the heap.  A task attempt is one generator frame, its memory bursts,
HDFS transfers and compute chunks written out, so a resume passes
through no ``yield from`` chain.  The yields are those of the executor
code the walk mirrors and each sequence number is drawn where its
process suspends, so entries pop in ``(time, priority, seq)`` order.

**Evaluation order.**  An RDD's record-size estimate is fixed by the
first non-empty partition evaluated (``RDD._observe``), so the
residues of every later task depend on which task that was.  With
several executors the evaluation order inside a stage can change with
tier, MBA level and socket.  The capture records each task's
evaluation rank and whether its evaluation fixed an estimate; at each
task's evaluation point the walk checks that a task which fixed one
finds exactly its capture-time predecessors already evaluated.  If
not, it raises :class:`~repro.trace.replay.ReplayDivergence`
("evaluation order differs from the capture") and
:func:`repro.trace.replay.run_with_trace` simulates the point directly.
Any other point the trace cannot reproduce — a trace/config mismatch, a
failed checksum, an unsized result feeding an HDFS write — raises the
same exception with the same fallback.

Observed runs (``observe=``) take this path too: given an observer the
re-timer emits the spans a direct simulation records — the
experiment/phase/job/stage stack spans, retrospective task spans with
their intra-task phases via :func:`repro.obs.hooks.emit_task_set_spans`,
per-executor jvm-startup/stage-broadcast spans and per-stage device
counter samples — stamped with the identical simulated times, plus the
``job.*`` / ``experiment.*`` / ``mitigation.*`` registry metrics.  The
``sim.events_*`` counters count micro-kernel events (the walk never
schedules through the generic kernel), which is the honest number for
what actually ran, and replay records no ``shuffle.*`` counters because
it never runs the shuffle manager.
"""

from __future__ import annotations

import typing as t
from collections import deque
from heapq import heappop, heappush, heappushpop
from itertools import count

import numpy as np

from repro.cluster.numactl import NumactlBinding
from repro.cluster.topology import paper_testbed
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.hdfs.filesystem import HdfsClient
from repro.memory.allocator import MembindAllocator
from repro.memory.device import AccessProfile, DeltaTables
from repro.memory.mba import BandwidthAllocator
from repro.memory.tiers import tier_by_id
from repro.obs.hooks import emit_task_set_spans, sample_device_counters
from repro.obs.simhooks import EVENTS_PROCESSED, EVENTS_SCHEDULED, FINAL_TIME
from repro.sim import Environment
from repro.spark.executor import (
    GC_WRITES_PER_CONCURRENT_TASK,
    STAGE_BROADCAST_BYTES,
    STAGE_BROADCAST_WRITES,
    STAGE_SETUP_OVERHEAD,
    STARTUP_CPU_SECONDS,
    STARTUP_RANDOM_READS,
    STARTUP_RANDOM_WRITES,
    STARTUP_STREAM_BYTES,
    TASK_CONTROL_BYTES,
)
from repro.spark.metrics import JobMetrics, StageMetrics, TaskMetrics
from repro.telemetry.collector import TelemetryCollector
from repro.trace.records import JobTrace, TaskSetTrace, WorkloadTrace, footprint
from repro.trace.replay import ReplayDivergence, check_compatible

__all__ = ["fast_replay_experiment", "plan_bytes"]


# -- micro-kernel ----------------------------------------------------------------
#
# Generators yield ``(op, arg)`` tuples:
#
#   (_TIMEOUT, delay)    suspend for ``delay`` simulated seconds
#   (_ACQUIRE, res)      claim one unit of a _FastResource (FIFO queue)
#   (_WAIT, ev)          wait for a _FastEvent (inline continue when done)
#
# Releases are synchronous (like ``Resource.release``) and go through
# ``_MicroKernel.release`` directly.  Priorities mirror the real kernel:
# process starts are URGENT (0) like ``Initialize``; timeouts, resource
# grants and completion events are NORMAL (1).  A monotonically
# increasing sequence number preserves relative scheduling order, which
# is exactly what the real kernel's event ids provide for the events
# that mutate model state.

_TIMEOUT = 0
_ACQUIRE = 1
_WAIT = 2


class _Proc:
    """One live generator plus its completion callback."""

    __slots__ = ("gen", "on_done")

    def __init__(self, gen: t.Generator, on_done: t.Callable[[], None] | None) -> None:
        self.gen = gen
        self.on_done = on_done


class _FastResource:
    """Counting FIFO resource with the real ``Resource`` grant semantics.

    ``count`` mirrors ``len(Resource._users)``: it rises when a request
    is granted (immediately at request time if capacity is free,
    otherwise inline during the releasing process's execution) and the
    granted process resumes via a scheduled event at the current time.
    """

    __slots__ = ("capacity", "count", "queue")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.count = 0
        self.queue: deque[_Proc] = deque()


class _FastEvent:
    """One-shot event: ``done`` flips when its completion entry pops."""

    __slots__ = ("done", "waiters")

    def __init__(self) -> None:
        self.done = False
        self.waiters: list[_Proc] = []


class _MicroKernel:
    """Heap-driven trampoline over plain generators.

    Keeps ``env._now`` in lock-step with its own clock so the real model
    objects hanging off the environment (devices, RAPL/ipmctl readers,
    the telemetry collector) observe exactly the times the generic
    kernel would have shown them.
    """

    __slots__ = ("now", "env", "_heap", "_seq", "processed")

    def __init__(self, env: Environment) -> None:
        self.now = env.now
        self.env = env
        self._heap: list[tuple[float, int, int, int, t.Any]] = []
        self._seq = count()
        #: Heap entries popped so far (observed runs report this as
        #: ``sim.events_processed`` — the micro-kernel's honest count).
        self.processed = 0

    def spawn(self, gen: t.Generator, on_done: t.Callable[[], None] | None = None) -> None:
        """Schedule a new process start (URGENT, like ``Initialize``)."""
        heappush(self._heap, (self.now, 0, next(self._seq), 0, _Proc(gen, on_done)))

    def fire(self, ev: _FastEvent) -> None:
        """Schedule an event completion (NORMAL, like ``Event.succeed``)."""
        heappush(self._heap, (self.now, 1, next(self._seq), 1, ev))

    def release(self, res: _FastResource) -> None:
        """Inline release + FIFO grant, like ``Resource.release``."""
        res.count -= 1
        queue = res.queue
        while queue and res.count < res.capacity:
            proc = queue.popleft()
            res.count += 1
            heappush(self._heap, (self.now, 1, next(self._seq), 0, proc))

    def run_until(self, remaining: list[int]) -> None:
        """Pop events until the counter cell hits zero.

        A resumed generator runs inline until it suspends.  The entry it
        hands back (a timeout or an immediate grant) is merged into the
        heap by the next pop with ``heappushpop``, which returns what a
        push followed by a pop would, without touching the heap when that
        entry is already the minimum.  Entries are unique in ``(time,
        priority, seq)``, so the pop order is the push-then-pop order,
        and every sequence number is drawn where the process suspends.
        The waiters of an event completion resume in subscription order,
        each one's entry pushed before the next runs, so all of them are
        on the heap before the next pop.
        """
        heap = self._heap
        env = self.env
        seq = self._seq
        popped = 0
        #: The last resumed process's next entry, not yet on the heap.
        entry = None
        #: Waiters of the last event completion still to resume, last first.
        waiting: list[_Proc] = []
        try:
            while True:
                if waiting:
                    if entry is not None:
                        heappush(heap, entry)
                        entry = None
                    proc = waiting.pop()
                elif not remaining[0]:
                    break
                else:
                    if entry is None:
                        time, _, _, kind, proc = heappop(heap)
                    else:
                        time, _, _, kind, proc = heappushpop(heap, entry)
                        entry = None
                    popped += 1
                    self.now = env._now = time
                    if kind:  # event completion: the payload is a _FastEvent
                        proc.done = True
                        waiting = proc.waiters
                        proc.waiters = []
                        waiting.reverse()
                        continue
                gen = proc.gen
                while True:
                    try:
                        op, arg = next(gen)
                    except StopIteration:
                        if proc.on_done is not None:
                            proc.on_done()
                        break
                    if op == _TIMEOUT:
                        entry = (time + arg, 1, next(seq), 0, proc)
                        break
                    if op == _ACQUIRE:
                        if arg.count < arg.capacity:
                            arg.count += 1
                            entry = (time, 1, next(seq), 0, proc)
                        else:
                            arg.queue.append(proc)
                        break
                    # _WAIT: continue inline when already done (the real
                    # kernel resumes inline on already-processed events).
                    if arg.done:
                        continue
                    arg.waiters.append(proc)
                    break
        finally:
            if entry is not None:
                heappush(heap, entry)
            self.processed += popped


# -- model state -----------------------------------------------------------------


class _FastExecutor:
    """Mirror of one :class:`~repro.spark.executor.Executor`'s DES state.

    Holds fast resources for its slots/dispatch plus references to the
    shared socket threads, the bound device's queue and the *real*
    device/path/CPU objects whose arithmetic produces every number.
    """

    __slots__ = (
        "executor_id",
        "slots",
        "dispatch",
        "threads",
        "queue",
        "device",
        "path",
        "core_bw",
        "cpu",
        "dispatch_overhead",
        "control_writes",
        "control_profiles",
        "allocator",
        "_heap",
        "startup_ev",
        "tier_id",
        "tracer",
    )

    def __init__(
        self,
        executor_id: int,
        conf: t.Any,
        socket: t.Any,
        memory: t.Any,
        threads: _FastResource,
        queue: _FastResource,
    ) -> None:
        self.executor_id = executor_id
        self.slots = _FastResource(conf.executor_cores)
        self.dispatch = _FastResource(1)
        self.threads = threads
        self.queue = queue
        self.device = memory.device
        self.path = memory.path
        self.core_bw = socket.cpu.core_stream_bandwidth
        self.cpu = socket.cpu
        self.dispatch_overhead = conf.task_dispatch_overhead
        self.control_writes = conf.task_control_writes
        #: Control-traffic burst per live slot count (it depends on
        #: nothing else).
        self.control_profiles: dict[int, AccessProfile] = {}
        # Strict membind, in executor order — an oversubscribed tier
        # raises the identical MemoryError a DES run would.
        self.allocator = MembindAllocator(memory.device)
        self._heap = self.allocator.allocate(conf.executor_memory)
        self.startup_ev: _FastEvent | None = None
        self.tier_id = memory.tier.tier_id
        #: Set by :func:`fast_replay_experiment` on observed runs; the
        #: process generators emit executor-track spans when present.
        self.tracer: t.Any | None = None

    def control_profile(self) -> AccessProfile:
        """``Executor._control_traffic``'s burst: churn sampled at the
        live slot count."""
        concurrent = max(1, self.slots.count)
        profile = self.control_profiles.get(concurrent)
        if profile is None:
            churn = self.control_writes + GC_WRITES_PER_CONCURRENT_TASK * concurrent
            profile = self.control_profiles[concurrent] = AccessProfile(
                bytes_written=TASK_CONTROL_BYTES,
                random_reads=0.7 * churn,
                random_writes=0.3 * churn,
            )
        return profile

    def startup_event(self, kernel: _MicroKernel) -> _FastEvent:
        """Lazily launch the JVM startup process (``ensure_started``)."""
        ev = self.startup_ev
        if ev is None:
            self.startup_ev = ev = _FastEvent()
            event = ev
            kernel.spawn(_startup(kernel, self), on_done=lambda: kernel.fire(event))
        return ev


class _FastDataNode:
    """Datanode stream pool + the real node for constants and counters."""

    __slots__ = ("streams", "bandwidth", "request_overhead", "node", "replication")

    def __init__(self, hdfs: HdfsClient) -> None:
        node = hdfs.datanode
        self.streams = _FastResource(node.streams.capacity)
        self.bandwidth = node.bandwidth
        self.request_overhead = node.request_overhead
        self.node = node
        self.replication = hdfs.replication


class _TaskData:
    """One task's compiled residue: everything its replayed attempt needs
    except the ``TaskMetrics`` it fills, which each replay binds afresh.

    Built once per trace by :func:`_compile_task_set` and shared by every
    replay of that trace, so nothing may mutate it after compilation.
    """

    __slots__ = (
        "task_id",
        "partition",
        "m_bytes_read",
        "m_bytes_written",
        "m_records_read",
        "m_records_written",
        "m_shuffle_bytes_read",
        "m_shuffle_bytes_written",
        "m_shuffle_records_read",
        "m_shuffle_records_written",
        "m_local_fetches",
        "m_remote_fetches",
        "m_spill_bytes",
        "m_cache_hits",
        "m_cache_misses",
        "ops",
        "random_reads",
        "random_writes",
        "n_chunks",
        "ops_chunk",
        "chunk_profile",
        "chunk_empty",
        "fetch_io",
        "out_nbytes",
        "is_shuffle_map",
        "eval_rank",
        "fixed_estimate",
    )


class _JobsView:
    """Minimal ``SparkContext`` stand-in for the telemetry collector."""

    __slots__ = ("jobs",)

    def __init__(self) -> None:
        self.jobs: list[JobMetrics] = []


# -- process generators ----------------------------------------------------------
#
# These replicate Executor._startup / stage_broadcast / run_task (with
# _control_traffic, _pay, DataNode.transfer and Socket.compute inlined)
# operation for operation; every arithmetic step calls the real model
# objects.


def _access(kernel: _MicroKernel, ex: _FastExecutor, profile: AccessProfile) -> t.Generator:
    """``MemoryDevice.access`` against the real device."""
    if profile.is_empty:
        return
    yield (_ACQUIRE, ex.queue)
    device = ex.device
    device._stream_started()
    service = device.service_time(profile, path=ex.path, core_stream_bw=ex.core_bw)
    yield (_TIMEOUT, service)
    device._stream_finished()
    kernel.release(ex.queue)
    device.record(profile)


#: The executor's fixed JVM-startup and stage-broadcast bursts.
_STARTUP_PROFILE = AccessProfile(
    bytes_read=STARTUP_STREAM_BYTES,
    bytes_written=STARTUP_STREAM_BYTES,
    random_reads=STARTUP_RANDOM_READS,
    random_writes=STARTUP_RANDOM_WRITES,
)
_BROADCAST_PROFILE = AccessProfile(
    bytes_read=STAGE_BROADCAST_BYTES,
    bytes_written=STAGE_BROADCAST_BYTES,
    random_reads=0.7 * STAGE_BROADCAST_WRITES,
    random_writes=0.3 * STAGE_BROADCAST_WRITES,
)


def _startup(kernel: _MicroKernel, ex: _FastExecutor) -> t.Generator:
    """``Executor._startup``: JVM launch cost on the bound tier."""
    started = kernel.now
    yield (_TIMEOUT, STARTUP_CPU_SECONDS)
    yield from _access(kernel, ex, _STARTUP_PROFILE)
    if ex.tracer is not None:
        ex.tracer.emit(
            "jvm-startup",
            cat="phase",
            begin=started,
            end=kernel.now,
            track=f"executor-{ex.executor_id}",
            tier=ex.tier_id,
            executor=ex.executor_id,
        )


def _broadcast(kernel: _MicroKernel, ex: _FastExecutor) -> t.Generator:
    """``Executor.stage_broadcast``: closure fetch behind the dispatcher."""
    yield (_WAIT, ex.startup_event(kernel))
    started = kernel.now
    yield (_ACQUIRE, ex.dispatch)
    yield (_TIMEOUT, STAGE_SETUP_OVERHEAD)
    yield from _access(kernel, ex, _BROADCAST_PROFILE)
    kernel.release(ex.dispatch)
    if ex.tracer is not None:
        ex.tracer.emit(
            "stage-broadcast",
            cat="phase",
            begin=started,
            end=kernel.now,
            track=f"executor-{ex.executor_id}",
            tier=ex.tier_id,
            executor=ex.executor_id,
        )


def _run_task(
    kernel: _MicroKernel,
    ex: _FastExecutor,
    dn: _FastDataNode,
    td: _TaskData,
    m: TaskMetrics,
    order: list[int],
) -> t.Generator:
    """One task attempt, op-for-op like ``Executor.run_task``.

    ``td`` is the task's compiled residue and ``m`` the fresh metrics
    record this replay fills.  ``order`` is the task set's ``[tasks
    evaluated, highest capture rank among them]``, shared by its tasks
    for the evaluation-order check.

    The attempt is one generator frame: each memory burst is
    ``MemoryDevice.access`` written out (queue slot, ``service_time``,
    timeout, ``record``), each HDFS transfer ``DataNode.transfer`` and
    each compute chunk ``Socket.compute``, yield for yield.
    """
    m.task_id = td.task_id
    m.partition = td.partition
    m.executor_id = ex.executor_id
    m.launch_time = kernel.now
    # Phase stamps accumulate only under observation, mirroring
    # ``Executor.run_task`` boundary for boundary.
    phases = m.phases if ex.tracer is not None else None
    release = kernel.release
    device = ex.device
    queue = ex.queue
    path = ex.path
    core_bw = ex.core_bw

    yield (_WAIT, ex.startup_event(kernel))
    yield (_ACQUIRE, ex.slots)

    dispatch_started = kernel.now
    yield (_ACQUIRE, ex.dispatch)
    yield (_TIMEOUT, ex.dispatch_overhead)
    release(ex.dispatch)
    m.dispatch_wait = kernel.now - dispatch_started
    if phases is not None:
        phases.append(("dispatch", dispatch_started, kernel.now))

    # Control traffic (``Executor._control_traffic``), sampled at the live
    # slot count.  Its profile writes TASK_CONTROL_BYTES, so it is never
    # empty.
    work_started = kernel.now
    profile = ex.control_profile()
    yield (_ACQUIRE, queue)
    device._stream_started()
    yield (_TIMEOUT, device.service_time(profile, path, core_bw))
    device._stream_finished()
    release(queue)
    device.record(profile)
    if phases is not None:
        phases.append(("control", work_started, kernel.now))

    threads = ex.threads
    cpu_wait_started = kernel.now
    yield (_ACQUIRE, threads)
    m.cpu_wait = kernel.now - cpu_wait_started

    # Evaluation: inject the recorded residue (Executor._evaluate +
    # TaskContext.drain_profile, collapsed).  A task whose capture-time
    # evaluation fixed a record-size estimate must find exactly its
    # capture-time predecessors evaluated, or the residues do not apply.
    rank = td.eval_rank
    if td.fixed_estimate and (order[0] != rank or order[1] > rank):
        raise ReplayDivergence("evaluation order differs from the capture")
    order[0] += 1
    if rank > order[1]:
        order[1] = rank
    m.bytes_read += td.m_bytes_read
    m.bytes_written += td.m_bytes_written
    m.records_read += td.m_records_read
    m.records_written += td.m_records_written
    m.shuffle_bytes_read += td.m_shuffle_bytes_read
    m.shuffle_bytes_written += td.m_shuffle_bytes_written
    m.shuffle_records_read += td.m_shuffle_records_read
    m.shuffle_records_written += td.m_shuffle_records_written
    m.local_fetches += td.m_local_fetches
    m.remote_fetches += td.m_remote_fetches
    m.spill_bytes += td.m_spill_bytes
    m.cache_hits += td.m_cache_hits
    m.cache_misses += td.m_cache_misses
    m.random_reads += td.random_reads
    m.random_writes += td.random_writes
    m.compute_ops += td.ops

    # Timed HDFS reads and disk-backed block cache traffic: a datanode
    # transfer (share sampled at admission), then the page-cache pass on
    # the tier.  Empty pages were compiled to None.
    streams = dn.streams
    node = dn.node
    fetch_started = kernel.now
    had_fetch = bool(td.fetch_io)
    for nbytes, write, page in td.fetch_io:
        yield (_ACQUIRE, streams)
        yield (_TIMEOUT, dn.request_overhead + nbytes / (dn.bandwidth / max(1, streams.count)))
        release(streams)
        if write:
            node.bytes_written += nbytes
        else:
            node.bytes_read += nbytes
        if page is not None:
            yield (_ACQUIRE, queue)
            device._stream_started()
            yield (_TIMEOUT, device.service_time(page, path, core_bw))
            device._stream_finished()
            release(queue)
            device.record(page)
    if phases is not None and had_fetch:
        phases.append(("fetch", fetch_started, kernel.now))

    # Chunked compute/memory payment (Executor._pay): one chunk profile
    # served ``n_chunks`` times, compute rate sampled at thread occupancy.
    pay_started = kernel.now
    ops_chunk = td.ops_chunk
    chunk_profile = td.chunk_profile
    chunk_busy = not td.chunk_empty
    cpu = ex.cpu
    for _ in range(td.n_chunks):
        if ops_chunk > 0:
            yield (_TIMEOUT, cpu.compute_seconds(ops_chunk, busy_threads=threads.count))
        if chunk_busy:
            yield (_ACQUIRE, queue)
            device._stream_started()
            yield (_TIMEOUT, device.service_time(chunk_profile, path, core_bw))
            device._stream_finished()
            release(queue)
            device.record(chunk_profile)
    if phases is not None:
        phases.append(
            (
                "shuffle-write" if td.is_shuffle_map else "compute",
                pay_started,
                kernel.now,
            )
        )

    # Spill traffic discovered during evaluation (never an empty burst).
    if m.spill_bytes > 0:
        spill_started = kernel.now
        spill = AccessProfile(bytes_read=m.spill_bytes, bytes_written=m.spill_bytes)
        yield (_ACQUIRE, queue)
        device._stream_started()
        yield (_TIMEOUT, device.service_time(spill, path, core_bw))
        device._stream_finished()
        release(queue)
        device.record(spill)
        if phases is not None:
            phases.append(("spill", spill_started, kernel.now))

    # Timed HDFS output write (page-cache staging + disk transfer).
    out_nbytes = td.out_nbytes
    if out_nbytes is not None:
        if out_nbytes < 0:
            # A truthy result that had no len(): the executor's output
            # write raises TypeError on it, which replay does not
            # reproduce; the caller simulates the point directly.
            raise ReplayDivergence("replay failed: recorded result had no len()")
        output_started = kernel.now
        if out_nbytes:
            page = AccessProfile(bytes_read=out_nbytes, bytes_written=out_nbytes)
            yield (_ACQUIRE, queue)
            device._stream_started()
            yield (_TIMEOUT, device.service_time(page, path, core_bw))
            device._stream_finished()
            release(queue)
            device.record(page)
        nbytes = out_nbytes * dn.replication
        yield (_ACQUIRE, streams)
        yield (_TIMEOUT, dn.request_overhead + nbytes / (dn.bandwidth / max(1, streams.count)))
        release(streams)
        node.bytes_written += nbytes
        if phases is not None:
            phases.append(("output", output_started, kernel.now))

    release(threads)
    teardown_started = kernel.now
    profile = ex.control_profile()
    yield (_ACQUIRE, queue)
    device._stream_started()
    yield (_TIMEOUT, device.service_time(profile, path, core_bw))
    device._stream_finished()
    release(queue)
    device.record(profile)
    if phases is not None:
        phases.append(("teardown", teardown_started, kernel.now))
    release(ex.slots)

    m.finish_time = kernel.now


# -- compiled plan ---------------------------------------------------------------


def _page(raw: float) -> AccessProfile | None:
    """The page-cache burst of ``raw`` bytes, or None when it is empty."""
    page = AccessProfile(bytes_read=raw, bytes_written=raw)
    return None if page.is_empty else page


def _compile_task_set(ts: TaskSetTrace, chunk_bytes: int) -> tuple[_TaskData, ...]:
    """Compile one stage's residues from the columnar arrays.

    Chunk counts, per-chunk profile fields and HDFS output sizes follow
    the exact scalar arithmetic of ``Executor._pay`` / ``run_task``
    (same float64 operations, same truncation), evaluated in batch.
    """
    f = ts.floats
    ops = f["compute_ops"]
    br = f["bytes_read"]
    bw = f["bytes_written"]
    rr = f["random_reads"]
    rw = f["random_writes"]

    # n_chunks = max(1, min(8, int(total_bytes / chunk_bytes) + 1)); the
    # truncated quotient is >= 0, so the +1 already enforces the floor.
    n_chunks = np.minimum(8, ((br + bw) / chunk_bytes).astype(np.int64) + 1)
    factor = 1.0 / n_chunks
    ops_chunk = ops / n_chunks
    chunk_br = br * factor
    chunk_bw = bw * factor
    chunk_rr = rr * factor
    chunk_rw = rw * factor
    chunk_empty = (br == 0) & (bw == 0) & (rr == 0) & (rw == 0)

    ints = ts.ints
    record_bytes = f["record_bytes"]
    result_len = ints["result_len"]
    truthy = ints["result_truthy"] != 0
    if ts.hdfs_path is not None:
        out_sizes = (result_len * record_bytes).astype(np.int64)
        # Unsized results (recorded len of -1) keep a negative sentinel
        # regardless of record_bytes; the walk turns a truthy one into
        # a ReplayDivergence.
        out_sizes[result_len < 0] = -1
        out_nbytes = out_sizes.tolist()
        out_mask = truthy.tolist()
    else:
        out_nbytes = None
        out_mask = None

    cols = {
        name: arr.tolist()
        for name, arr in (*f.items(), *ints.items())
        if name not in ("record_bytes", "result_len", "result_truthy")
    }
    n_chunks_l = n_chunks.tolist()
    ops_chunk_l = ops_chunk.tolist()
    chunk_br_l = chunk_br.tolist()
    chunk_bw_l = chunk_bw.tolist()
    chunk_rr_l = chunk_rr.tolist()
    chunk_rw_l = chunk_rw.tolist()
    chunk_empty_l = chunk_empty.tolist()

    io: dict[str, list[list[float]]] = {}
    for kind, (offsets, values) in ts.io.items():
        flat = values.tolist()
        flat_int = values.astype(np.int64).tolist()
        bounds = offsets.tolist()
        io[kind] = [
            list(zip(flat_int[bounds[i] : bounds[i + 1]], flat[bounds[i] : bounds[i + 1]]))
            for i in range(len(bounds) - 1)
        ]

    is_shuffle_map = ts.is_shuffle_map
    out: list[_TaskData] = []
    for i in range(ts.num_tasks):
        td = _TaskData()
        td.task_id = cols["task_id"][i]
        td.partition = cols["partition"][i]
        td.m_bytes_read = cols["m_bytes_read"][i]
        td.m_bytes_written = cols["m_bytes_written"][i]
        td.m_records_read = cols["m_records_read"][i]
        td.m_records_written = cols["m_records_written"][i]
        td.m_shuffle_bytes_read = cols["m_shuffle_bytes_read"][i]
        td.m_shuffle_bytes_written = cols["m_shuffle_bytes_written"][i]
        td.m_shuffle_records_read = cols["m_shuffle_records_read"][i]
        td.m_shuffle_records_written = cols["m_shuffle_records_written"][i]
        td.m_local_fetches = cols["m_local_fetches"][i]
        td.m_remote_fetches = cols["m_remote_fetches"][i]
        td.m_spill_bytes = cols["m_spill_bytes"][i]
        td.m_cache_hits = cols["m_cache_hits"][i]
        td.m_cache_misses = cols["m_cache_misses"][i]
        td.ops = cols["compute_ops"][i]
        td.random_reads = cols["random_reads"][i]
        td.random_writes = cols["random_writes"][i]
        td.n_chunks = n_chunks_l[i]
        td.ops_chunk = ops_chunk_l[i]
        td.chunk_profile = AccessProfile(
            bytes_read=chunk_br_l[i],
            bytes_written=chunk_bw_l[i],
            random_reads=chunk_rr_l[i],
            random_writes=chunk_rw_l[i],
        )
        td.chunk_empty = chunk_empty_l[i]
        # HDFS reads, then disk-cache reads and writes, in run_task's
        # order: ``(transfer bytes, write, page-cache burst or None)``.
        td.fetch_io = tuple(
            (nb, write, _page(raw))
            for kind, write in (
                ("hdfs_reads", False), ("disk_reads", False), ("disk_writes", True)
            )
            for nb, raw in io[kind][i]
        )
        td.out_nbytes = out_nbytes[i] if out_mask is not None and out_mask[i] else None
        td.is_shuffle_map = is_shuffle_map
        td.eval_rank = cols["eval_rank"][i]
        td.fixed_estimate = cols["fixed_estimate"][i]
        out.append(td)
    return tuple(out)


class _Plan:
    """A trace's compiled residues and the memory-model values its
    replays share.

    ``jobs`` holds, per job, per task set, its compiled tasks.
    ``deltas`` maps each burst to its counter deltas, one table per
    (technology, DIMM count), filled by the replays as they meet new
    bursts: a replay's bound device reads them there instead of
    recomputing what an earlier replay on the same kind of device did.
    """

    __slots__ = ("jobs", "deltas", "_jobs_bytes")

    def __init__(self, jobs: tuple[tuple[tuple[_TaskData, ...], ...], ...]) -> None:
        self.jobs = jobs
        self.deltas = DeltaTables()
        self._jobs_bytes: int | None = None

    @property
    def nbytes(self) -> int:
        """What the plan holds now: its compiled tasks and the delta
        tables its replays have filled so far.  The tasks never change,
        so they are sized once, on the first call: a plan nobody charges
        (a trace replayed outside a store) is never sized."""
        if self._jobs_bytes is None:
            self._jobs_bytes = footprint(self.jobs)
        return self._jobs_bytes + self.deltas.nbytes


def _compiled_plan(trace: WorkloadTrace, chunk_bytes: int) -> _Plan:
    """``trace``'s compiled plan, built on its first replay.

    The plan is kept on the trace object (not a dataclass field, so it
    is neither pickled, checksummed nor compared) under the checksum the
    caller has just verified plus the chunk size, so a trace whose
    residues were re-sealed compiles afresh.  It dies with the decoded
    trace, e.g. when :class:`~repro.trace.store.TraceStore`'s load cache
    drops it, and its delta tables with it; that cache charges both
    (:func:`plan_bytes`).
    """
    key = (trace.checksum, chunk_bytes)
    cached = getattr(trace, "_replay_plan", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    plan = _Plan(
        tuple(
            tuple(_compile_task_set(ts, chunk_bytes) for ts in job.task_sets)
            for job in trace.jobs
        )
    )
    trace._replay_plan = (key, plan)
    return plan


def plan_bytes(trace: WorkloadTrace) -> int:
    """Bytes the plan compiled onto ``trace`` holds now, with its delta
    tables; 0 before the trace's first replay.  After a plan's first
    call this costs O(1), so a cache of decoded traces can charge for
    plans on every load."""
    cached = getattr(trace, "_replay_plan", None)
    return 0 if cached is None else cached[1].nbytes


# -- stage/job walk --------------------------------------------------------------


def _run_task_set(
    kernel: _MicroKernel,
    executors: list[_FastExecutor],
    dn: _FastDataNode,
    tasks: tuple[_TaskData, ...],
    winners: list[TaskMetrics],
) -> None:
    """One ``run_task_set``: broadcasts first, then round-robin tasks,
    each compiled task filling its bound metrics record."""
    remaining = [len(executors) + len(tasks)]
    order = [0, -1]

    def done() -> None:
        remaining[0] -= 1

    for ex in executors:
        kernel.spawn(_broadcast(kernel, ex), on_done=done)
    pool_size = len(executors)
    for i, td in enumerate(tasks):
        ex = executors[i % pool_size]
        kernel.spawn(_run_task(kernel, ex, dn, td, winners[i], order), on_done=done)
    kernel.run_until(remaining)


def _replay_job(
    kernel: _MicroKernel,
    executors: list[_FastExecutor],
    dn: _FastDataNode,
    jobs: list[JobMetrics],
    job_trace: JobTrace,
    job_plan: tuple[tuple[_TaskData, ...], ...],
    tracer: t.Any | None = None,
    conf: t.Any | None = None,
    machine: t.Any | None = None,
    registry: t.Any | None = None,
) -> None:
    """Mirror of ``DAGScheduler.run_job``/``_submit_stage_attempt``
    metric bookkeeping for one recorded job.

    Observed runs pass tracer/conf/machine/registry and get the same
    job/stage stack spans, retrospective task spans, device-counter
    samples and ``job.*`` metrics a direct run records.
    """
    job = JobMetrics(
        job_id=job_trace.job_id,
        name=job_trace.name,
        submit_time=kernel.now,
    )
    job_span = None
    if tracer is not None:
        job_span = tracer.begin(
            job_trace.name or f"job-{job_trace.job_id}",
            cat="job",
            job_id=job_trace.job_id,
            replayed=True,
        )
    for ts, tasks in zip(job_trace.task_sets, job_plan):
        if ts.attempt > 0:
            job.resubmitted_stages += 1
        metrics = StageMetrics(
            stage_id=ts.stage_id,
            name=ts.name,
            num_tasks=ts.num_tasks,
            submit_time=kernel.now,
            attempt=ts.attempt,
        )
        # Bind: the only per-replay task state is a fresh metrics record.
        winners = [TaskMetrics(stage_id=ts.stage_id) for _ in tasks]
        stage_span = None
        if tracer is not None:
            stage_span = tracer.begin(
                ts.name or f"stage-{ts.stage_id}",
                cat="stage",
                stage_id=ts.stage_id,
                attempt=ts.attempt,
                num_tasks=ts.num_tasks,
                replayed=True,
            )
        if registry is not None:
            # One launch per task, as the scheduler counts them.
            registry.inc("scheduler.attempts_launched", float(len(tasks)))
        _run_task_set(kernel, executors, dn, tasks, winners)
        if tracer is not None:
            # The scheduler emits task spans before the stage span
            # closes; keep that nesting.
            emit_task_set_spans(tracer, conf, winners)
            tracer.end(stage_span)
            sample_device_counters(tracer, machine)
        metrics.tasks = winners
        metrics.attempts = list(winners)
        metrics.complete_time = kernel.now
        job.stages.append(metrics)
    job.complete_time = kernel.now
    if tracer is not None:
        tracer.end(job_span)
    if registry is not None:
        registry.inc_many(job.summary(), prefix="job.")
    jobs.append(job)


# -- entry point -----------------------------------------------------------------


def fast_replay_experiment(
    config: ExperimentConfig,
    trace: WorkloadTrace,
    observer: t.Any | None = None,
) -> ExperimentResult:
    """Re-time ``trace`` under ``config``; bit-identical to a direct run.

    Raises :class:`~repro.trace.replay.ReplayDivergence` whenever the
    trace cannot stand in for a direct simulation of ``config``: a
    trace/config mismatch, a failed checksum, an evaluation order that
    differs from the capture's where it fixed a record-size estimate, or
    any other failure during the walk.  Callers simulate directly
    instead.  An oversubscribed memory tier raises the identical
    ``MemoryError`` a direct run produces.  An attached
    :class:`repro.obs.Observer` records the replayed jobs with the same
    spans and registry metrics a direct run emits, stamped with the
    identical simulated times.
    """
    check_compatible(trace, config)
    if not trace.intact:
        raise ReplayDivergence("trace artifact failed its checksum")

    env = (
        observer.make_environment()
        if observer is not None
        else Environment()
    )
    machine = paper_testbed(env)
    conf = config.spark_conf()
    binding = NumactlBinding(conf.cpu_socket, tier_by_id(conf.memory_tier))
    socket, memory = binding.resolve(machine)
    hdfs = HdfsClient(env)
    kernel = _MicroKernel(env)
    threads = _FastResource(socket.cpu.hyperthreads)
    queue = _FastResource(
        memory.device.dimm_count * memory.device.technology.queue_depth_per_dimm
    )
    # Executor heap reservations in executor order: a tier too small for
    # the fleet raises MemoryError exactly like TaskScheduler.__init__.
    executors = [
        _FastExecutor(i, conf, socket, memory, threads, queue)
        for i in range(conf.num_executors)
    ]
    dn = _FastDataNode(hdfs)
    view = _JobsView()

    tracer = registry = None
    exp_span = None
    if observer is not None:
        observer.bind(env)
        tracer = observer.tracer
        registry = observer.registry
        for ex in executors:
            ex.tracer = tracer
        exp_span = tracer.begin(
            config.describe(),
            cat="experiment",
            workload=config.workload,
            size=config.size,
            tier=config.tier,
            socket=config.cpu_socket,
            executors=config.num_executors,
            cores=config.executor_cores,
            mba_percent=config.mba_percent,
            replayed=True,
        )

    def replay_jobs(first: int, stop: int | None) -> None:
        for job_trace, job_plan in zip(trace.jobs[first:stop], plan.jobs[first:stop]):
            _replay_job(
                kernel,
                executors,
                dn,
                view.jobs,
                job_trace,
                job_plan,
                tracer=tracer,
                conf=conf,
                machine=machine,
                registry=registry,
            )

    measured_from = trace.measured_from
    try:
        plan = _compiled_plan(trace, conf.shuffle_chunk_bytes)
        memory.device.share_deltas(plan.deltas)
        # Prepare-phase jobs ran before MBA throttling and telemetry.
        if tracer is not None:
            with tracer.span("prepare", cat="phase"):
                replay_jobs(0, measured_from)
        else:
            replay_jobs(0, measured_from)
        collector = TelemetryCollector(env, machine, metrics=registry)
        with BandwidthAllocator(machine.devices(), percent=config.mba_percent):
            collector.start(view)
            run_started = kernel.now
            if tracer is not None:
                with tracer.span("measure", cat="phase"):
                    replay_jobs(measured_from, None)
            else:
                replay_jobs(measured_from, None)
            execution_time = kernel.now - run_started
            sample = collector.stop(view)
    except ReplayDivergence:
        if tracer is not None:
            tracer.finish()
        raise
    except Exception as exc:  # pragma: no cover - defensive fallback
        if tracer is not None:
            tracer.finish()
        raise ReplayDivergence(f"replay failed: {exc}") from exc
    finally:
        for ex in executors:
            ex.allocator.free_all()

    mitigation: dict[str, float] = {}
    for job in view.jobs:
        for key, value in job.mitigation_summary().items():
            mitigation[key] = mitigation.get(key, 0) + value
    if tracer is not None:
        tracer.end(exp_span)
    if registry is not None:
        registry.set_gauge("experiment.execution_time", execution_time)
        registry.set_gauge(
            "experiment.records_processed", float(trace.records_processed)
        )
        registry.set_gauge("experiment.verified", float(trace.verified))
        registry.inc_many(mitigation, prefix="mitigation.")
        if observer.config.sim_events:
            # The walk never schedules through the generic kernel, so
            # report the micro-kernel's own activity: sequence draws are
            # heap pushes (scheduled), pops were counted (processed).
            registry.inc(EVENTS_SCHEDULED, float(next(kernel._seq)))
            registry.inc(EVENTS_PROCESSED, float(kernel.processed))
            registry.set_gauge(FINAL_TIME, env.now)
    return ExperimentResult(
        config=config,
        execution_time=execution_time,
        verified=trace.verified,
        telemetry=sample,
        records_processed=trace.records_processed,
        mitigation=mitigation,
    )
