"""Executors: numactl-bound workers that turn task costs into time.

Each executor is pinned to one CPU socket (``--cpunodebind``) and one
memory tier (``--membind``).  A task's lifecycle:

1. claim a task slot (``executor_cores`` bounds in-flight tasks);
2. pass through the executor's single **dispatcher** critical section
   (task deserialization + launch bookkeeping) and write control state to
   the bound tier;
3. claim a socket hyperthread;
4. *evaluate* the partition pipeline eagerly (real Python computation,
   accumulating costs into the :class:`~repro.spark.task.TaskContext`);
5. pay the accumulated cost as interleaved compute/memory chunks against
   the socket and bound device — this is where tier latency, bandwidth
   sharing, queue contention and MBA throttling bite;
6. write result/control state back.

Shuffle-map tasks additionally bucket their output by the shuffle
partitioner (scatter writes), acquire execution memory for the buckets
(spilling on shortfall) and register segments with the shuffle manager.
"""

from __future__ import annotations

import typing as t

from repro.cluster.node import BoundMemory
from repro.cluster.socket import Socket
from repro.faults.errors import ExecutorLostError, TaskCrashedError
from repro.memory.allocator import MembindAllocator
from repro.memory.device import AccessProfile
from repro.sim import Environment, Resource
from repro.spark.block_manager import BlockManager
from repro.spark.conf import SparkConf
from repro.spark.memory_manager import UnifiedMemoryManager
from repro.spark.task import Task, TaskContext

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import TaskFault
    from repro.hdfs.filesystem import HdfsClient
    from repro.spark.shuffle import ShuffleManager

#: Bytes of control state written around each task (status, accumulators,
#: metrics, heartbeat buffers).
TASK_CONTROL_BYTES = 64 * 1024
#: Closure/broadcast volume every executor fetches per stage.
STAGE_BROADCAST_BYTES = 1024 * 1024
#: Random writes while installing a stage's closure/broadcast blocks.
STAGE_BROADCAST_WRITES = 20_000
#: Fixed driver-side stage bookkeeping time per executor per stage.
STAGE_SETUP_OVERHEAD = 2e-3
#: JVM startup: classloading + JIT + heap initialization.  The paper's
#: execution times are end-to-end ``spark-submit`` runs, so executor
#: launch sits inside the measured window; it is intensely memory-bound,
#: which is why a fleet of executors binding an NVM tier starts so much
#: slower (and why small workloads slow down as executors multiply —
#: Fig. 4 a/b/d).
STARTUP_CPU_SECONDS = 5e-3
STARTUP_STREAM_BYTES = 12 * 1024 * 1024
STARTUP_RANDOM_READS = 480_000
STARTUP_RANDOM_WRITES = 160_000
#: GC/allocator pressure: a fat executor running many concurrent tasks
#: churns its heap proportionally — card-table and barrier writes charged
#: per task per concurrently-running sibling.  This is the "fat vs
#: skinny executor" cost that lets many small executors win on
#: task-storm workloads (Fig. 4h).
GC_WRITES_PER_CONCURRENT_TASK = 500


class Executor:
    """One Spark executor process bound to a socket and a memory tier."""

    def __init__(
        self,
        env: Environment,
        executor_id: int,
        conf: SparkConf,
        socket: Socket,
        memory: BoundMemory,
        shuffle_manager: "ShuffleManager",
        hdfs: "HdfsClient | None" = None,
        recorder: t.Any | None = None,
        tracer: t.Any | None = None,
    ) -> None:
        self.env = env
        self.executor_id = executor_id
        self.conf = conf
        self.socket = socket
        self.memory = memory
        self.shuffle_manager = shuffle_manager
        self.hdfs = hdfs
        #: Optional trace recorder: receives each task's evaluation
        #: residue for the trace-once/replay-many engine (observation
        #: only; never alters the simulation).
        self.recorder = recorder
        #: Optional :class:`repro.obs.Tracer`.  When attached, each task
        #: attempt stamps its phases (dispatch/fetch/compute/shuffle-
        #: write/spill) into ``task.metrics.phases`` and executor-level
        #: work (JVM startup, stage broadcast) is emitted as spans.
        #: Observation only — no simulation event is ever created here.
        self.tracer = tracer
        self.slots = Resource(
            env, capacity=conf.executor_cores, name=f"executor{executor_id}-slots"
        )
        self.dispatch = Resource(env, capacity=1, name=f"executor{executor_id}-dispatch")
        self.memory_manager = UnifiedMemoryManager(
            conf.unified_memory_bytes, conf.storage_memory_bytes
        )
        self.block_manager = BlockManager(self.memory_manager)
        # Strict membind: reserve the heap on the bound device up front.
        self.allocator = MembindAllocator(memory.device)
        self._heap = self.allocator.allocate(conf.executor_memory)
        self.tasks_run = 0
        #: False once the executor process has been killed (fault
        #: injection); dead executors refuse new tasks and their cached
        #: blocks and shuffle outputs are gone.
        self.alive = True
        #: JVM startup event: triggered once the executor has launched;
        #: every task waits on it.  Created lazily so startup lands inside
        #: the first job's measured window (as in a real spark-submit).
        self._startup_done = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Executor {self.executor_id} socket={self.socket.socket_id} "
            f"tier={self.memory.tier.tier_id} cores={self.conf.executor_cores}>"
        )

    # -- cost payment helpers ------------------------------------------------------
    def _pay(self, ops: float, profile: AccessProfile) -> t.Generator:
        """Convert accumulated cost into simulated time, in chunks.

        Chunking samples device contention at a finite granularity so that
        concurrent tasks shape each other's bandwidth share.
        """
        chunk_bytes = self.conf.shuffle_chunk_bytes
        n_chunks = max(
            1, min(8, int(profile.total_bytes / chunk_bytes) + 1)
        )
        ops_chunk = ops / n_chunks
        profile_chunk = profile.scaled(1.0 / n_chunks)
        core_bw = self.socket.cpu.core_stream_bandwidth
        for _ in range(n_chunks):
            if ops_chunk > 0:
                yield from self.socket.compute(ops_chunk)
            if not profile_chunk.is_empty:
                yield from self.memory.device.access(
                    profile_chunk, path=self.memory.path, core_stream_bw=core_bw
                )

    def _startup(self) -> t.Generator:
        """JVM launch: classloading, JIT warmup, heap initialization.

        Every executor is membind-ed to the *same* tier, so a fleet of
        starting JVMs floods one device with allocation traffic — the
        "extra accesses for executor co-operation" effect (Takeaway 6)
        that makes NVM deployments degrade as executors multiply.
        """
        started = self.env.now
        yield self.env.timeout(STARTUP_CPU_SECONDS)
        profile = AccessProfile(
            bytes_read=STARTUP_STREAM_BYTES,
            bytes_written=STARTUP_STREAM_BYTES,
            random_reads=STARTUP_RANDOM_READS,
            random_writes=STARTUP_RANDOM_WRITES,
        )
        yield from self.memory.device.access(
            profile,
            path=self.memory.path,
            core_stream_bw=self.socket.cpu.core_stream_bandwidth,
        )
        if self.tracer is not None:
            self.tracer.emit(
                "jvm-startup",
                cat="phase",
                begin=started,
                end=self.env.now,
                track=f"executor-{self.executor_id}",
                tier=self.memory.tier.tier_id,
                executor=self.executor_id,
            )
        return None

    def ensure_started(self):
        """Event that triggers once the executor JVM is up."""
        if self._startup_done is None:
            self._startup_done = self.env.process(self._startup())
        return self._startup_done

    def kill(self) -> None:
        """Executor-loss fault: the process is gone.

        Cached blocks die with the heap, and the membind reservation is
        returned to the device.  The scheduler is responsible for
        interrupting in-flight task attempts and invalidating this
        executor's shuffle map outputs.
        """
        if not self.alive:
            return
        self.alive = False
        self.block_manager.drop_all()
        self.allocator.free_all()

    def _control_traffic(self) -> t.Generator:
        """Task launch/teardown control-plane writes on the bound tier.

        Includes GC/allocator pressure proportional to how many sibling
        tasks currently run in this executor: fat executors churn their
        shared heap harder (the skinny-vs-fat trade-off of Sec. IV-E).
        """
        concurrent = max(1, self.slots.count)
        churn = self.conf.task_control_writes + GC_WRITES_PER_CONCURRENT_TASK * concurrent
        # Control-plane churn is a read/write mix (heartbeat reads, status
        # writes, GC mark reads + card-table writes).
        # Heartbeat polling and GC marking are read-dominated; status and
        # card-table writes are the smaller share.
        profile = AccessProfile(
            bytes_written=TASK_CONTROL_BYTES,
            random_reads=0.7 * churn,
            random_writes=0.3 * churn,
        )
        yield from self.memory.device.access(
            profile,
            path=self.memory.path,
            core_stream_bw=self.socket.cpu.core_stream_bandwidth,
        )

    def stage_broadcast(self) -> t.Generator:
        """Per-stage closure/broadcast fetch (runs once per executor).

        Holds the dispatcher so the executor cannot start tasks until its
        stage setup is done — the "executor co-operation" overhead that
        multiplies with executor count (Takeaway 6).
        """
        yield self.ensure_started()
        started = self.env.now
        with self.dispatch.request() as req:
            yield req
            yield self.env.timeout(STAGE_SETUP_OVERHEAD)
            profile = AccessProfile(
                bytes_read=STAGE_BROADCAST_BYTES,
                bytes_written=STAGE_BROADCAST_BYTES,
                random_reads=0.7 * STAGE_BROADCAST_WRITES,
                random_writes=0.3 * STAGE_BROADCAST_WRITES,
            )
            yield from self.memory.device.access(
                profile,
                path=self.memory.path,
                core_stream_bw=self.socket.cpu.core_stream_bandwidth,
            )
        if self.tracer is not None:
            self.tracer.emit(
                "stage-broadcast",
                cat="phase",
                begin=started,
                end=self.env.now,
                track=f"executor-{self.executor_id}",
                tier=self.memory.tier.tier_id,
                executor=self.executor_id,
            )
        return None

    # -- task lifecycle --------------------------------------------------------------
    def run_task(
        self,
        task: Task,
        hdfs_path: str | None = None,
        fault: "TaskFault | None" = None,
    ) -> t.Generator:
        """Simulation process executing one task attempt end to end.

        ``fault`` (from the injector) can make this attempt crash after a
        fraction of its work, or stretch its memory-bound phase into a
        straggler (tier-latency spike).
        """
        env = self.env
        task.metrics.task_id = task.task_id
        task.metrics.stage_id = task.stage_id
        task.metrics.partition = task.partition
        task.metrics.executor_id = self.executor_id
        task.metrics.attempt = task.attempt
        task.metrics.speculative = task.speculative
        task.metrics.launch_time = env.now
        crash = fault is not None and fault.kind == "crash"
        # Phase stamps accumulate only under observation; ``None`` keeps
        # the hot path to one branch per phase boundary.
        phases = task.metrics.phases if self.tracer is not None else None

        if not self.alive:
            raise ExecutorLostError(self.executor_id, "assigned to dead executor")

        yield self.ensure_started()

        with self.slots.request() as slot:
            yield slot

            # Dispatcher critical section: task deserialization + launch
            # bookkeeping (single dispatcher thread per executor).
            dispatch_started = env.now
            with self.dispatch.request() as dreq:
                yield dreq
                yield env.timeout(self.conf.task_dispatch_overhead)
            task.metrics.dispatch_wait = env.now - dispatch_started
            if phases is not None:
                phases.append(("dispatch", dispatch_started, env.now))
            # Straggler faults stretch everything the attempt does from
            # here on (control traffic, evaluation, memory payment).
            work_started = env.now
            # Control-plane writes happen outside the critical section
            # (parallel across in-flight tasks, serialized only by the
            # device queue itself).
            yield from self._control_traffic()
            if phases is not None:
                phases.append(("control", work_started, env.now))

            # Claim a hyperthread for the task's working lifetime.
            cpu_wait_started = env.now
            with self.socket.threads.request() as thread:
                yield thread
                task.metrics.cpu_wait = env.now - cpu_wait_started

                ctx = TaskContext(self, task.metrics)
                # A crashing attempt must leave no shuffle output behind.
                result = self._evaluate(task, ctx, register=not crash)
                ops, profile = ctx.drain_profile()
                if crash:
                    # Die partway through: only a fraction of the work
                    # (and its memory traffic) actually happened.
                    ops *= fault.work_fraction
                    profile = profile.scaled(fault.work_fraction)

                # Timed HDFS reads queued by source RDDs.  HDFS I/O moves
                # through the OS page cache, which `numactl --membind`
                # places on the bound tier: every block read is a disk
                # transfer *plus* a page-cache write + user-copy read on
                # the tier device.
                fetch_started = env.now
                had_fetch = bool(
                    ctx.pending_hdfs_reads
                    or ctx.pending_disk_reads
                    or ctx.pending_disk_writes
                )
                for nbytes in ctx.pending_hdfs_reads:
                    if self.hdfs is not None:
                        yield from self.hdfs.stream_read(int(nbytes))
                    yield from self.memory.device.access(
                        AccessProfile(bytes_read=nbytes, bytes_written=nbytes),
                        path=self.memory.path,
                        core_stream_bw=self.socket.cpu.core_stream_bandwidth,
                    )
                ctx.pending_hdfs_reads.clear()

                # Disk-backed block cache traffic (MEMORY_AND_DISK /
                # DISK_ONLY levels): timed local-disk transfers plus the
                # page-cache pass on the bound tier.
                for nbytes, write in [
                    *((n, False) for n in ctx.pending_disk_reads),
                    *((n, True) for n in ctx.pending_disk_writes),
                ]:
                    if self.hdfs is not None:
                        yield from self.hdfs.datanode.transfer(
                            int(nbytes), write=write
                        )
                    yield from self.memory.device.access(
                        AccessProfile(bytes_read=nbytes, bytes_written=nbytes),
                        path=self.memory.path,
                        core_stream_bw=self.socket.cpu.core_stream_bandwidth,
                    )
                ctx.pending_disk_reads.clear()
                ctx.pending_disk_writes.clear()
                if phases is not None and had_fetch:
                    phases.append(("fetch", fetch_started, env.now))

                pay_started = env.now
                yield from self._pay(ops, profile)
                if phases is not None:
                    phases.append(
                        (
                            "shuffle-write" if task.is_shuffle_map else "compute",
                            pay_started,
                            env.now,
                        )
                    )

                # Spill traffic discovered during evaluation (execution
                # memory shortfall): write out + read back on the tier.
                if ctx.metrics.spill_bytes > 0:
                    spill_started = env.now
                    spill = AccessProfile(
                        bytes_read=ctx.metrics.spill_bytes,
                        bytes_written=ctx.metrics.spill_bytes,
                    )
                    yield from self.memory.device.access(
                        spill,
                        path=self.memory.path,
                        core_stream_bw=self.socket.cpu.core_stream_bandwidth,
                    )
                    if phases is not None:
                        phases.append(("spill", spill_started, env.now))

                if fault is not None and fault.kind == "straggler":
                    # Tier-latency spike: everything the attempt did since
                    # dispatch is stretched by the configured multiplier —
                    # exactly the raw material speculation exists for.
                    stretch = (env.now - work_started) * (
                        fault.multiplier - 1.0
                    )
                    if stretch > 0:
                        stretch_started = env.now
                        yield env.timeout(stretch)
                        if phases is not None:
                            phases.append(
                                ("straggle", stretch_started, env.now)
                            )

                if crash:
                    task.metrics.finish_time = env.now
                    task.metrics.status = "FAILED"
                    raise TaskCrashedError(
                        task.task_id, task.attempt, self.executor_id
                    )

                # Timed HDFS output write, when this job saves a file
                # (page-cache staging on the bound tier + disk transfer).
                if hdfs_path is not None and self.hdfs is not None and result:
                    output_started = env.now
                    nbytes = int(len(result) * task.rdd.record_bytes)
                    yield from self.memory.device.access(
                        AccessProfile(bytes_read=nbytes, bytes_written=nbytes),
                        path=self.memory.path,
                        core_stream_bw=self.socket.cpu.core_stream_bandwidth,
                    )
                    yield from self.hdfs.stream_write(nbytes)
                    if phases is not None:
                        phases.append(("output", output_started, env.now))

            # Teardown: status + metrics write-back.
            teardown_started = env.now
            yield from self._control_traffic()
            if phases is not None:
                phases.append(("teardown", teardown_started, env.now))

        task.metrics.finish_time = env.now
        self.tasks_run += 1
        return result

    def _evaluate(
        self, task: Task, ctx: TaskContext, register: bool = True
    ) -> t.Any:
        """Eagerly evaluate the task's partition pipeline (real data).

        ``register=False`` (a crashing attempt) still pays the map-side
        costs incurred so far but leaves no shuffle output behind.
        """
        data = task.rdd.iterator(task.partition, ctx)
        if task.is_shuffle_map:
            self._write_shuffle_output(task, data, ctx, register=register)
            result: t.Any = len(data)
        else:
            assert task.result_func is not None, "result task without a function"
            result = task.result_func(data)
        if self.recorder is not None:
            self.recorder.record_evaluation(task, ctx, result)
        return result

    def _write_shuffle_output(
        self,
        task: Task,
        data: list[t.Any],
        ctx: TaskContext,
        register: bool = True,
    ) -> None:
        """Map-side shuffle: combine, bucket, register, charge."""
        dep = task.shuffle_dep
        assert dep is not None
        records = data
        if dep.map_side_combine is not None:
            before = len(records)
            records = dep.map_side_combine(records)
            # Hash aggregation over the input records.
            ctx.charge(
                ops=90.0 * before,
                random_reads=1.0 * before,
                random_writes=0.35 * before,
            )

        # Batched bucketing: one partition_all call instead of one
        # partitioner.partition call per record; bucket insertion order
        # (first occurrence) is preserved.
        buckets: dict[int, list[t.Any]] = {}
        bucket_ids = dep.partitioner.partition_all([record[0] for record in records])
        for record, bucket_id in zip(records, bucket_ids):
            bucket = buckets.get(bucket_id)
            if bucket is None:
                buckets[bucket_id] = bucket = []
            bucket.append(record)

        record_bytes = task.rdd.record_bytes
        total_bytes = len(records) * record_bytes

        # Execution memory for the serialized buckets; shortfall spills.
        granted, evicted = self.memory_manager.acquire_execution(total_bytes)
        for victim in evicted:
            self.block_manager._data.pop(victim, None)
        shortfall = total_bytes - granted
        if shortfall > 0:
            ctx.metrics.spill_bytes += shortfall

        try:
            if register:
                self.shuffle_manager.add_map_output(
                    dep.shuffle_id,
                    task.partition,
                    self.executor_id,
                    buckets,
                    record_bytes=record_bytes,
                )
        finally:
            self.memory_manager.release_execution(granted)

        # Scatter-write cost: every record is hashed and appended to a
        # bucket buffer, then buffers stream to the tier.
        ctx.charge(
            ops=45.0 * len(records),
            random_writes=1.0 * len(records),
            write_bytes=total_bytes,
        )
        ctx.metrics.shuffle_bytes_written += total_bytes
        ctx.metrics.shuffle_records_written += len(records)
        ctx.metrics.bytes_written += total_bytes
