"""Tasks and the per-task accounting context."""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field, replace

from repro.memory.device import AccessProfile
from repro.spark.costs import CostSpec
from repro.spark.metrics import TaskMetrics

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.dependency import ShuffleDependency
    from repro.spark.executor import Executor
    from repro.spark.rdd import RDD


class TaskContext:
    """Accumulates cost while a task's partition pipeline evaluates.

    Transformations run *eagerly* in Python (producing real results) and
    charge this context with abstract compute operations plus an
    :class:`AccessProfile`; afterwards the executor converts the total
    into simulated time on its socket and bound memory tier.
    """

    __slots__ = (
        "executor",
        "compute_ops",
        "bytes_read",
        "bytes_written",
        "random_reads",
        "random_writes",
        "metrics",
        "pending_hdfs_reads",
        "pending_disk_writes",
        "pending_disk_reads",
    )

    def __init__(self, executor: "Executor | None", metrics: TaskMetrics) -> None:
        self.executor = executor
        self.compute_ops = 0.0
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.random_reads = 0.0
        self.random_writes = 0.0
        #: The attempt's own metrics, filled in place as the task runs.
        self.metrics = metrics
        #: HDFS byte volumes queued by source RDDs; the executor turns
        #: these into timed datanode reads after evaluation.
        self.pending_hdfs_reads: list[float] = []
        #: Local-disk byte volumes queued by disk-backed block caching
        #: (writes on store, reads on hit); timed like HDFS traffic.
        self.pending_disk_writes: list[float] = []
        self.pending_disk_reads: list[float] = []

    # -- charging ----------------------------------------------------------------
    def charge(
        self,
        ops: float = 0.0,
        read_bytes: float = 0.0,
        write_bytes: float = 0.0,
        random_reads: float = 0.0,
        random_writes: float = 0.0,
    ) -> None:
        """Add raw cost amounts to the running totals."""
        if min(ops, read_bytes, write_bytes, random_reads, random_writes) < 0:
            raise ValueError("cost amounts must be non-negative")
        self.compute_ops += ops
        self.bytes_read += read_bytes
        self.bytes_written += write_bytes
        self.random_reads += random_reads
        self.random_writes += random_writes

    def charge_spec(
        self, spec: CostSpec, n_records: int, nbytes: float = 0.0
    ) -> None:
        """Charge a :class:`CostSpec` applied to ``n_records`` of input."""
        if n_records < 0:
            raise ValueError("n_records must be non-negative")
        self.charge(
            ops=spec.ops_per_record * n_records + spec.ops_per_byte * nbytes,
            random_reads=spec.random_reads_per_record * n_records,
            random_writes=spec.random_writes_per_record * n_records,
        )

    def charge_stream_read(self, nbytes: float, records: int = 0) -> None:
        """Sequential read of partition data from the bound tier."""
        self.charge(read_bytes=nbytes)
        self.metrics.bytes_read += nbytes
        self.metrics.records_read += records

    def charge_stream_write(self, nbytes: float, records: int = 0) -> None:
        """Sequential write of produced data to the bound tier."""
        self.charge(write_bytes=nbytes)
        self.metrics.bytes_written += nbytes
        self.metrics.records_written += records

    # -- extraction -------------------------------------------------------------
    def drain_profile(self) -> tuple[float, AccessProfile]:
        """Return and reset the accumulated (ops, memory profile).

        The executor drains the context in chunks so long pipelines sample
        device contention at a finite granularity.
        """
        ops = self.compute_ops
        profile = AccessProfile(
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            random_reads=self.random_reads,
            random_writes=self.random_writes,
        )
        self.compute_ops = 0.0
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.random_reads = 0.0
        self.random_writes = 0.0
        # Random traffic also belongs in the task metrics.
        self.metrics.random_reads += profile.random_reads
        self.metrics.random_writes += profile.random_writes
        self.metrics.compute_ops += ops
        return ops, profile


@dataclass(slots=True)
class Task:
    """One schedulable unit: evaluate one partition of one stage.

    ``shuffle_dep`` set → ShuffleMapTask (materialize map-side buckets);
    otherwise → ResultTask (apply ``result_func`` to the partition data).

    A task may run several times: failed attempts are retried (bounded
    by ``SparkConf.task_max_failures``) and slow attempts may get a
    speculative clone.  Each attempt is a distinct shallow copy carrying
    its own ``metrics`` so concurrent attempts never share accounting.
    """

    task_id: int
    stage_id: int
    partition: int
    rdd: "RDD"
    shuffle_dep: "ShuffleDependency | None" = None
    result_func: t.Callable[[list[t.Any]], t.Any] | None = None
    metrics: TaskMetrics = field(default_factory=TaskMetrics)
    attempt: int = 0
    speculative: bool = False

    @property
    def is_shuffle_map(self) -> bool:
        return self.shuffle_dep is not None

    def for_attempt(self, attempt: int, speculative: bool = False) -> "Task":
        """Shallow clone for one launch, with fresh metrics."""
        return replace(
            self,
            metrics=TaskMetrics(),
            attempt=attempt,
            speculative=speculative,
        )

    def describe(self) -> str:
        kind = "ShuffleMapTask" if self.is_shuffle_map else "ResultTask"
        spec = ", speculative" if self.speculative else ""
        return (
            f"{kind}(stage={self.stage_id}, partition={self.partition}, "
            f"attempt={self.attempt}{spec})"
        )
