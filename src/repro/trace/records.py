"""Canonical trace records: what one captured run looks like on disk.

A :class:`WorkloadTrace` is the *behavioural residue* of one experiment:
everything the workload computation decided (how many abstract compute
ops each task charged, how many bytes it streamed and scattered, which
HDFS/disk transfers it queued, what its result looked like) with all
*timing* stripped out.  Replaying the residue through the discrete-event
scheduler and memory model under a different tier/MBA/socket
configuration reproduces that configuration's simulated run bit for bit
— without re-running datagen, LDA Gibbs sampling, PageRank iterations or
any other real computation.

Layout is columnar: each :class:`TaskSetTrace` stores one numpy array
per residue field across its tasks (plus CSR-style ``offsets``/``values``
pairs for the ragged per-task I/O lists).  Batched ``ndarray.tolist()``
conversion, vectorized aggregate sums and a whole-array checksum all
operate on these columns directly.  Replay compiles the columns into
per-task objects once per decoded trace (:mod:`repro.trace.fastreplay`),
not once per replayed point.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import typing as t
from dataclasses import dataclass, field

import numpy as np

#: Per-task residue fields stored as float64 columns.  The first five
#: are the raw :class:`~repro.spark.task.TaskContext` charge accumulators
#: (compute ops + the device-agnostic access profile: sequential
#: read/write bytes and random read/write counts); the ``m_`` fields are
#: the float-valued :class:`~repro.spark.metrics.TaskMetrics` deltas the
#: evaluation produced; ``record_bytes`` is the provenance RDD's record
#: size (used by the HDFS output-write path).
FLOAT_FIELDS: tuple[str, ...] = (
    "compute_ops",
    "bytes_read",
    "bytes_written",
    "random_reads",
    "random_writes",
    "m_bytes_read",
    "m_bytes_written",
    "m_shuffle_bytes_read",
    "m_shuffle_bytes_written",
    "m_spill_bytes",
    "record_bytes",
)

#: Per-task residue fields stored as int64 columns.  ``result_len`` is
#: ``-1`` for unsized results.  ``eval_rank`` is the task's position in
#: its task set's evaluation order, and ``fixed_estimate`` is ``1`` when
#: that evaluation fixed some RDD's record-size estimate: the residues of
#: later tasks depend on it, so replay checks that order where it matters.
INT_FIELDS: tuple[str, ...] = (
    "task_id",
    "partition",
    "m_records_read",
    "m_records_written",
    "m_shuffle_records_read",
    "m_shuffle_records_written",
    "m_local_fetches",
    "m_remote_fetches",
    "m_cache_hits",
    "m_cache_misses",
    "result_len",
    "result_truthy",
    "eval_rank",
    "fixed_estimate",
)

#: Ragged per-task I/O queues (ordered byte volumes), CSR-encoded as an
#: ``(offsets, values)`` pair per kind.
IO_KINDS: tuple[str, ...] = ("hdfs_reads", "disk_reads", "disk_writes")


@dataclass
class TaskSetTrace:
    """Residues of one stage submission (one ``run_task_set`` call).

    ``name``/``stage_id``/``is_shuffle_map`` carry the RDD/shuffle
    provenance of the records; ``hdfs_path`` is the output path handed
    to the task scheduler (result stages of save jobs).
    """

    stage_id: int
    name: str
    attempt: int
    hdfs_path: str | None
    is_shuffle_map: bool
    floats: dict[str, np.ndarray]
    ints: dict[str, np.ndarray]
    io: dict[str, tuple[np.ndarray, np.ndarray]]

    @property
    def num_tasks(self) -> int:
        return int(self.ints["task_id"].shape[0])

    def __setstate__(self, state: dict[str, t.Any]) -> None:
        # A protocol-5 pickle decodes each column as a view of its own
        # bytearray: five objects, about four times the memory of a
        # small column that owns its data.  Decoded columns own theirs.
        state["floats"] = {k: np.array(v) for k, v in state["floats"].items()}
        state["ints"] = {k: np.array(v) for k, v in state["ints"].items()}
        state["io"] = {
            k: (np.array(offsets), np.array(values))
            for k, (offsets, values) in state["io"].items()
        }
        self.__dict__.update(state)

    def update_checksum(self, digest: "hashlib._Hash") -> None:
        digest.update(
            f"{self.stage_id}|{self.name}|{self.attempt}|"
            f"{self.hdfs_path}|{self.is_shuffle_map}".encode()
        )
        for name in FLOAT_FIELDS:
            digest.update(np.ascontiguousarray(self.floats[name]).tobytes())
        for name in INT_FIELDS:
            digest.update(np.ascontiguousarray(self.ints[name]).tobytes())
        for kind in IO_KINDS:
            offsets, values = self.io[kind]
            digest.update(np.ascontiguousarray(offsets).tobytes())
            digest.update(np.ascontiguousarray(values).tobytes())


@dataclass
class JobTrace:
    """One driver action: its id, name and stage submissions in order."""

    job_id: int
    name: str
    task_sets: list[TaskSetTrace] = field(default_factory=list)


@dataclass
class WorkloadTrace:
    """Everything Phase 2 needs to re-time one captured experiment.

    ``jobs[:measured_from]`` ran before the telemetry window (HiBench's
    untimed prepare phase, outside MBA throttling); the rest are the
    measured jobs.  ``verified`` and ``records_processed`` are the
    workload's outcome as a result reports it, recorded so a replayed
    result carries them without recomputation; ``detail`` is the
    workload's own summary.  The workload's output is not kept: no
    result carries it.
    """

    format_version: int
    engine_version: str
    behavior: dict[str, t.Any]
    workload: str
    size: str
    jobs: list[JobTrace]
    measured_from: int
    verified: bool
    records_processed: int
    detail: dict[str, float]
    checksum: str = ""

    # -- integrity ----------------------------------------------------------------
    def compute_checksum(self) -> str:
        digest = hashlib.sha256()
        digest.update(
            f"{self.format_version}|{self.engine_version}|"
            f"{self.workload}|{self.size}|{self.measured_from}".encode()
        )
        for job in self.jobs:
            digest.update(f"job|{job.job_id}|{job.name}".encode())
            for task_set in job.task_sets:
                task_set.update_checksum(digest)
        return digest.hexdigest()

    def __getstate__(self) -> dict[str, t.Any]:
        # Only the dataclass fields are the artifact: attributes a replay
        # caches on the decoded object (``fastreplay``'s compiled plan)
        # never reach a pickle.
        names = self.__dataclass_fields__
        return {k: v for k, v in self.__dict__.items() if k in names}

    def __setstate__(self, state: dict[str, t.Any]) -> None:
        # The mirror of ``__getstate__``: only dataclass fields are
        # decoded, so an artifact written when traces still stored the
        # workload's output (the checksum never covered it) loads
        # without it.
        names = self.__dataclass_fields__
        self.__dict__.update((k, v) for k, v in state.items() if k in names)

    def seal(self) -> "WorkloadTrace":
        self.checksum = self.compute_checksum()
        return self

    @property
    def intact(self) -> bool:
        return bool(self.checksum) and self.checksum == self.compute_checksum()

    # -- vectorized aggregates -----------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return sum(
            ts.num_tasks for job in self.jobs for ts in job.task_sets
        )

    def totals(self) -> dict[str, float]:
        """Whole-trace residue sums (numpy reductions over the columns)."""
        totals = {name: 0.0 for name in FLOAT_FIELDS if name != "record_bytes"}
        for job in self.jobs:
            for ts in job.task_sets:
                for name in totals:
                    totals[name] += float(ts.floats[name].sum())
        totals["num_tasks"] = float(self.num_tasks)
        return totals


def footprint(*roots: object) -> int:
    """Bytes held by ``roots`` and every object they reach, each counted
    once by :func:`sys.getsizeof`; an array counts the data it owns.
    An instance's class is not followed, so this is for plain data:
    containers, instances and arrays, such as a decoded trace or a
    compiled replay plan.
    """
    seen: set[int] = set()
    total = 0
    level = list(roots)
    while level:
        fresh = dict(zip(map(id, level), level))
        for key in seen.intersection(fresh):
            del fresh[key]
        objs = list(fresh.values())
        seen.update(fresh)
        seen.update(map(id, map(type, objs)))
        total += sum(map(sys.getsizeof, objs))
        level = gc.get_referents(*objs)
    return total


def build_task_set_trace(
    stage_id: int,
    name: str,
    attempt: int,
    hdfs_path: str | None,
    is_shuffle_map: bool,
    residues: list[dict[str, t.Any]],
) -> TaskSetTrace:
    """Assemble one stage's residue dicts into columnar arrays."""
    floats = {
        field_name: np.array(
            [r[field_name] for r in residues], dtype=np.float64
        )
        for field_name in FLOAT_FIELDS
    }
    ints = {
        field_name: np.array(
            [r[field_name] for r in residues], dtype=np.int64
        )
        for field_name in INT_FIELDS
    }
    io: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for kind in IO_KINDS:
        lengths = [len(r[kind]) for r in residues]
        offsets = np.zeros(len(residues) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        values = np.array(
            [v for r in residues for v in r[kind]], dtype=np.float64
        )
        io[kind] = (offsets, values)
    return TaskSetTrace(
        stage_id=stage_id,
        name=name,
        attempt=attempt,
        hdfs_path=hdfs_path,
        is_shuffle_map=is_shuffle_map,
        floats=floats,
        ints=ints,
        io=io,
    )
