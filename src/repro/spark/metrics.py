"""Task/stage/job metric records.

These mirror (a useful subset of) Spark's ``TaskMetrics`` and are the raw
material for the paper's Fig. 5 system-level-event correlations.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field
from operator import attrgetter


@dataclass
class TaskMetrics:
    """Everything measured about one task attempt."""

    task_id: int = -1
    stage_id: int = -1
    partition: int = -1
    executor_id: int = -1
    attempt: int = 0
    speculative: bool = False
    #: Final attempt state: ``SUCCESS``, ``FAILED`` (crash/user error/
    #: executor loss) or ``KILLED`` (speculation loser, task-set abort).
    status: str = "SUCCESS"
    launch_time: float = 0.0
    finish_time: float = 0.0
    records_read: int = 0
    records_written: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    random_reads: float = 0.0
    random_writes: float = 0.0
    compute_ops: float = 0.0
    shuffle_bytes_written: float = 0.0
    shuffle_bytes_read: float = 0.0
    shuffle_records_written: int = 0
    shuffle_records_read: int = 0
    remote_fetches: int = 0
    local_fetches: int = 0
    spill_bytes: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    dispatch_wait: float = 0.0
    cpu_wait: float = 0.0
    #: Intra-attempt phase stamps ``(name, begin, end)`` on the simulated
    #: clock — dispatch/fetch/compute/shuffle-write/spill — recorded by
    #: the executor only while an observer is attached (:mod:`repro.obs`)
    #: and emitted as child spans of the attempt's task span.
    phases: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.finish_time - self.launch_time)

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass
class StageMetrics:
    """Aggregate over the tasks of one stage (one submission attempt).

    ``tasks`` holds the *winning* attempt per completed task (the
    pre-fault-tolerance notion of "the stage's tasks"); ``attempts``
    holds every attempt launched, including failed, killed and
    speculative ones, so mitigation overhead stays measurable.
    """

    stage_id: int
    name: str = ""
    num_tasks: int = 0
    submit_time: float = 0.0
    complete_time: float = 0.0
    attempt: int = 0
    tasks: list[TaskMetrics] = field(default_factory=list)
    attempts: list[TaskMetrics] = field(default_factory=list)
    task_failures: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0
    executors_lost: int = 0
    fetch_failures: int = 0

    @property
    def duration(self) -> float:
        return max(0.0, self.complete_time - self.submit_time)

    @property
    def num_attempts(self) -> int:
        """Attempts launched, including retries and speculative clones."""
        return len(self.attempts) if self.attempts else len(self.tasks)

    @property
    def task_retries(self) -> int:
        """Non-speculative re-launches (attempt number > 0)."""
        return sum(
            1 for m in self.attempts if m.attempt > 0 and not m.speculative
        )

    def total(self, attr: str) -> float:
        return float(sum(getattr(m, attr) for m in self.tasks))

    def total_attempts(self, attr: str) -> float:
        """Sum over every attempt (mitigation overhead included)."""
        source = self.attempts if self.attempts else self.tasks
        return float(sum(getattr(m, attr) for m in source))


@dataclass
class JobMetrics:
    """Aggregate over one job (one action call)."""

    job_id: int
    name: str = ""
    submit_time: float = 0.0
    complete_time: float = 0.0
    stages: list[StageMetrics] = field(default_factory=list)
    #: Stage submissions beyond the first (fetch-failure recovery).
    resubmitted_stages: int = 0

    @property
    def duration(self) -> float:
        return max(0.0, self.complete_time - self.submit_time)

    def all_tasks(self) -> list[TaskMetrics]:
        return [task for stage in self.stages for task in stage.tasks]

    def all_attempts(self) -> list[TaskMetrics]:
        """Every attempt of every stage, failed and speculative included."""
        return [
            attempt
            for stage in self.stages
            for attempt in (stage.attempts if stage.attempts else stage.tasks)
        ]

    def total(self, attr: str) -> float:
        return float(sum(getattr(m, attr) for m in self.all_tasks()))

    def mitigation_summary(self) -> dict[str, float]:
        """Fault-tolerance counters aggregated over the job's stages."""
        stages = self.stages
        attempts = self.all_attempts()
        return {
            "task_attempts": float(len(attempts)),
            "task_failures": float(sum(s.task_failures for s in stages)),
            "speculative_launched": float(
                sum(s.speculative_launched for s in stages)
            ),
            "speculative_wins": float(sum(s.speculative_wins for s in stages)),
            "executors_lost": float(sum(s.executors_lost for s in stages)),
            "fetch_failures": float(sum(s.fetch_failures for s in stages)),
            "resubmitted_stages": float(self.resubmitted_stages),
        }

    def summary(self) -> dict[str, float]:
        """Flat event dictionary (input to the Fig. 5 correlations).

        One pass over the tasks reads every summed field; each column is
        then totalled by ``sum`` in task order, exactly as :meth:`total`
        totals one field.
        """
        tasks = self.all_tasks()
        columns = zip(*map(_summed_fields, tasks)) if tasks else ((),) * len(_SUMMED)
        return {
            "duration": self.duration,
            "num_stages": float(len(self.stages)),
            "num_tasks": float(len(tasks)),
            **{name: float(sum(column)) for name, column in zip(_SUMMED, columns)},
            **self.mitigation_summary(),
        }


#: The task fields :meth:`JobMetrics.summary` totals, in its key order.
_SUMMED = (
    "records_read",
    "records_written",
    "bytes_read",
    "bytes_written",
    "random_reads",
    "random_writes",
    "compute_ops",
    "shuffle_bytes_written",
    "shuffle_bytes_read",
    "spill_bytes",
    "dispatch_wait",
    "cpu_wait",
)
_summed_fields = attrgetter(*_SUMMED)


def merge_job_metrics(jobs: t.Iterable[JobMetrics]) -> dict[str, float]:
    """Sum the summaries of several jobs (a full application run)."""
    totals: dict[str, float] = {}
    duration = 0.0
    for job in jobs:
        summary = job.summary()
        duration += summary.pop("duration")
        for key, value in summary.items():
            totals[key] = totals.get(key, 0.0) + value
    totals["duration"] = duration
    return totals
