"""DAG scheduler: jobs → stages → tasks.

Walks the final RDD's lineage, cutting a new stage at every
:class:`~repro.spark.dependency.ShuffleDependency` (Spark's stage
construction algorithm), deduplicating stages by shuffle id, and skipping
map stages whose shuffle output is already materialized (which is how
iterative workloads reuse earlier shuffles).

Stage-level fault tolerance lives here: a
:class:`~repro.faults.errors.FetchFailedError` surfaced by a task set
marks the producing map outputs as lost, so the parent map stage is
resubmitted for exactly the missing partitions before the failed stage
retries (bounded by ``SparkConf.stage_max_attempts`` submissions per
stage, then :class:`~repro.faults.errors.StageAbortedError`).
"""

from __future__ import annotations

import typing as t
from itertools import count

from repro.faults.errors import StageAbortedError
from repro.obs.hooks import sample_device_counters
from repro.spark.dependency import NarrowDependency, ShuffleDependency
from repro.spark.metrics import JobMetrics, StageMetrics
from repro.spark.stage import Stage, topological_order
from repro.spark.task import Task

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.context import SparkContext
    from repro.spark.rdd import RDD


class DAGScheduler:
    """Builds and submits the stage graph for each job."""

    def __init__(self, sc: "SparkContext") -> None:
        self.sc = sc
        self._stage_ids = count()
        self._job_ids = count()
        self._task_ids = count()
        #: Stage cache keyed by shuffle id so shared lineage maps to one
        #: physical stage per shuffle (as in Spark).
        self._shuffle_stages: dict[int, Stage] = {}
        #: Task-set submissions per stage id (bounds fetch-failure
        #: resubmission via ``SparkConf.stage_max_attempts``).
        self._stage_submissions: dict[int, int] = {}

    # -- stage graph construction ------------------------------------------------
    def _parent_stages(self, rdd: "RDD") -> list[Stage]:
        """Shuffle-map stages directly feeding ``rdd``'s pipeline."""
        parents: list[Stage] = []
        visited: set[int] = set()
        frontier: list[RDD] = [rdd]
        while frontier:
            current = frontier.pop()
            if current.rdd_id in visited:
                continue
            visited.add(current.rdd_id)
            for dep in current.deps:
                if isinstance(dep, ShuffleDependency):
                    parents.append(self._shuffle_stage(dep))
                elif isinstance(dep, NarrowDependency):
                    frontier.append(dep.rdd)
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown dependency type {type(dep)!r}")
        # Deterministic order regardless of traversal.
        parents.sort(key=lambda s: s.stage_id)
        return parents

    def _shuffle_stage(self, dep: ShuffleDependency) -> Stage:
        """Get-or-create the map stage materializing ``dep``."""
        if dep.shuffle_id in self._shuffle_stages:
            return self._shuffle_stages[dep.shuffle_id]
        stage = Stage(
            stage_id=next(self._stage_ids),
            rdd=dep.rdd,
            shuffle_dep=dep,
            parents=self._parent_stages(dep.rdd),
        )
        self._shuffle_stages[dep.shuffle_id] = stage
        self.sc.shuffle_manager.register_shuffle(
            dep.shuffle_id, dep.rdd.num_partitions
        )
        return stage

    def build_stages(self, final_rdd: "RDD") -> Stage:
        """Create the ResultStage (and transitively its ancestors)."""
        return Stage(
            stage_id=next(self._stage_ids),
            rdd=final_rdd,
            shuffle_dep=None,
            parents=self._parent_stages(final_rdd),
        )

    # -- job execution -------------------------------------------------------------
    def run_job(
        self,
        final_rdd: "RDD",
        result_func: t.Callable[[list[t.Any]], t.Any],
        name: str = "",
        hdfs_path: str | None = None,
    ) -> tuple[list[t.Any], JobMetrics]:
        """Execute a job and return (per-partition results, metrics).

        Drives the discrete-event simulation forward until the job's
        final stage completes.
        """
        env = self.sc.env
        job = JobMetrics(
            job_id=next(self._job_ids), name=name, submit_time=env.now
        )
        recorder = self.sc.trace_recorder
        if recorder is not None:
            recorder.begin_job(job.job_id, name)
        tracer = self.sc.tracer
        job_span = None
        if tracer is not None:
            job_span = tracer.begin(
                name or f"job-{job.job_id}", cat="job", job_id=job.job_id
            )
        final_stage = self.build_stages(final_rdd)

        results: list[t.Any] = [None] * final_stage.num_tasks
        for stage in topological_order(final_stage):
            if stage.is_shuffle_map and self.sc.shuffle_manager.is_complete(
                stage.shuffle_dep.shuffle_id  # type: ignore[union-attr]
            ):
                continue  # output already materialized by an earlier job
            self._run_stage(
                stage,
                result_func,
                results,
                job,
                hdfs_path=None if stage.is_shuffle_map else hdfs_path,
            )

        job.complete_time = env.now
        if recorder is not None:
            recorder.end_job()
        if tracer is not None:
            tracer.end(job_span)
        if self.sc.metrics is not None:
            self.sc.metrics.inc_many(job.summary(), prefix="job.")
        return results, job

    def _run_stage(
        self,
        stage: Stage,
        result_func: t.Callable[[list[t.Any]], t.Any],
        results: list[t.Any],
        job: JobMetrics,
        hdfs_path: str | None = None,
    ) -> None:
        """Drive one stage to completion, resubmitting after lost output.

        A map stage's outstanding work is whatever the shuffle registry
        reports missing (never run, or invalidated by executor loss /
        fetch failure); a result stage tracks finished partitions
        directly.  Each fetch failure first recomputes the producing map
        stage's missing partitions, then the loop re-evaluates what is
        left to run.
        """
        conf = self.sc.conf
        done: set[int] = set()
        while True:
            if stage.is_shuffle_map:
                partitions = self.sc.shuffle_manager.missing_partitions(
                    stage.shuffle_dep.shuffle_id  # type: ignore[union-attr]
                )
            else:
                partitions = [
                    p for p in range(stage.num_tasks) if p not in done
                ]
            if not partitions:
                return
            submissions = self._stage_submissions.get(stage.stage_id, 0)
            if submissions >= conf.stage_max_attempts:
                raise StageAbortedError(stage.stage_id, submissions)
            fetch_failure = self._submit_stage_attempt(
                stage, partitions, result_func, results, done, job, hdfs_path
            )
            if fetch_failure is not None:
                # Lost map output: recompute the producing (ancestor) map
                # stage before the next submission of this stage.
                self._run_stage(
                    self._shuffle_stages[fetch_failure.shuffle_id],
                    result_func,
                    results,
                    job,
                    hdfs_path=None,
                )

    def _submit_stage_attempt(
        self,
        stage: Stage,
        partitions: list[int],
        result_func: t.Callable[[list[t.Any]], t.Any],
        results: list[t.Any],
        done: set[int],
        job: JobMetrics,
        hdfs_path: str | None,
    ) -> t.Any:
        """Run one task set for ``partitions``; returns any fetch failure."""
        env = self.sc.env
        submissions = self._stage_submissions.get(stage.stage_id, 0)
        self._stage_submissions[stage.stage_id] = submissions + 1
        if submissions > 0:
            job.resubmitted_stages += 1
        metrics = StageMetrics(
            stage_id=stage.stage_id,
            name=stage.describe(),
            num_tasks=len(partitions),
            submit_time=env.now,
            attempt=submissions,
        )
        tasks = [
            Task(
                task_id=next(self._task_ids),
                stage_id=stage.stage_id,
                partition=p,
                rdd=stage.rdd,
                shuffle_dep=stage.shuffle_dep,
                result_func=None if stage.is_shuffle_map else result_func,
            )
            for p in partitions
        ]
        recorder = self.sc.trace_recorder
        if recorder is not None:
            recorder.begin_task_set(
                stage_id=stage.stage_id,
                name=metrics.name,
                attempt=submissions,
                hdfs_path=hdfs_path,
                is_shuffle_map=stage.is_shuffle_map,
            )
        tracer = self.sc.tracer
        stage_span = None
        if tracer is not None:
            stage_span = tracer.begin(
                metrics.name or f"stage-{stage.stage_id}",
                cat="stage",
                stage_id=stage.stage_id,
                attempt=submissions,
                num_tasks=len(partitions),
                shuffle_map=stage.is_shuffle_map,
            )
        outcome = self.sc.task_scheduler.run_task_set(
            tasks, hdfs_path=hdfs_path
        )
        if tracer is not None:
            tracer.end(stage_span)
            sample_device_counters(tracer, self.sc.machine)
        if recorder is not None:
            recorder.end_task_set(tasks, outcome)
        for i, task in enumerate(tasks):
            if outcome.done[i]:
                done.add(task.partition)
                if not stage.is_shuffle_map:
                    results[task.partition] = outcome.results[i]
        metrics.tasks = [m for m in outcome.winners if m is not None]
        metrics.attempts = list(outcome.attempts)
        metrics.task_failures = outcome.task_failures
        metrics.speculative_launched = outcome.speculative_launched
        metrics.speculative_wins = outcome.speculative_wins
        metrics.executors_lost = outcome.executors_lost
        metrics.fetch_failures = outcome.fetch_failures
        metrics.complete_time = env.now
        job.stages.append(metrics)
        return outcome.fetch_failure
