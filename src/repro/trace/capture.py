"""Phase 1: run a workload once, recording its behavioural residue.

The :class:`TraceRecorder` hangs off the :class:`SparkContext` and is
fed by four instrumentation points:

- ``DAGScheduler.run_job`` brackets each driver action
  (:meth:`begin_job`/:meth:`end_job`);
- ``DAGScheduler._submit_stage_attempt`` brackets each task-set
  submission (:meth:`begin_task_set`/:meth:`end_task_set`), capturing
  stage provenance and the output path;
- ``Executor._evaluate`` reports each task's residue the instant its
  partition pipeline finishes (:meth:`record_evaluation`) — evaluation
  is atomic in simulated time, so the un-drained
  :class:`~repro.spark.task.TaskContext` totals *are* the task's whole
  contribution;
- ``RDD._observe`` reports when an evaluation fixes an RDD's record-size
  estimate (:meth:`note_estimate_set`).  The estimate comes from the
  first non-empty partition evaluated, so the residues of every later
  task depend on which task that was; the trace records each task's
  evaluation rank and whether it fixed an estimate, and replay checks
  that order wherever it fixed one.

Recording only observes; a captured run is bit-identical to an
unrecorded one.  Anything the replay model cannot reproduce (a retried
or speculative attempt, simulated time advancing outside the recorded
jobs) marks the recorder invalid and :func:`capture_experiment` returns
``trace=None`` — the result is still valid, there is just nothing to
reuse.
"""

from __future__ import annotations

import typing as t

from repro.cluster.topology import paper_testbed
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.memory.mba import BandwidthAllocator
from repro.sim import Environment
from repro.spark.context import SparkContext
from repro.telemetry.collector import TelemetryCollector
from repro.trace.records import JobTrace, WorkloadTrace, build_task_set_trace
from repro.version import ENGINE_VERSION, TRACE_FORMAT_VERSION
from repro.workloads import datagen
from repro.workloads.registry import get_workload

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.task import Task, TaskContext


def behavior_dict(config: ExperimentConfig) -> dict[str, t.Any]:
    """The config fields that change *behaviour*, not just timing.

    ``tier``, ``mba_percent`` and ``cpu_socket`` only select device
    latency/bandwidth and the NUMA path — the computation, task residues
    and scheduling order are identical across them (the invariance the
    engine's golden-pin tests enforce).  Everything else (workload, size,
    executor geometry, faults, speculation) shapes the residues
    themselves.  ``label`` is free-form metadata and belongs to neither.
    """
    from repro.analysis.resultstore import config_to_dict

    data = config_to_dict(config)
    for timing_field in ("tier", "mba_percent", "cpu_socket", "label"):
        data.pop(timing_field, None)
    return data


class TraceRecorder:
    """Accumulates one run's jobs/stages/task residues as they happen."""

    def __init__(self) -> None:
        self.jobs: list[JobTrace] = []
        self.measured_from = 0
        self.invalid_reason: str | None = None
        self._current_job: JobTrace | None = None
        self._pending_set: dict[str, t.Any] | None = None
        self._residues: dict[int, dict[str, t.Any]] | None = None
        self._estimate_set = False

    # -- validity -----------------------------------------------------------------
    @property
    def valid(self) -> bool:
        return self.invalid_reason is None

    def mark_invalid(self, reason: str) -> None:
        if self.invalid_reason is None:
            self.invalid_reason = reason

    def mark_measured(self) -> None:
        """Jobs recorded so far belong to the untimed prepare phase."""
        self.measured_from = len(self.jobs)

    # -- DAG-scheduler hooks -------------------------------------------------------
    def begin_job(self, job_id: int, name: str) -> None:
        if self._current_job is not None:
            self.mark_invalid("nested jobs are not replayable")
        self._current_job = JobTrace(job_id=job_id, name=name)

    def end_job(self) -> None:
        if self._current_job is not None:
            self.jobs.append(self._current_job)
        self._current_job = None

    def begin_task_set(
        self,
        stage_id: int,
        name: str,
        attempt: int,
        hdfs_path: str | None,
        is_shuffle_map: bool,
    ) -> None:
        if self._current_job is None:
            self.mark_invalid("task set submitted outside a recorded job")
        if attempt > 0:
            self.mark_invalid("stage resubmission is timing-dependent")
        self._pending_set = {
            "stage_id": stage_id,
            "name": name,
            "attempt": attempt,
            "hdfs_path": hdfs_path,
            "is_shuffle_map": is_shuffle_map,
        }
        self._residues = {}

    def end_task_set(self, tasks: list["Task"], outcome: t.Any) -> None:
        pending, residues = self._pending_set, self._residues
        self._pending_set = None
        self._residues = None
        if pending is None or residues is None:
            self.mark_invalid("task set completed without a submission record")
            return
        if (
            outcome.task_failures
            or outcome.fetch_failures
            or outcome.executors_lost
            or outcome.speculative_launched
            or not all(outcome.done)
        ):
            self.mark_invalid("fault-tolerance activity is timing-dependent")
            return
        ordered: list[dict[str, t.Any]] = []
        for task in tasks:
            residue = residues.get(task.task_id)
            if residue is None:
                self.mark_invalid(
                    f"task {task.task_id} finished without a recorded residue"
                )
                return
            ordered.append(residue)
        if self._current_job is not None:
            self._current_job.task_sets.append(
                build_task_set_trace(
                    stage_id=pending["stage_id"],
                    name=pending["name"],
                    attempt=pending["attempt"],
                    hdfs_path=pending["hdfs_path"],
                    is_shuffle_map=pending["is_shuffle_map"],
                    residues=ordered,
                )
            )

    # -- RDD and executor hooks ------------------------------------------------------
    def note_estimate_set(self) -> None:
        """The evaluation in progress fixed an RDD's record-size estimate."""
        self._estimate_set = True

    def record_evaluation(
        self, task: "Task", ctx: "TaskContext", result: t.Any
    ) -> None:
        """Snapshot one task's residue right after its pipeline ran.

        Called before the executor drains the context, so the charge
        accumulators still hold the evaluation's full totals; the task's
        metrics accumulators started at zero, so their current values
        *are* the evaluation deltas.
        """
        fixed_estimate = self._estimate_set
        self._estimate_set = False
        if self._residues is None:
            self.mark_invalid("evaluation outside a recorded task set")
            return
        if task.attempt != 0 or task.speculative:
            self.mark_invalid("retried/speculative attempts are timing-dependent")
            return
        if task.task_id in self._residues:
            self.mark_invalid(f"task {task.task_id} evaluated twice")
            return
        metrics = task.metrics
        try:
            result_len = len(result)
        except TypeError:
            result_len = -1
        self._residues[task.task_id] = {
            "task_id": task.task_id,
            "partition": task.partition,
            # TaskContext charge accumulators (pre-drain).
            "compute_ops": ctx.compute_ops,
            "bytes_read": ctx.bytes_read,
            "bytes_written": ctx.bytes_written,
            "random_reads": ctx.random_reads,
            "random_writes": ctx.random_writes,
            # Queued I/O (ordered byte volumes, paid after evaluation).
            "hdfs_reads": list(ctx.pending_hdfs_reads),
            "disk_reads": list(ctx.pending_disk_reads),
            "disk_writes": list(ctx.pending_disk_writes),
            # TaskMetrics deltas set during evaluation.
            "m_bytes_read": metrics.bytes_read,
            "m_bytes_written": metrics.bytes_written,
            "m_records_read": metrics.records_read,
            "m_records_written": metrics.records_written,
            "m_shuffle_bytes_read": metrics.shuffle_bytes_read,
            "m_shuffle_bytes_written": metrics.shuffle_bytes_written,
            "m_shuffle_records_read": metrics.shuffle_records_read,
            "m_shuffle_records_written": metrics.shuffle_records_written,
            "m_local_fetches": metrics.local_fetches,
            "m_remote_fetches": metrics.remote_fetches,
            "m_spill_bytes": metrics.spill_bytes,
            "m_cache_hits": metrics.cache_hits,
            "m_cache_misses": metrics.cache_misses,
            # Result shape, for the timed HDFS output-write branch.
            "result_len": result_len,
            "result_truthy": int(bool(result)),
            "record_bytes": task.rdd.record_bytes,
            # Evaluation order, checked on replay where it fixed an estimate.
            "eval_rank": len(self._residues),
            "fixed_estimate": int(fixed_estimate),
        }

    # -- assembly ------------------------------------------------------------------
    def build(
        self, config: ExperimentConfig, outcome: t.Any
    ) -> WorkloadTrace | None:
        """Seal the recording into a :class:`WorkloadTrace` (or ``None``)."""
        if not self.valid or self._current_job is not None:
            return None
        return WorkloadTrace(
            format_version=TRACE_FORMAT_VERSION,
            engine_version=ENGINE_VERSION,
            behavior=behavior_dict(config),
            workload=config.workload,
            size=config.size,
            jobs=self.jobs,
            measured_from=self.measured_from,
            verified=outcome.verified,
            records_processed=outcome.records_processed,
        ).seal()


def capture_experiment(
    config: ExperimentConfig,
    observer: t.Any | None = None,
) -> tuple[ExperimentResult, WorkloadTrace | None]:
    """Run ``config`` through the real engine, recording its trace.

    Mirrors :func:`repro.core.experiment.run_experiment` step for step —
    the returned result is bit-identical to an unrecorded run, but the
    prepare phase keeps its dataset in the enclosing
    :func:`repro.workloads.datagen.transient_memo` block's memo (its
    own, dropped after prepare, when there is none), not in the process
    memo.  The trace is ``None`` when the run did something replay
    cannot reproduce (fault-tolerance activity, nested jobs, off-job
    simulated time).
    An optional :class:`repro.obs.Observer` records spans alongside the
    trace capture; the two observation channels are independent.
    """
    env = (
        observer.make_environment()
        if observer is not None
        else Environment()
    )
    machine = paper_testbed(env)
    recorder = TraceRecorder()
    sc = SparkContext(
        env=env,
        machine=machine,
        conf=config.spark_conf(),
        trace_recorder=recorder,
        observer=observer,
    )
    workload = get_workload(config.workload)
    tracer = sc.tracer

    exp_span = None
    if tracer is not None:
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
            captured=True,
        )

    # Later points of this class replay without a dataset, so the
    # capture leaves datagen's process memo as it found it.
    with datagen.transient_memo():
        if tracer is not None:
            with tracer.span("prepare", cat="phase"):
                workload.prepare(sc, config.size)
        else:
            workload.prepare(sc, config.size)
    recorder.mark_measured()

    collector = TelemetryCollector(env, machine, metrics=sc.metrics)
    with BandwidthAllocator(machine.devices(), percent=config.mba_percent):
        collector.start(sc)
        run_started = env.now
        if tracer is not None:
            with tracer.span("measure", cat="phase"):
                outcome = workload.run(sc, config.size)
        else:
            outcome = workload.run(sc, config.size)
        if outcome.execution_time != env.now - run_started:
            recorder.mark_invalid(
                "simulated time advanced outside the measured jobs"
            )
        sample = collector.stop(sc)

    mitigation: dict[str, float] = {}
    for job in sc.jobs:
        for key, value in job.mitigation_summary().items():
            mitigation[key] = mitigation.get(key, 0) + value
    sc.stop()
    if tracer is not None:
        tracer.end(exp_span)
    if sc.metrics is not None:
        sc.metrics.set_gauge(
            "experiment.execution_time", outcome.execution_time
        )
        sc.metrics.set_gauge(
            "experiment.records_processed", float(outcome.records_processed)
        )
        sc.metrics.set_gauge("experiment.verified", float(outcome.verified))
        sc.metrics.inc_many(mitigation, prefix="mitigation.")
    result = ExperimentResult(
        config=config,
        execution_time=outcome.execution_time,
        verified=outcome.verified,
        telemetry=sample,
        records_processed=outcome.records_processed,
        mitigation=mitigation,
    )
    return result, recorder.build(config, outcome)
