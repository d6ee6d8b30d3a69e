"""SparkContext: the driver-side entry point."""

from __future__ import annotations

import typing as t

from repro.cluster.node import Machine
from repro.cluster.topology import paper_testbed
from repro.faults.injector import FaultInjector
from repro.hdfs.filesystem import HdfsClient
from repro.sim import Environment
from repro.spark.conf import SparkConf
from repro.spark.dag import DAGScheduler
from repro.spark.metrics import JobMetrics
from repro.spark.rdd import RDD, HdfsTextRDD, ParallelCollectionRDD
from repro.spark.scheduler import TaskScheduler
from repro.spark.shuffle import ShuffleManager

T = t.TypeVar("T")


class SparkContext:
    """Connects a driver program to the simulated cluster.

    Typical use::

        env = Environment()
        machine = paper_testbed(env)
        sc = SparkContext(env, machine, conf=SparkConf(memory_tier=2))
        rdd = sc.parallelize(range(1000), 8)
        total = rdd.map(lambda x: x * 2).sum()
        print(sc.env.now)  # simulated execution time so far
    """

    def __init__(
        self,
        env: Environment | None = None,
        machine: Machine | None = None,
        conf: SparkConf | None = None,
        hdfs: HdfsClient | None = None,
        app_name: str = "repro-app",
        trace_recorder: "t.Any | None" = None,
        observer: "t.Any | None" = None,
    ) -> None:
        self.env = env if env is not None else Environment()
        self.machine = machine if machine is not None else paper_testbed(self.env)
        self.conf = conf if conf is not None else SparkConf()
        self.hdfs = hdfs if hdfs is not None else HdfsClient(self.env)
        self.app_name = app_name
        #: Optional :class:`repro.trace.capture.TraceRecorder`; when set,
        #: the DAG scheduler and executors report jobs/stages/task
        #: residues to it as they run (observation only — a recorded run
        #: is bit-identical to an unrecorded one).
        self.trace_recorder = trace_recorder
        #: Optional :class:`repro.obs.Observer` bound to this context's
        #: clock; its tracer/registry fan out to every subsystem below.
        #: Like the trace recorder, observation never perturbs the
        #: simulation — observed runs stay bit-identical.
        self.observer = observer
        if observer is not None:
            observer.bind(self.env)
        self.tracer = observer.tracer if observer is not None else None
        self.metrics = observer.registry if observer is not None else None
        self.shuffle_manager = ShuffleManager()
        self.shuffle_manager.metrics = self.metrics
        #: Seeded fault injector, when the configuration enables one; all
        #: injected faults (and only injected faults) draw from its RNG.
        self.fault_injector = (
            FaultInjector(self.conf.faults)
            if self.conf.faults is not None and self.conf.faults.enabled
            else None
        )
        self.shuffle_manager.fault_injector = self.fault_injector
        if self.fault_injector is not None:
            self.fault_injector.metrics = self.metrics
        self.dag = DAGScheduler(self)
        self.task_scheduler = TaskScheduler(
            self.env,
            self.conf,
            self.machine,
            self.shuffle_manager,
            self.hdfs,
            injector=self.fault_injector,
            recorder=trace_recorder,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.jobs: list[JobMetrics] = []
        self._rdd_counter = 0
        self._stopped = False

    # -- RDD registry --------------------------------------------------------------
    def _register_rdd(self, rdd: RDD) -> int:
        rdd_id = self._rdd_counter
        self._rdd_counter += 1
        return rdd_id

    def _evict_rdd(self, rdd_id: int) -> None:
        self.task_scheduler.evict_rdd(rdd_id)

    # -- sources --------------------------------------------------------------------
    def _resolve_partitions(self, num_partitions: int | None) -> int:
        if num_partitions is None:
            return self.conf.default_parallelism
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        return num_partitions

    def parallelize(
        self, data: t.Iterable[T], num_partitions: int | None = None, name: str = ""
    ) -> RDD[T]:
        """Distribute a driver-side collection."""
        self._check_active()
        materialized = list(data)
        n = self._resolve_partitions(num_partitions)
        return ParallelCollectionRDD(self, materialized, n, name=name)

    def text_file(self, path: str, num_partitions: int | None = None) -> RDD:
        """Read a staged HDFS file as an RDD of records."""
        self._check_active()
        return HdfsTextRDD(self, path, self._resolve_partitions(num_partitions))

    # -- job execution -----------------------------------------------------------------
    def run_job(
        self,
        rdd: RDD,
        partition_func: t.Callable[[list[t.Any]], t.Any],
        name: str = "",
        hdfs_path: str | None = None,
    ) -> list[t.Any]:
        """Run ``partition_func`` over every partition; returns results."""
        self._check_active()
        results, job = self.dag.run_job(
            rdd, partition_func, name=name or f"job-{len(self.jobs)}",
            hdfs_path=hdfs_path,
        )
        self.jobs.append(job)
        return results

    def _save_rdd_as_file(self, rdd: RDD, path: str) -> None:
        """Write an RDD to HDFS from the executors (timed)."""
        parts = self.run_job(
            rdd, lambda part: part, name=f"{rdd.name}-save", hdfs_path=path
        )
        records: list[t.Any] = []
        for part in parts:
            records.extend(part)
        if not self.hdfs.exists(path):
            self.hdfs.put_records(path, records, rdd.record_bytes or 64.0)

    # -- lifecycle / reporting ------------------------------------------------------------
    @property
    def executors(self) -> list:
        return self.task_scheduler.executors

    def total_job_time(self) -> float:
        """Sum of job durations (the paper's "execution time")."""
        return sum(job.duration for job in self.jobs)

    def metrics_summary(self) -> dict[str, float]:
        """Aggregate task metrics across all jobs so far."""
        from repro.spark.metrics import merge_job_metrics

        return merge_job_metrics(self.jobs)

    def stop(self) -> None:
        """Release executor heaps and refuse further work.

        Also severs the context's reference cycle — ``sc → dag →
        shuffle-stage cache → Stage → RDD → sc`` — so a finished
        testbed (and the cached partitions, shuffle segments and HDFS
        blocks hanging off it) is freed by reference counting the
        moment the caller drops it, instead of lingering for the cyclic
        collector.  Campaign points run with that collector paused
        (:mod:`repro.runner.campaign`), which this makes nearly free.
        """
        if self._stopped:
            return
        for executor in self.task_scheduler.executors:
            executor.allocator.free_all()
        self.dag._shuffle_stages.clear()
        self.dag._stage_submissions.clear()
        self.dag.sc = None  # type: ignore[assignment]
        self._stopped = True

    def _check_active(self) -> None:
        if self._stopped:
            raise RuntimeError("SparkContext has been stopped")

    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()
