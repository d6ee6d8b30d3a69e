"""Dependency mapping, metrics aggregation, and scheduling priorities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT, Event
from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.spark.dependency import (
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
)
from repro.spark.metrics import JobMetrics, StageMetrics, TaskMetrics, merge_job_metrics
from repro.spark.partitioner import HashPartitioner


# --------------------------------------------------------------- dependencies
def test_one_to_one_dependency():
    dep = OneToOneDependency(rdd=None)  # type: ignore[arg-type]
    assert dep.parents_of(5) == [5]


def test_range_dependency_maps_window():
    dep = RangeDependency(rdd=None, in_start=0, out_start=3, length=4)  # type: ignore[arg-type]
    assert dep.parents_of(3) == [0]
    assert dep.parents_of(6) == [3]
    assert dep.parents_of(2) == []
    assert dep.parents_of(7) == []


def test_shuffle_dependency_ids_unique():
    a = ShuffleDependency(rdd=None, partitioner=HashPartitioner(2))  # type: ignore[arg-type]
    b = ShuffleDependency(rdd=None, partitioner=HashPartitioner(2))  # type: ignore[arg-type]
    assert a.shuffle_id != b.shuffle_id


def test_coalesce_dependency_covers_all_parents(sc):
    rdd = sc.parallelize(range(12), 6).coalesce(2)
    dep = rdd.deps[0]
    covered = sorted(p for split in range(2) for p in dep.parents_of(split))
    assert covered == list(range(6))


# -------------------------------------------------------------------- metrics
def test_task_metrics_duration():
    m = TaskMetrics(launch_time=1.0, finish_time=3.5)
    assert m.duration == 2.5
    assert TaskMetrics().duration == 0.0
    assert TaskMetrics(bytes_read=10, bytes_written=5).total_bytes == 15


def test_stage_metrics_totals():
    stage = StageMetrics(stage_id=0, submit_time=0.0, complete_time=2.0)
    stage.tasks = [TaskMetrics(records_read=5), TaskMetrics(records_read=7)]
    assert stage.duration == 2.0
    assert stage.total("records_read") == 12


def test_job_summary_and_merge():
    job1 = JobMetrics(job_id=0, submit_time=0.0, complete_time=1.0)
    stage = StageMetrics(stage_id=0)
    stage.tasks = [TaskMetrics(records_read=10, compute_ops=100.0)]
    job1.stages = [stage]
    job2 = JobMetrics(job_id=1, submit_time=1.0, complete_time=3.0)
    stage2 = StageMetrics(stage_id=1)
    stage2.tasks = [TaskMetrics(records_read=4, compute_ops=50.0)]
    job2.stages = [stage2]

    merged = merge_job_metrics([job1, job2])
    assert merged["duration"] == pytest.approx(3.0)
    assert merged["records_read"] == 14
    assert merged["compute_ops"] == 150.0
    assert merged["num_tasks"] == 2


def test_merge_empty_jobs():
    assert merge_job_metrics([]) == {"duration": 0.0}


SUMMED = (
    "records_read", "records_written", "bytes_read", "bytes_written",
    "random_reads", "random_writes", "compute_ops", "shuffle_bytes_written",
    "shuffle_bytes_read", "spill_bytes", "dispatch_wait", "cpu_wait",
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.lists(
                    st.floats(0.0, 1e9, allow_nan=False), min_size=len(SUMMED) - 1,
                    max_size=len(SUMMED) - 1,
                ),
            ),
            max_size=12,
        ),
        max_size=4,
    )
)
def test_job_summary_totals_each_field_like_total(stages):
    """The one-pass summary adds each field in task order, as ``total``
    does field by field: the floats are equal bit for bit."""
    job = JobMetrics(job_id=0)
    for stage_id, tasks in enumerate(stages):
        stage = StageMetrics(stage_id=stage_id)
        stage.tasks = [
            TaskMetrics(records_read=count, **dict(zip(SUMMED[1:], values)))
            for count, values in tasks
        ]
        job.stages.append(stage)
    summary = job.summary()
    assert list(summary)[3 : 3 + len(SUMMED)] == list(SUMMED)
    for name in SUMMED:
        assert summary[name].hex() == job.total(name).hex()
    assert summary["num_tasks"] == sum(len(tasks) for tasks in stages)


# ---------------------------------------------------------- event priorities
def test_urgent_events_run_before_normal():
    env = Environment()
    order = []

    normal = Event(env)
    normal.callbacks.append(lambda e: order.append("normal"))
    urgent = Event(env)
    urgent.callbacks.append(lambda e: order.append("urgent"))

    # Schedule at the same time, normal first.
    normal._ok = True
    normal._value = None
    env.schedule(normal, priority=NORMAL)
    urgent._ok = True
    urgent._value = None
    env.schedule(urgent, priority=URGENT)

    env.run()
    assert order == ["urgent", "normal"]


# ----------------------------------------------------------- context describe
def test_conf_describe_reflects_overrides():
    conf = SparkConf(num_executors=4, executor_cores=10, memory_tier=3)
    text = conf.describe()
    assert "4 executor(s)" in text
    assert "tier 3" in text


def test_sc_metrics_summary_accumulates():
    sc = SparkContext(conf=SparkConf(default_parallelism=2))
    sc.parallelize(range(10), 2).count()
    sc.parallelize(range(10), 2).count()
    summary = sc.metrics_summary()
    assert summary["num_tasks"] == 4
    assert summary["duration"] == pytest.approx(sc.total_job_time())
