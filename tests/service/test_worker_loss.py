"""Worker supervision: a pool worker that dies fails only the jobs in
flight on it; the service replaces the pool and keeps serving.  The
service keeps ``INFLIGHT_PER_WORKER`` jobs in flight per worker, so one
death fails at most ``INFLIGHT_PER_WORKER × workers`` jobs."""

import asyncio
import os
import signal
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import api
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import run_experiment
from repro.options import RunOptions
from repro.runner import campaign as campaign_module
from repro.runner import run_campaign
from repro.runner.campaign import _execute_point
from repro.service import ExperimentService
from repro.service import service as service_module
from repro.service.service import INFLIGHT_PER_WORKER

DOOMED = api.config("sort", size="tiny", tier=3)


def kill_worker_for_doomed(config, trace_root, obs_dir, dataset_root):
    """Pool entry point that SIGKILLs its own worker for ``DOOMED``."""
    if config == DOOMED:
        os.kill(os.getpid(), signal.SIGKILL)
    return _execute_point(config, trace_root, obs_dir, dataset_root)


def test_service_survives_a_killed_worker(tmp_path):
    """The killed job fails with ``BrokenProcessPool``; the next two
    jobs, a capture and a replay of the same behaviour class, run on a
    fresh pool and equal direct runs, and shutdown returns."""
    points = [api.config("sort", size="tiny", tier=tier) for tier in (0, 1)]

    async def main():
        service = ExperimentService(
            RunOptions(workers=2, trace_dir=tmp_path),
            heartbeat=0,
            execute=kill_worker_for_doomed,
        )
        await service.start()
        doomed = await service.submit(DOOMED)
        with pytest.raises(BrokenProcessPool):
            await doomed.result()
        jobs = [await service.submit(point) for point in points]
        results = [await job.result() for job in jobs]
        statuses = [job.status for job in jobs]
        summary = service.summary()
        restarts = service.metrics.counter("service.pool_restarts")
        await asyncio.wait_for(service.shutdown(), timeout=60)
        return results, statuses, summary, restarts

    results, statuses, summary, restarts = asyncio.run(main())
    assert statuses == ["captured", "replayed"]
    for point, result in zip(points, results):
        assert result_to_dict(result) == result_to_dict(run_experiment(point))
    assert summary["running"] == 0
    assert summary["failed"] == 1
    assert restarts == 1


class BreaksOnFirstSubmit(ProcessPoolExecutor):
    """A pool whose very first submission finds it already broken."""

    submits = 0

    def submit(self, *args, **kwargs):
        type(self).submits += 1
        if type(self).submits == 1:
            raise BrokenProcessPool("injected: a worker died while idle")
        return super().submit(*args, **kwargs)


def test_submission_to_a_broken_pool_runs_on_a_fresh_one(monkeypatch):
    """A pool that broke while idle is replaced at dispatch time, and
    the job that found it broken runs on the new pool."""
    monkeypatch.setattr(BreaksOnFirstSubmit, "submits", 0)
    monkeypatch.setattr(service_module, "ProcessPoolExecutor", BreaksOnFirstSubmit)
    point = api.config("sort", size="tiny", tier=2)

    async def main():
        service = ExperimentService(
            RunOptions(workers=2, reuse_traces=False), heartbeat=0
        )
        await service.start()
        job = await service.submit(point)
        result = await job.result()
        summary = service.summary()
        restarts = service.metrics.counter("service.pool_restarts")
        await asyncio.wait_for(service.shutdown(), timeout=60)
        return result, job.status, summary, restarts

    result, status, summary, restarts = asyncio.run(main())
    assert status == "executed"
    assert result_to_dict(result) == result_to_dict(run_experiment(point))
    assert summary["running"] == 0 and summary["failed"] == 0
    assert restarts == 1


#: Three behaviour classes at four tiers, class by class: each class's
#: first point captures and the other three wait on it.
CLASSES = ("sort", "repartition", "wordcount")
CAMPAIGN = [
    api.config(workload, size="tiny", tier=tier)
    for workload in CLASSES
    for tier in range(4)
]
DOOMED_CAPTURE = CAMPAIGN[4]


def kill_worker_for_doomed_capture(config, *roots):
    """Pool entry point that SIGKILLs its own worker for one capture."""
    if config == DOOMED_CAPTURE:
        os.kill(os.getpid(), signal.SIGKILL)
    return _execute_point(config, *roots)


def test_pooled_campaign_survives_a_killed_worker(monkeypatch, tmp_path):
    """A 2-worker campaign whose second capture kills its worker: only
    the points in flight on that pool fail (the doomed capture and any
    other capture the pool had been given, at most
    ``INFLIGHT_PER_WORKER × workers``); every other point equals a
    direct run, and each behaviour class is captured exactly once, by
    the first of its points left."""
    workers = 2
    for module in (campaign_module, service_module):
        monkeypatch.setattr(
            module, "_execute_point", kill_worker_for_doomed_capture
        )
    report = run_campaign(CAMPAIGN, workers=workers, trace_dir=tmp_path)

    failed = [point.index for point in report.failures]
    # A capture dispatched after the pool broke runs on the fresh pool.
    assert 4 in failed and set(failed) <= {0, 4, 8}
    assert len(failed) <= INFLIGHT_PER_WORKER * workers
    assert all("BrokenProcessPool" in p.error for p in report.failures)
    for point in report.points:
        if point.index not in failed:
            assert result_to_dict(point.result) == result_to_dict(
                run_experiment(point.config)
            )
    captured = Counter(
        p.config.workload for p in report.points if p.status == "captured"
    )
    assert captured == {workload: 1 for workload in CLASSES}
    for start in (0, 4, 8):
        left = [p for p in report.points[start:start + 4] if p.ok]
        assert [p.status for p in left] == ["captured"] + ["replayed"] * (
            len(left) - 1
        )


#: Twelve points that all dispatch at once without trace reuse.
DIRECT = [
    api.config("sort", size="tiny", tier=tier, mba_percent=mba)
    for mba in (40, 70, 100)
    for tier in range(4)
]


def kill_worker_for_second_direct_point(config, *roots):
    if config == DIRECT[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _execute_point(config, *roots)


def test_a_killed_worker_fails_at_most_the_in_flight_window(monkeypatch):
    """With every point dispatchable at once (no trace reuse), a death
    fails no more than the ``INFLIGHT_PER_WORKER × workers`` jobs the
    pool was given; the points after them run on the fresh pool."""
    workers = 2
    window = INFLIGHT_PER_WORKER * workers
    monkeypatch.setattr(
        service_module, "_execute_point", kill_worker_for_second_direct_point
    )
    report = run_campaign(DIRECT, workers=workers, reuse_traces=False)

    failed = [point.index for point in report.failures]
    assert 1 in failed and len(failed) <= window < len(DIRECT)
    for point in report.points:
        if point.index not in failed:
            assert result_to_dict(point.result) == result_to_dict(
                run_experiment(point.config)
            )
