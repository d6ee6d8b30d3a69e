"""Worker supervision: a pool worker that dies fails only the jobs in
flight on it; the service replaces the pool and keeps serving."""

import asyncio
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import api
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import run_experiment
from repro.options import RunOptions
from repro.runner.campaign import _execute_point
from repro.service import ExperimentService
from repro.service import service as service_module

DOOMED = api.config("sort", size="tiny", tier=3)


def kill_worker_for_doomed(config, trace_root, obs_dir):
    """Pool entry point that SIGKILLs its own worker for ``DOOMED``."""
    if config == DOOMED:
        os.kill(os.getpid(), signal.SIGKILL)
    return _execute_point(config, trace_root, obs_dir)


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
