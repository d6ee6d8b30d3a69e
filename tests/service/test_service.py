"""Semantics of the async experiment service.

No pytest-asyncio in the toolchain, so each test drives its own event
loop with ``asyncio.run``.  Scheduling-order tests use a *gated* stub
executor — the single worker thread blocks on a ``threading.Event``, so
tests can fill the queue, cancel, drain, then release and observe the
exact dispatch order.
"""

import asyncio
import threading

import pytest

from repro import api
from repro.options import RunOptions
from repro.service import (
    ClientLimitError,
    ExperimentService,
    JobCancelledError,
    QueueFullError,
    ServiceClosedError,
)

TINY = api.config("sort", size="tiny", tier=1)


class GatedExecute:
    """Stub worker entry point: blocks until the gate opens, then
    returns a deterministic value derived from the config."""

    def __init__(self, open_immediately: bool = False) -> None:
        self.gate = threading.Event()
        if open_immediately:
            self.gate.set()
        self.calls: list[str] = []
        self.lock = threading.Lock()

    def __call__(self, config, trace_root, obs_dir, dataset_root):
        with self.lock:
            self.calls.append(config.describe())
        assert self.gate.wait(timeout=30), "gate never opened"
        return f"value:{config.describe()}", "executed"


def gated_service(gate: GatedExecute, **kwargs) -> ExperimentService:
    kwargs.setdefault("heartbeat", 0)
    return ExperimentService(
        RunOptions(reuse_traces=False), execute=gate, **kwargs
    )


async def settle() -> None:
    """Let pending callbacks (dispatch, _finish) run."""
    for _ in range(20):
        await asyncio.sleep(0.01)


# ---------------------------------------------------------------- identity
def test_results_bit_identical_to_api_run(tmp_path):
    direct = api.run(TINY)

    async def go():
        options = RunOptions(cache_dir=str(tmp_path / "cache"))
        async with ExperimentService(options, heartbeat=0) as service:
            return await service.run(TINY)

    via_service = asyncio.run(go())
    assert via_service.execution_time == direct.execution_time
    assert via_service.records_processed == direct.records_processed
    assert via_service.nvm_reads == direct.nvm_reads
    assert via_service.nvm_writes == direct.nvm_writes


def test_capture_then_replay_scheduling_is_value_identical(tmp_path):
    configs = [TINY.with_options(tier=t) for t in (0, 1, 2)]
    direct = [api.run(c) for c in configs]

    async def go():
        options = RunOptions(trace_dir=str(tmp_path / "traces"))
        async with ExperimentService(options, heartbeat=0) as service:
            jobs = [await service.submit(c) for c in configs]
            results = [await job.result() for job in jobs]
            return results, sorted(job.status for job in jobs)

    results, statuses = asyncio.run(go())
    assert statuses == ["captured", "replayed", "replayed"]
    assert [r.execution_time for r in results] == [
        r.execution_time for r in direct
    ]


def test_pooled_service_captures_then_replays(tmp_path):
    """Two behaviour classes x two tiers through a 2-process pool: the
    first job of each class captures, the second replays the artifact
    (read by the worker from disk), and every result equals a direct
    run."""
    from repro.analysis.resultstore import result_to_dict
    from repro.core.experiment import run_experiment

    points = [
        api.config(workload, size="tiny", tier=tier)
        for workload in ("sort", "repartition")
        for tier in (0, 2)
    ]

    async def go():
        options = RunOptions(workers=2, trace_dir=tmp_path)
        async with ExperimentService(options, heartbeat=0) as service:
            jobs = [await service.submit(c) for c in points]
            results = [await job.result() for job in jobs]
            return results, [job.status for job in jobs]

    results, statuses = asyncio.run(go())
    assert statuses == ["captured", "replayed"] * 2
    for point, result in zip(points, results):
        assert result_to_dict(result) == result_to_dict(run_experiment(point))


# ---------------------------------------------------------------- coalescing
def test_coalescing_returns_identical_result_object():
    gate = GatedExecute()

    async def go():
        async with gated_service(gate) as service:
            first = await service.submit(TINY, client="a")
            await settle()  # first starts running (and blocks on the gate)
            second = await service.submit(TINY, client="b")
            third = await service.submit(TINY, client="c")
            assert second.state == "coalesced"
            assert third.state == "coalesced"
            gate.gate.set()
            results = [await j.result() for j in (first, second, third)]
            return service, (first, second, third), results

    service, jobs, results = asyncio.run(go())
    # one execution, one result *object*, shared by every caller
    assert gate.calls == [TINY.describe()]
    assert results[1] is results[0]
    assert results[2] is results[0]
    assert [j.status for j in jobs] == ["executed", "coalesced", "coalesced"]
    assert service.metrics.counter("service.coalesce_hits") == 2
    assert service.metrics.counter("service.completed") == 3


def test_cached_submission_resolves_instantly(tmp_path):
    async def go():
        options = RunOptions(cache_dir=str(tmp_path), reuse_traces=False)
        async with ExperimentService(options, heartbeat=0) as service:
            first = await service.submit(TINY)
            await first.result()
            second = await service.submit(TINY)
            result = await second.result()
            return service, second, result

    service, second, result = asyncio.run(go())
    assert second.status == "cached"
    assert result.execution_time == api.run(TINY).execution_time
    assert service.metrics.counter("service.cache_hits") == 1


# ---------------------------------------------------------------- live jobs
def test_jobs_holds_live_jobs_only(tmp_path):
    """``service.jobs`` holds a job while it is queued, coalesced or
    running, and drops it as it resolves; a cached or refused
    submission is never held."""
    configs = [TINY.with_options(tier=t) for t in (2, 3)]

    async def go():
        options = RunOptions(cache_dir=str(tmp_path))
        async with ExperimentService(options, heartbeat=0, max_queue=1) as service:
            first = await service.submit(TINY)  # runs at once
            follower = await service.submit(TINY)
            queued = await service.submit(configs[0])
            with pytest.raises(QueueFullError):
                await service.submit(configs[1])
            assert sorted(service.jobs) == [first.id, follower.id, queued.id]
            for job in (first, follower, queued):
                await job.result()
            assert service.jobs == {}
            cached = await service.submit(TINY)
            assert cached.status == "cached" and service.jobs == {}
            return [job.status for job in (first, follower, queued)]

    assert asyncio.run(go()) == ["captured", "coalesced", "replayed"]


def test_cached_jobs_leave_nothing_behind(tmp_path):
    """A long-lived service's traced memory after 2,000 cached jobs from
    2 clients is what it was after 200 (holding every job, it grew by
    about 4.7 KB a job)."""
    import gc
    import tracemalloc

    async def client(service, name, jobs):
        for _ in range(jobs):
            await service.run(TINY, client=name)
            # A server's loop turns between requests: the finished
            # futures' callbacks run and release them.
            await asyncio.sleep(0)

    async def go():
        options = RunOptions(cache_dir=str(tmp_path))
        async with ExperimentService(options, heartbeat=0) as service:
            await service.run(TINY)
            traced = []
            for per_client in (100, 900):
                await asyncio.gather(
                    client(service, "a", per_client), client(service, "b", per_client)
                )
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
            assert service.jobs == {}
            return traced

    tracemalloc.start()
    try:
        after_200, after_2000 = asyncio.run(go())
    finally:
        tracemalloc.stop()
    assert after_2000 - after_200 < 128 * 1024


# ---------------------------------------------------------------- backpressure
def test_queue_full_raises_explicitly():
    gate = GatedExecute()
    configs = [TINY.with_options(tier=t) for t in range(4)]

    async def go():
        async with gated_service(gate, max_queue=2) as service:
            await service.submit(configs[0], client="a")
            await settle()  # running now, not queued
            await service.submit(configs[1], client="b")
            await service.submit(configs[2], client="c")
            with pytest.raises(QueueFullError):
                await service.submit(configs[3], client="d")
            gate.gate.set()
            return service

    service = asyncio.run(go())
    assert service.metrics.counter("service.rejected.queue_full") == 1


def test_client_inflight_cap_raises():
    gate = GatedExecute()
    configs = [TINY.with_options(tier=t) for t in range(3)]

    async def go():
        async with gated_service(gate, max_inflight_per_client=2) as service:
            await service.submit(configs[0], client="greedy")
            await service.submit(configs[1], client="greedy")
            with pytest.raises(ClientLimitError):
                await service.submit(configs[2], client="greedy")
            # other clients are unaffected by one client's cap
            other = await service.submit(configs[2], client="polite")
            gate.gate.set()
            await other.result()
            return service

    service = asyncio.run(go())
    assert service.metrics.counter("service.rejected.client_limit") == 1


# ---------------------------------------------------------------- scheduling
def test_priority_then_fair_share_then_fifo_order():
    gate = GatedExecute()
    # distinct from TINY (which blocks the slot) and from each other
    mk = [TINY.with_options(mba_percent=p) for p in (10, 25, 50, 75)]

    async def go():
        async with gated_service(gate) as service:
            blocker = await service.submit(TINY, client="z")
            await settle()  # occupies the single slot
            b = await service.submit(mk[0], client="one", priority=0)
            c = await service.submit(mk[1], client="two", priority=5)
            d = await service.submit(mk[2], client="one", priority=5)
            e = await service.submit(mk[3], client="three", priority=0)
            gate.gate.set()
            for job in (blocker, b, c, d, e):
                await job.result()

    asyncio.run(go())
    # priority first (c, d by seq); then fair share: client three has
    # never been served, client one just was — e before b.
    assert gate.calls == [
        TINY.describe(),
        mk[1].describe(),
        mk[2].describe(),
        mk[3].describe(),
        mk[0].describe(),
    ]


def test_cancellation_mid_queue_never_leaks_a_slot():
    gate = GatedExecute()
    mk = [TINY.with_options(tier=t) for t in range(4)]

    async def go():
        async with gated_service(gate) as service:
            running = await service.submit(mk[0], client="a")
            await settle()
            doomed = await service.submit(mk[1], client="b")
            survivor = await service.submit(mk[2], client="c")
            assert doomed.cancel() is True
            assert doomed.cancel() is False  # idempotent
            gate.gate.set()
            await running.result()
            await survivor.result()
            with pytest.raises(JobCancelledError):
                await doomed.result()
            # the pool still has its full capacity: new work runs
            late = await service.submit(mk[3], client="d")
            await late.result()
            summary = service.summary()
            return service, summary

    service, summary = asyncio.run(go())
    assert mk[1].describe() not in gate.calls  # never executed
    assert summary["completed"] == 3
    assert summary["cancelled"] == 1
    assert summary["running"] == 0
    assert summary["active"] == 0
    assert service.metrics.counter("service.cancelled") == 1


def test_cancelling_queued_primary_promotes_coalesced_follower():
    gate = GatedExecute()
    other = TINY.with_options(tier=2)

    async def go():
        async with gated_service(gate) as service:
            blocker = await service.submit(TINY, client="z")
            await settle()
            primary = await service.submit(other, client="a")
            follower = await service.submit(other, client="b")
            assert follower.state == "coalesced"
            assert primary.cancel() is True
            assert follower.state == "queued"  # promoted, still scheduled
            gate.gate.set()
            await blocker.result()
            result = await follower.result()
            with pytest.raises(JobCancelledError):
                await primary.result()
            return result

    result = asyncio.run(go())
    assert result == f"value:{other.describe()}"
    assert gate.calls.count(other.describe()) == 1


def test_running_jobs_are_not_cancellable():
    gate = GatedExecute()

    async def go():
        async with gated_service(gate) as service:
            job = await service.submit(TINY)
            await settle()
            assert job.state == "running"
            assert job.cancel() is False
            gate.gate.set()
            return await job.result()

    assert asyncio.run(go()) == f"value:{TINY.describe()}"


# ---------------------------------------------------------------- drain
def test_drain_completes_inflight_and_rejects_new():
    gate = GatedExecute()
    other = TINY.with_options(tier=3)

    async def go():
        service = gated_service(gate)
        async with service:
            running = await service.submit(TINY, client="a")
            queued = await service.submit(other, client="b")
            await settle()
            drainer = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)
            assert not drainer.done()  # still waiting on admitted work
            with pytest.raises(ServiceClosedError):
                await service.submit(TINY.with_options(tier=2))
            gate.gate.set()
            await drainer
            assert running.done and queued.done
            return service

    service = asyncio.run(go())
    assert service.summary()["completed"] == 2
    assert service.summary()["active"] == 0
    assert service.metrics.counter("service.rejected.closed") == 1


def test_shutdown_cancel_queued_cancels_only_unstarted_work():
    gate = GatedExecute()
    other = TINY.with_options(tier=2)

    async def go():
        service = gated_service(gate)
        await service.start()
        running = await service.submit(TINY)
        await settle()
        queued = await service.submit(other)
        gate.gate.set()
        await service.shutdown(cancel_queued=True)
        assert running.status == "executed"
        assert queued.state == "cancelled"
        return service

    service = asyncio.run(go())
    assert service.summary()["cancelled"] == 1


# ---------------------------------------------------------------- events
def test_event_stream_replays_history_for_late_subscribers():
    async def go():
        async with gated_service(GatedExecute(True)) as service:
            job = await service.submit(TINY)
            await job.result()
            kinds = [event.kind async for event in job.events()]
            wire = [event.to_dict() for event in job.event_log]
            return kinds, wire

    kinds, wire = asyncio.run(go())
    assert kinds == ["queued", "started", "done"]
    assert [w["event"] for w in wire] == kinds
    assert all(w["job"] == wire[0]["job"] for w in wire)
    assert wire[-1]["status"] == "executed"
    assert wire[-1]["latency_s"] >= 0


def test_failed_job_raises_and_emits_failed_event():
    def explode(config, trace_root, obs_dir, dataset_root):
        raise ValueError("boom")

    async def go():
        options = RunOptions(reuse_traces=False)
        async with ExperimentService(
            options, heartbeat=0, execute=explode
        ) as service:
            job = await service.submit(TINY)
            with pytest.raises(ValueError, match="boom"):
                await job.result()
            return service, [e.kind for e in job.event_log], job

    service, kinds, job = asyncio.run(go())
    assert kinds == ["queued", "started", "failed"]
    assert job.error == "ValueError: boom"
    assert service.metrics.counter("service.failed") == 1
