"""The collector contract of ``_paused_gc``, the one pause site in src/.

Each point runs with automatic collection off and ends with a single
generation-0 catch-up: enough to free every reference cycle born inside
the pause, without rescanning the long-lived heap.
"""

import asyncio
import gc
import weakref

import pytest

from repro import api
from repro.options import RunOptions
from repro.runner import CampaignRunner, campaign
from repro.runner.campaign import _paused_gc
from repro.service import ExperimentService

TINY = api.config("sort", size="tiny", tier=1)


class Node:
    pass


@pytest.fixture(autouse=True)
def _collector_enabled_afterwards():
    yield
    gc.enable()


@pytest.fixture
def collections():
    """Generations of every collection started while the fixture lives."""
    generations: list[int] = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(record)
    yield generations
    gc.callbacks.remove(record)


@pytest.fixture
def spy_points(monkeypatch):
    """``gc.isenabled()`` as seen by each point's simulation."""
    seen: list[bool] = []
    real = campaign.run_experiment

    def spy(config, observer=None):
        seen.append(gc.isenabled())
        return real(config, observer=observer)

    monkeypatch.setattr(campaign, "run_experiment", spy)
    return seen


def test_cycle_born_inside_the_pause_is_freed_on_exit():
    freed = []
    with _paused_gc():
        a, b = Node(), Node()
        a.peer, b.peer = b, a
        ref = weakref.ref(a, lambda _: freed.append(True))
        del a, b
        assert not freed and ref() is not None  # paused: cycle still alive
    assert freed and ref() is None


def test_exit_runs_exactly_one_generation_0_collection(collections):
    with _paused_gc():
        junk = [[] for _ in range(10_000)]  # past every automatic threshold
        del junk
    assert collections == [0]
    assert gc.isenabled()


def test_pause_inside_a_disabled_collector_is_a_no_op(collections):
    gc.disable()
    with _paused_gc():
        pass
    assert not gc.isenabled()
    assert collections == []


def test_collector_is_re_enabled_when_the_body_raises():
    with pytest.raises(RuntimeError, match="boom"):
        with _paused_gc():
            assert not gc.isenabled()
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_serial_campaign_pauses_per_point_only(spy_points):
    between: list[bool] = []
    configs = [TINY, TINY.with_options(tier=2)]
    with CampaignRunner(
        reuse_traces=False,
        dataset_cache=False,
        progress=lambda _: between.append(gc.isenabled()),
    ) as runner:
        report = runner.run(configs)
    assert len(report.results) == len(configs)
    assert spy_points == [False] * len(configs)
    assert all(between)  # no wave-level pause around the points
    assert gc.isenabled()


def test_serial_service_job_leaves_the_collector_enabled(spy_points):
    async def go():
        service = ExperimentService(RunOptions(reuse_traces=False), heartbeat=0)
        async with service:
            return await service.run(TINY)

    result = asyncio.run(go())
    assert result.verified
    assert spy_points == [False]
    assert gc.isenabled()
