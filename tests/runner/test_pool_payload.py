"""What a pooled point costs to send: its config and directory roots.

Pool workers read trace artifacts through their own ``TraceStore`` LRU,
so nothing about the traces already captured travels with a submission.
Every submission to a process pool, from a campaign or the service, is
pickled here exactly as the pool pickles it, and must stay small and
independent of how many behaviour classes ran before it.
"""

import asyncio
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.experiment import ExperimentConfig
from repro.options import RunOptions
from repro.runner import CampaignRunner
from repro.service import ExperimentService

#: A config pickles to a few hundred bytes (a faulted one with its
#: roots to under 600); nothing else should ride along.
MAX_PAYLOAD = 4096

#: Three behaviour classes, each captured at tier 0 and replayed at
#: tiers 2 and 3, so later submissions follow more finished classes.
GRID = [
    ExperimentConfig(workload=workload, size="tiny", tier=tier)
    for workload in ("sort", "repartition", "pagerank")
    for tier in (0, 2, 3)
]


@pytest.fixture
def payloads(monkeypatch):
    """Pickled size of every ProcessPoolExecutor submission, in order."""
    sizes: list[int] = []
    submit = ProcessPoolExecutor.submit

    def recording_submit(self, fn, /, *args, **kwargs):
        sizes.append(
            len(pickle.dumps((fn, args, kwargs), pickle.HIGHEST_PROTOCOL))
        )
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    return sizes


def assert_flat(sizes: list[int]) -> None:
    assert len(sizes) >= len(GRID)
    assert max(sizes) < MAX_PAYLOAD, sizes
    # Configs differ only in workload name and tier; a payload that grew
    # with the classes already run would spread by kilobytes.
    assert max(sizes) - min(sizes) < 64, sizes


def test_pooled_campaign_submissions_carry_only_config_and_roots(
    tmp_path, payloads
):
    with CampaignRunner(workers=2, trace_dir=tmp_path) as runner:
        cold = runner.run(GRID)
        warm = runner.run(GRID)
    assert cold.captured == 3 and cold.replayed == 6
    assert warm.replayed == len(GRID)
    assert len(payloads) == 2 * len(GRID)
    assert_flat(payloads)


def test_pooled_service_submissions_carry_only_config_and_roots(
    tmp_path, payloads
):
    async def go():
        options = RunOptions(workers=2, trace_dir=tmp_path)
        async with ExperimentService(options, heartbeat=0) as service:
            jobs = [await service.submit(config) for config in GRID]
            for job in jobs:
                await job.result()
            return sorted(job.status for job in jobs)

    statuses = asyncio.run(go())
    assert statuses == ["captured"] * 3 + ["replayed"] * 6
    assert len(payloads) == len(GRID)
    assert_flat(payloads)
