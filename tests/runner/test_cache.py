"""ResultCache: hit/miss, durability, resume, corruption tolerance and
a full disk."""

import asyncio
import errno
import os

import pytest

from repro import api
from repro.analysis.resultstore import ResultStore, result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.options import RunOptions
from repro.runner import cache as cache_module
from repro.runner.cache import CACHE_FILE, ResultCache
from repro.service import ExperimentService


def _point(tier: int = 0) -> ExperimentConfig:
    return ExperimentConfig(workload="repartition", size="tiny", tier=tier)


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    config = _point()
    assert config not in cache
    assert cache.get(config) is None

    result = run_experiment(config)
    cache.put(config, result)
    assert config in cache and len(cache) == 1
    hit = cache.get(config)
    assert hit is not None
    assert hit.execution_time == result.execution_time
    assert hit.config == config


def test_cache_is_durable_across_instances(tmp_path):
    config = _point(tier=2)
    ResultCache(tmp_path).put(config, run_experiment(config))
    assert (tmp_path / CACHE_FILE).exists()

    fresh = ResultCache(tmp_path)
    assert fresh.load() == 1
    assert config in fresh
    assert _point(tier=0) not in fresh


def test_put_is_idempotent(tmp_path):
    cache = ResultCache(tmp_path)
    config = _point()
    result = run_experiment(config)
    cache.put(config, result)
    cache.put(config, result)
    assert len(ResultCache(tmp_path)) == 1


def test_clear_empties_the_store(tmp_path):
    cache = ResultCache(tmp_path)
    config = _point()
    cache.put(config, run_experiment(config))
    cache.clear()
    assert len(cache) == 0
    assert ResultCache(tmp_path).load() == 0


def test_corrupt_lines_are_skipped(tmp_path):
    """An unclean shutdown can truncate the last line; resume must survive."""
    cache = ResultCache(tmp_path)
    config = _point()
    cache.put(config, run_experiment(config))
    with (tmp_path / CACHE_FILE).open("a", encoding="utf-8") as fh:
        fh.write('{"key": "abc", "trunc')

    fresh = ResultCache(tmp_path)
    assert fresh.load() == 1
    assert config in fresh


# ---------------------------------------------------------------- full disk

@pytest.fixture
def full_disk(monkeypatch):
    """Every append to ``results.jsonl`` fails with ENOSPC, as on a full
    disk; the failure counts start from zero."""

    def append_row(self, row):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(ResultStore, "append_row", append_row)
    cache_module.reset_stats()


def _direct(config: ExperimentConfig) -> dict:
    return result_to_dict(run_experiment(config))


def test_a_full_disk_keeps_a_serial_campaign_point(tmp_path, full_disk):
    config = _point()
    report = api.campaign([config], options=RunOptions(cache_dir=str(tmp_path)))
    (point,) = report.points
    assert point.status == "captured" and point.error is None
    assert result_to_dict(point.result) == _direct(config)
    assert cache_module.stats() == {"put_failed": 1}
    assert not (tmp_path / CACHE_FILE).exists()


def test_a_full_disk_keeps_an_api_run_result(tmp_path, full_disk):
    config = _point(tier=2)
    result = api.run(config, options=RunOptions(cache_dir=str(tmp_path)))
    assert result_to_dict(result) == _direct(config)
    assert cache_module.stats() == {"put_failed": 1}


def test_a_full_disk_keeps_a_service_job(tmp_path, full_disk):
    """The job resolves with its computed result and leaves the service,
    so a drain returns; bounded, so a job that never resolves fails the
    test instead of hanging it."""
    config = _point(tier=3)

    async def go():
        service = ExperimentService(RunOptions(cache_dir=str(tmp_path)), heartbeat=0)
        try:
            result = await asyncio.wait_for(service.run(config), timeout=60)
            await asyncio.wait_for(service.drain(), timeout=10)
            return result, dict(service.jobs)
        finally:
            await service.shutdown(drain=False)

    result, live = asyncio.run(go())
    assert result_to_dict(result) == _direct(config)
    assert live == {}
    assert cache_module.stats() == {"put_failed": 1}
