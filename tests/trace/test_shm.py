"""Shared-memory trace transport: zero-copy round trips, creator-owned
lifecycle, zero leaked segments on crash, cancellation and drain."""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.runner import run_campaign
from repro.trace import (
    SharedTraceCache,
    TraceStore,
    capture_experiment,
    clear_shared_view,
    fast_replay_experiment,
    install_shared_view,
    trace_key,
)
from repro.trace.shm import _SEGMENT_PREFIX, attach

DEV_SHM = Path("/dev/shm")


def our_segments() -> set[str]:
    if not DEV_SHM.exists():  # pragma: no cover - non-tmpfs platforms
        return set()
    return {p.name for p in DEV_SHM.iterdir() if _SEGMENT_PREFIX in p.name}


@pytest.fixture
def captured():
    config = ExperimentConfig(workload="sort", size="tiny")
    _, trace = capture_experiment(config)
    assert trace is not None
    return config, trace


@pytest.fixture(autouse=True)
def _isolated_shared_view():
    clear_shared_view()
    yield
    clear_shared_view()


# ------------------------------------------------------------- round trip

def test_publish_attach_roundtrip_is_bit_identical(captured):
    config, trace = captured
    cache = SharedTraceCache()
    try:
        descriptor = cache.publish(trace_key(config), trace)
        rebuilt = attach(descriptor)
        assert rebuilt is not None
        assert rebuilt.checksum == trace.checksum
        assert rebuilt.intact  # recomputed over the shared-memory views
        for job, shared_job in zip(trace.jobs, rebuilt.jobs):
            for ts, shared_ts in zip(job.task_sets, shared_job.task_sets):
                for name, arr in ts.floats.items():
                    np.testing.assert_array_equal(arr, shared_ts.floats[name])
                    assert not shared_ts.floats[name].flags.writeable
                for name, arr in ts.ints.items():
                    np.testing.assert_array_equal(arr, shared_ts.ints[name])
        for tier in (0, 3):
            target = config.with_options(tier=tier)
            assert result_to_dict(
                fast_replay_experiment(target, rebuilt)
            ) == result_to_dict(run_experiment(target))
    finally:
        cache.close()


def test_attach_is_cached_per_process(captured):
    config, trace = captured
    cache = SharedTraceCache()
    try:
        descriptor = cache.publish(trace_key(config), trace)
        assert attach(descriptor) is attach(descriptor)
    finally:
        cache.close()


def test_publish_is_idempotent_per_key(captured):
    config, trace = captured
    cache = SharedTraceCache()
    try:
        first = cache.publish("k", trace)
        assert cache.publish("k", trace) is first
        assert len(cache) == 1
    finally:
        cache.close()


def test_store_load_resolves_from_shared_view(tmp_path, captured):
    """An installed manifest serves loads with no artifact on disk."""
    config, trace = captured
    cache = SharedTraceCache()
    try:
        key = trace_key(config)
        install_shared_view({key: cache.publish(key, trace)})
        store = TraceStore(tmp_path)  # empty directory — no artifact
        loaded = store.load(config)
        assert loaded is not None and loaded.checksum == trace.checksum
    finally:
        cache.close()


def test_stale_manifest_falls_back_to_disk(tmp_path, captured):
    config, trace = captured
    cache = SharedTraceCache()
    key = trace_key(config)
    descriptor = cache.publish(key, trace)
    cache.close()  # publisher gone: the segment no longer exists
    install_shared_view({key: descriptor})
    store = TraceStore(tmp_path)
    assert store.load(config) is None  # no artifact either
    store.save(config, trace)
    loaded = store.load(config)
    assert loaded is not None and loaded.checksum == trace.checksum


# ------------------------------------------------------------ LRU bound

def test_lru_eviction_bounds_dev_shm(captured):
    """Publishing past ``max_bytes`` unlinks the least-recently-used
    segment; ``touch`` refreshes recency so hot classes survive."""
    _, trace = captured
    probe = SharedTraceCache()
    size = probe.publish("probe", trace).size
    probe.close()
    cache = SharedTraceCache(max_bytes=2 * size)
    try:
        first = cache.publish("a", trace)
        second = cache.publish("b", trace)
        assert cache.nbytes <= 2 * size and cache.evictions == 0
        cache.touch("a")  # "b" becomes the LRU entry
        cache.publish("c", trace)  # over bound — evicts "b" only
        assert sorted(cache.manifest()) == ["a", "c"]
        assert cache.evictions == 1
        assert cache.nbytes <= 2 * size
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=second.segment)
        assert attach(first) is not None  # survivor still attaches
    finally:
        cache.close()


def test_most_recent_segment_survives_any_bound(captured):
    """The entry just published is never evicted, even when it alone
    exceeds the bound — the caller is about to hand it to a worker."""
    _, trace = captured
    cache = SharedTraceCache(max_bytes=1)
    try:
        only = cache.publish("only", trace)
        assert len(cache) == 1
        assert attach(only) is not None
        cache.publish("next", trace)
        assert list(cache.manifest()) == ["next"]
    finally:
        cache.close()


def test_evicted_key_falls_back_to_disk(tmp_path, captured):
    """A worker holding a manifest for an evicted class must resolve
    the artifact from disk, not fail."""
    config, trace = captured
    key = trace_key(config)
    store = TraceStore(tmp_path)
    store.save(config, trace)
    cache = SharedTraceCache(max_bytes=1)
    try:
        descriptor = cache.publish(key, trace)
        cache.publish("displacer", trace)  # evicts ``key``
        install_shared_view({key: descriptor})
        loaded = store.load(config)
        assert loaded is not None and loaded.checksum == trace.checksum
    finally:
        cache.close()


# -------------------------------------------------------------- lifecycle

def test_close_unlinks_exactly_once(captured):
    config, trace = captured
    cache = SharedTraceCache()
    descriptor = cache.publish(trace_key(config), trace)
    before = our_segments()
    assert any(descriptor.segment in name for name in before)
    cache.close()
    cache.close()  # idempotent
    assert not any(descriptor.segment in name for name in our_segments())
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=descriptor.segment)


def test_dropping_the_cache_unlinks_via_finalizer(captured):
    config, trace = captured
    cache = SharedTraceCache()
    descriptor = cache.publish(trace_key(config), trace)
    del cache  # no close() — the weakref finalizer must clean up
    import gc

    gc.collect()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=descriptor.segment)


def _attach_and_crash(descriptor) -> None:  # pragma: no cover - subprocess
    attach(descriptor)
    os._exit(3)  # simulate a hard worker crash: no cleanup of any kind


def test_worker_crash_leaks_nothing(captured):
    """A worker dying mid-attachment must not leak or unlink anything:
    its mapping dies with it, the parent still owns the segment."""
    config, trace = captured
    cache = SharedTraceCache()
    descriptor = cache.publish(trace_key(config), trace)
    proc = multiprocessing.Process(
        target=_attach_and_crash, args=(descriptor,)
    )
    proc.start()
    proc.join(30)
    assert proc.exitcode == 3
    # The crash must not have torn the segment out from under siblings…
    assert attach(descriptor) is not None
    # …and the creator's close still unlinks it.
    cache.close()
    assert not any(descriptor.segment in name for name in our_segments())


def test_cancelled_campaign_leaks_nothing(tmp_path):
    """Failing points (the cancellation shape campaigns see) leave no
    segments behind once the runner is closed."""
    grid = [
        ExperimentConfig(workload="sort", size="tiny", tier=tier)
        for tier in range(4)
    ]
    bad = [ExperimentConfig(workload="sort", size="nope")]
    before = our_segments()
    report = run_campaign(grid + bad, workers=2, trace_dir=tmp_path)
    assert len(report.failures) == 1  # the bad point failed, isolated
    assert report.replayed == 3
    assert our_segments() == before


def test_campaign_over_shm_is_value_identical(tmp_path):
    grid = [
        ExperimentConfig(workload="repartition", size="tiny", tier=tier)
        for tier in range(4)
    ]
    serial = run_campaign(grid, reuse_traces=False)
    before = our_segments()
    cold = run_campaign(grid, workers=2, trace_dir=tmp_path)
    warm = run_campaign(grid, workers=2, trace_dir=tmp_path)
    reference = [result_to_dict(r) for r in serial.results]
    assert [result_to_dict(r) for r in cold.results] == reference
    assert [result_to_dict(r) for r in warm.results] == reference
    assert warm.replayed == len(grid)
    assert our_segments() == before
