"""MemoryDevice service model: latency, bandwidth, queueing, counters."""

import gc
import weakref

import pytest

from repro.memory.device import (
    AccessProfile,
    LOCAL_PATH,
    MemoryDevice,
    PathCharacteristics,
)
from repro.memory.technology import DDR4_DRAM, OPTANE_DCPM
from repro.sim import Environment
from repro.units import MB, gbps_to_bps, ns_to_s


@pytest.fixture
def dram(env):
    return MemoryDevice(env, "dram0", DDR4_DRAM, dimm_count=2)


@pytest.fixture
def nvm(env):
    return MemoryDevice(env, "nvm0", OPTANE_DCPM, dimm_count=4)


def test_profile_validation():
    with pytest.raises(ValueError):
        AccessProfile(bytes_read=-1)


def test_profile_scaling_and_addition():
    p = AccessProfile(bytes_read=100, bytes_written=50, random_reads=10, random_writes=5)
    half = p.scaled(0.5)
    assert half.bytes_read == 50
    assert half.random_writes == 2.5
    total = half + half
    assert total.total_bytes == p.total_bytes
    assert AccessProfile().is_empty
    assert not p.is_empty


def test_capacity_and_peaks(dram, nvm):
    assert dram.capacity == 2 * DDR4_DRAM.dimm_capacity
    assert dram.peak_read_bandwidth == pytest.approx(gbps_to_bps(39.3))
    assert nvm.peak_read_bandwidth == pytest.approx(gbps_to_bps(10.7))
    assert nvm.peak_write_bandwidth < nvm.peak_read_bandwidth


def test_pointer_chase_latency_matches_spec(env, dram):
    """At MLP 1, each random read costs exactly the idle latency."""
    service = dram.service_time(
        AccessProfile(random_reads=1000), mlp_read=1.0, mlp_write=1.0
    )
    assert service == pytest.approx(1000 * ns_to_s(77.8))


def test_mlp_overlaps_random_reads(env, dram):
    chase = dram.service_time(AccessProfile(random_reads=1000), mlp_read=1.0)
    overlapped = dram.service_time(AccessProfile(random_reads=1000), mlp_read=4.0)
    assert overlapped == pytest.approx(chase / 4)


def test_nvm_writes_cost_more_than_reads(nvm):
    reads = nvm.service_time(AccessProfile(random_reads=1000), mlp_read=1.0)
    writes = nvm.service_time(AccessProfile(random_writes=1000), mlp_write=1.0)
    assert writes > reads


def test_hop_latency_added_per_access(dram):
    local = dram.service_time(AccessProfile(random_reads=100), mlp_read=1.0)
    remote = dram.service_time(
        AccessProfile(random_reads=100),
        path=PathCharacteristics(hop_latency=ns_to_s(53.1)),
        mlp_read=1.0,
    )
    assert remote - local == pytest.approx(100 * ns_to_s(53.1))


def test_streaming_uses_core_bandwidth_when_lower(dram):
    nbytes = 10 * MB
    service = dram.service_time(
        AccessProfile(bytes_read=nbytes), core_stream_bw=gbps_to_bps(1.0)
    )
    assert service == pytest.approx(nbytes / gbps_to_bps(1.0))


def test_streaming_capped_by_path(dram):
    nbytes = 10 * MB
    capped = dram.service_time(
        AccessProfile(bytes_read=nbytes),
        path=PathCharacteristics(bandwidth_cap=gbps_to_bps(0.5)),
        core_stream_bw=float("inf"),
    )
    assert capped == pytest.approx(nbytes / gbps_to_bps(0.5))


def test_fair_share_under_concurrency(env, nvm):
    """Concurrent streams each get a fraction of device bandwidth."""
    elapsed = {}

    def stream(env, tag, n_peers):
        profile = AccessProfile(bytes_read=8 * MB)
        start = env.now
        yield from nvm.access(profile, core_stream_bw=float("inf"))
        elapsed[tag] = env.now - start

    env.process(stream(env, "solo", 1))
    env.run()
    solo = elapsed["solo"]

    for i in range(4):
        env.process(stream(env, f"peer{i}", 4))
    env.run()
    # Rates are sampled at admission: the first-admitted stream may see an
    # empty device, but later ones share — the average burst slows down.
    peers = [elapsed[f"peer{i}"] for i in range(4)]
    assert max(peers) > solo * 2
    assert sum(peers) / len(peers) > solo * 1.5


def test_queue_blocks_beyond_capacity(env):
    device = MemoryDevice(env, "tiny", OPTANE_DCPM, dimm_count=1)
    # Queue depth = 4 for one Optane DIMM.
    finished = []

    def burst(env, tag):
        yield from device.access(AccessProfile(random_reads=10_000), mlp_read=1.0)
        finished.append((tag, env.now))

    for i in range(8):
        env.process(burst(env, i))
    env.run()
    times = sorted(t for _, t in finished)
    # Two queueing waves: the second four finish strictly later.
    assert times[4] > times[3]


def test_mba_throttles_streaming_not_latency(env, nvm):
    stream_profile = AccessProfile(bytes_read=8 * MB)
    latency_profile = AccessProfile(random_reads=10_000)

    stream_full = nvm.service_time(stream_profile)
    latency_full = nvm.service_time(latency_profile)
    nvm.set_bandwidth_cap(0.1)
    stream_throttled = nvm.service_time(stream_profile)
    latency_throttled = nvm.service_time(latency_profile)

    assert stream_throttled > stream_full * 5
    assert latency_throttled == pytest.approx(latency_full)


def test_mba_fraction_validation(nvm):
    with pytest.raises(ValueError):
        nvm.set_bandwidth_cap(0.0)
    with pytest.raises(ValueError):
        nvm.set_bandwidth_cap(1.5)


def test_record_updates_counters_and_dimms(env, nvm):
    profile = AccessProfile(
        bytes_read=1024, bytes_written=512, random_reads=100, random_writes=50
    )
    nvm.record(profile)
    counters = nvm.counters
    assert counters.random_reads == 100
    assert counters.random_writes == 50
    # Streamed bytes touch ceil(bytes/granule) granules + 1 per random op.
    assert counters.media_reads == 4 + 100
    assert counters.media_writes == 2 + 50
    # Interleaving spreads across 4 DIMMs.
    per_dimm = nvm.dimms[0].counters
    assert per_dimm.media_reads == pytest.approx(counters.media_reads / 4, abs=1)


def test_device_is_freed_without_the_cycle_collector():
    """A device and its DIMMs hold no reference cycle, even with bursts
    pending, so a replay's devices go with their last reference instead
    of waiting for the cycle collector."""
    device = MemoryDevice(Environment(), "nvm0", OPTANE_DCPM, dimm_count=4)
    device.record(AccessProfile(random_writes=10))
    alive = weakref.ref(device)
    gc.disable()
    try:
        del device
        assert alive() is None
    finally:
        gc.enable()


def test_access_process_returns_elapsed(env, dram):
    def proc(env):
        elapsed = yield from dram.access(AccessProfile(random_reads=1000))
        return elapsed

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(env.now)
    assert p.value > 0


def test_empty_access_is_free(env, dram):
    def proc(env):
        elapsed = yield from dram.access(AccessProfile())
        return elapsed

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0
    assert env.now == 0.0


def test_busy_time_tracked(env, dram):
    def proc(env):
        yield from dram.access(AccessProfile(bytes_read=MB))

    env.process(proc(env))
    env.run()
    assert dram.busy_time == pytest.approx(env.now)


def test_path_validation():
    with pytest.raises(ValueError):
        PathCharacteristics(hop_latency=-1)
    with pytest.raises(ValueError):
        PathCharacteristics(efficiency=0)
    with pytest.raises(ValueError):
        PathCharacteristics(mlp_factor=1.5)


def test_effective_mlp_floored_at_one():
    path = PathCharacteristics(mlp_factor=0.1)
    assert path.effective_mlp(4.0) == 1.0
    assert path.effective_mlp(20.0) == pytest.approx(2.0)
    assert LOCAL_PATH.effective_mlp(8.0) == 8.0
