"""Property-based tests of the device service model."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.counters import AccessCounters
from repro.memory.device import (
    DEFAULT_CORE_STREAM_BW,
    AccessProfile,
    MemoryDevice,
    PathCharacteristics,
)
from repro.memory.energy import DimmEnergyModel
from repro.memory.faults import age_device, aged_technology
from repro.memory.technology import DDR4_DRAM, OPTANE_DCPM
from repro.memory.wear import WearTracker
from repro.sim import Environment
from repro.telemetry.ipmctl import IpmctlReader
from repro.telemetry.rapl import RaplReader
from repro.units import CACHE_LINE, gbps_to_bps, ns_to_s

volumes = st.floats(min_value=0.0, max_value=1e8, allow_nan=False)
counts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def fresh(tech=OPTANE_DCPM, dimms=4) -> MemoryDevice:
    return MemoryDevice(Environment(), "dev", tech, dimm_count=dimms)


@given(bytes_read=volumes, bytes_written=volumes, reads=counts, writes=counts)
@settings(max_examples=60)
def test_service_time_nonnegative_and_finite(bytes_read, bytes_written, reads, writes):
    device = fresh()
    profile = AccessProfile(
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        random_reads=reads,
        random_writes=writes,
    )
    service = device.service_time(profile)
    assert service >= 0.0
    assert service < float("inf")
    if profile.is_empty:
        assert service == 0.0


@given(reads=st.floats(min_value=1.0, max_value=1e6), extra=st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=40)
def test_more_random_reads_never_faster(reads, extra):
    device = fresh()
    base = device.service_time(AccessProfile(random_reads=reads))
    more = device.service_time(AccessProfile(random_reads=reads + extra))
    assert more >= base


@given(nbytes=st.floats(min_value=1.0, max_value=1e8))
@settings(max_examples=40)
def test_dram_streams_never_slower_than_nvm(nbytes):
    dram = fresh(DDR4_DRAM, dimms=2)
    nvm = fresh(OPTANE_DCPM, dimms=4)
    profile = AccessProfile(bytes_written=nbytes)
    assert dram.service_time(profile, core_stream_bw=float("inf")) <= nvm.service_time(
        profile, core_stream_bw=float("inf")
    )


@given(fraction=st.sampled_from([0.1, 0.2, 0.5, 0.9, 1.0]), nbytes=st.floats(min_value=1e4, max_value=1e8))
@settings(max_examples=40)
def test_mba_throttling_monotone(fraction, nbytes):
    device = fresh()
    profile = AccessProfile(bytes_read=nbytes)
    full = device.service_time(profile)
    device.set_bandwidth_cap(fraction)
    throttled = device.service_time(profile)
    assert throttled >= full - 1e-12


@given(hop_ns=st.floats(min_value=0.0, max_value=500.0), reads=st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=40)
def test_hop_latency_monotone(hop_ns, reads):
    device = fresh()
    profile = AccessProfile(random_reads=reads)
    local = device.service_time(profile, mlp_read=1.0)
    remote = device.service_time(
        profile, path=PathCharacteristics(hop_latency=ns_to_s(hop_ns)), mlp_read=1.0
    )
    assert remote >= local


@given(mlp=st.floats(min_value=1.0, max_value=32.0))
@settings(max_examples=40)
def test_mlp_never_hurts(mlp):
    device = fresh()
    profile = AccessProfile(random_reads=10_000)
    chase = device.service_time(profile, mlp_read=1.0)
    overlapped = device.service_time(profile, mlp_read=mlp)
    assert overlapped <= chase + 1e-12


@given(
    parts=st.integers(min_value=1, max_value=8),
    reads=st.floats(min_value=100.0, max_value=1e5),
    nbytes=st.floats(min_value=1e4, max_value=1e7),
)
@settings(max_examples=30)
def test_service_time_superadditive_under_splitting(parts, reads, nbytes):
    """Splitting a burst into chunks never *reduces* total service time
    (each chunk re-pays nothing, but rates are identical when idle)."""
    device = fresh()
    whole = device.service_time(
        AccessProfile(random_reads=reads, bytes_read=nbytes)
    )
    split = sum(
        device.service_time(
            AccessProfile(random_reads=reads / parts, bytes_read=nbytes / parts)
        )
        for _ in range(parts)
    )
    assert split == pytest.approx(whole, rel=1e-6)


@given(reads=st.integers(min_value=0, max_value=10**6), writes=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_record_counters_consistent(reads, writes):
    device = fresh()
    device.record(AccessProfile(random_reads=reads, random_writes=writes))
    assert device.counters.random_reads == reads
    assert device.counters.random_writes == writes
    assert device.counters.media_reads >= reads
    assert device.counters.media_writes >= writes


# ------------------------------------------------------- memoized model

def reference_service_time(
    tech, dimms, active, mba, profile, path, core_bw, mlp_read, mlp_write
):
    """``MemoryDevice.service_time`` as plain, un-memoized arithmetic."""
    mlp_r = path.effective_mlp(tech.mlp_read if mlp_read is None else mlp_read)
    mlp_w = path.effective_mlp(tech.mlp_write if mlp_write is None else mlp_write)
    streams = max(1, active)
    peak = {
        False: dimms * tech.dimm_read_bandwidth,
        True: dimms * tech.dimm_write_bandwidth,
    }

    def random_bw(write):
        return max(1.0, min(core_bw, peak[write] / streams, path.bandwidth_cap))

    def stream_bw(write):
        fair_share = peak[write] * path.efficiency / streams
        return max(1.0, min(core_bw * mba, fair_share, path.bandwidth_cap))

    gran = tech.access_granularity
    total = 0.0
    if profile.random_reads:
        total += max(
            profile.random_reads * (tech.read_latency + path.hop_latency) / mlp_r,
            profile.random_reads * gran / random_bw(False),
        )
    if profile.random_writes:
        total += max(
            profile.random_writes * (tech.write_latency + path.hop_latency) / mlp_w,
            profile.random_writes * gran / random_bw(True),
        )
    if profile.bytes_read:
        total += profile.bytes_read / stream_bw(False)
    if profile.bytes_written:
        total += profile.bytes_written / stream_bw(True)
    return total


def reference_record(tech, dimms, profile):
    """``MemoryDevice.record``'s device delta and per-DIMM share."""
    gran = tech.access_granularity
    reads = int(round(profile.random_reads))
    writes = int(round(profile.random_writes))
    delta = AccessCounters(
        media_reads=int(math.ceil(profile.bytes_read / gran)) + reads,
        media_writes=int(math.ceil(profile.bytes_written / gran)) + writes,
        bytes_read=int(profile.bytes_read + profile.random_reads * CACHE_LINE),
        bytes_written=int(profile.bytes_written + profile.random_writes * CACHE_LINE),
        random_reads=reads,
        random_writes=writes,
    )
    share = 1.0 / dimms
    per_dimm = AccessCounters(
        **{
            f.name: int(round(getattr(delta, f.name) * share))
            for f in dataclasses.fields(AccessCounters)
        }
    )
    return delta, per_dimm


#: A small pool of profile values, so that equal inputs recur.  Every
#: operation builds fresh profile and path objects: only their values
#: can match a memo entry.
PROFILES = (
    (0.0, 0.0, 0.0, 0.0),
    (4096.0, 0.0, 120.0, 0.0),
    (0.0, 1e6, 0.0, 37.5),
    (65536.0, 65536.0, 300.0, 128.0),
    (1e7, 2e6, 1e4, 3e3),
    (100.0, 0.0, 0.7, 0.3),
)
PATHS = (
    {},
    {"hop_latency": ns_to_s(53.1), "bandwidth_cap": gbps_to_bps(31.6), "mlp_factor": 0.5},
    {
        "hop_latency": ns_to_s(59.2),
        "bandwidth_cap": gbps_to_bps(31.6),
        "efficiency": 0.0879,
        "mlp_factor": 0.5,
    },
)
#: A few values per ``service_time`` argument (profile, path index, core
#: bandwidth, MLP overrides); their product is served.  Any two of those
#: calls that differ in one argument only then meet in the memo.
CALL_DOMAINS = st.tuples(
    st.lists(st.sampled_from(PROFILES), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(range(len(PATHS))), min_size=1, max_size=2, unique=True),
    st.lists(
        st.sampled_from([DEFAULT_CORE_STREAM_BW, gbps_to_bps(6.0), float("inf")]),
        min_size=1,
        max_size=2,
        unique=True,
    ),
    st.lists(st.sampled_from([None, 1.0, 4.0]), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from([None, 1.0, 2.5]), min_size=1, max_size=2, unique=True),
)
OPERATIONS = st.one_of(
    st.tuples(st.just("record"), st.integers(0, len(PROFILES) - 1)),
    st.just(("start",)),
    st.just(("finish",)),
    st.tuples(st.just("cap"), st.sampled_from([0.1, 0.5, 1.0])),
    st.tuples(st.just("age"), st.sampled_from([0.3, 0.8])),
    st.just(("unage",)),
)


@given(
    tech=st.sampled_from([DDR4_DRAM, OPTANE_DCPM]),
    dimms=st.sampled_from([1, 2, 4]),
    domains=CALL_DOMAINS,
    operations=st.lists(OPERATIONS, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_memoized_model_equals_unmemoized_arithmetic(tech, dimms, domains, operations):
    """Any interleaving of bursts, records, stream admissions, MBA
    changes and ``age_device`` entry/exit on one device: every service
    time and the final device and DIMM counters equal the reference
    arithmetic.  The same bursts (every combination of a few argument
    values) are served again after every operation, so equal inputs
    recur across every kind of state change.

    Each burst is also computed past the memo (``_service_time``), so
    every call exercises the per-context constants: consecutive calls
    switch path, core bandwidth and MLP overrides, and the operations
    between two calls of one context switch the stream count, MBA
    fraction and technology, each of which must rebuild what it
    changes."""
    calls = list(itertools.product(*domains))
    device = MemoryDevice(Environment(), "dev", tech, dimm_count=dimms)
    techs = [tech]  # the reference's technology stack under aging
    aging = []  # entered age_device contexts, innermost last
    active, mba = 0, 1.0
    counters, per_dimm = AccessCounters(), AccessCounters()

    def serve_all():
        # Alternate the order, so the first call after an operation has
        # the context of the last call before it: only what the
        # operation changed can invalidate that context's constants.
        calls.reverse()
        for p, q, core_bw, mlp_read, mlp_write in calls:
            profile = AccessProfile(*p)
            path = PathCharacteristics(**PATHS[q])
            expected = reference_service_time(
                techs[-1], dimms, active, mba, profile, path, core_bw,
                mlp_read, mlp_write,
            )
            assert device.service_time(
                profile, path=path, core_stream_bw=core_bw,
                mlp_read=mlp_read, mlp_write=mlp_write,
            ) == expected
            assert device._service_time(
                profile, path, core_bw, mlp_read, mlp_write
            ) == expected

    serve_all()
    for op in operations:
        kind = op[0]
        if kind == "record":
            profile = AccessProfile(*PROFILES[op[1]])
            delta, share = reference_record(techs[-1], dimms, profile)
            device.record(profile)
            counters.add(delta)
            per_dimm.add(share)
        elif kind == "start":
            device._stream_started()
            active += 1
        elif kind == "finish" and active:
            device._stream_finished()
            active -= 1
        elif kind == "cap":
            device.set_bandwidth_cap(op[1])
            mba = op[1]
        elif kind == "age":
            context = age_device(device, op[1])
            context.__enter__()
            aging.append(context)
            techs.append(aged_technology(techs[-1], op[1]))
        elif kind == "unage" and aging:
            aging.pop().__exit__(None, None, None)
            techs.pop()
        serve_all()
    while aging:
        aging.pop().__exit__(None, None, None)
    assert device.technology is tech
    assert device.counters == counters
    assert all(dimm.counters == per_dimm for dimm in device.dimms)


# ------------------------------------------------------ read-time accounting

#: A technology with another media granule, so that a swap to it changes
#: the counter deltas of every burst (``age_device`` keeps the granule).
COARSE_DRAM = dataclasses.replace(DDR4_DRAM, name="DDR4 (coarse)", access_granularity=512)

ACCOUNTING_OPERATIONS = st.one_of(
    st.tuples(st.just("record"), st.integers(0, len(PROFILES) - 1)),
    st.tuples(
        st.just("fresh"),
        st.tuples(
            st.floats(0.0, 1e7, allow_nan=False),
            st.floats(0.0, 1e7, allow_nan=False),
            st.floats(0.0, 1e4, allow_nan=False),
            st.floats(0.0, 1e4, allow_nan=False),
        ),
    ),
    st.tuples(st.just("age"), st.sampled_from([0.3, 0.8])),
    st.just(("unage",)),
    st.just(("swap",)),
    st.tuples(st.just("cap"), st.sampled_from([0.1, 0.5, 1.0])),
    st.just(("device",)),
    st.tuples(st.just("dimm"), st.integers(0, 3)),
    st.just(("ipmctl",)),
    st.just(("rapl",)),
    st.just(("wear",)),
)


@given(
    tech=st.sampled_from([DDR4_DRAM, OPTANE_DCPM]),
    dimms=st.sampled_from([1, 2, 4]),
    operations=st.lists(ACCOUNTING_OPERATIONS, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_counters_read_equal_eager_accumulation(tech, dimms, operations):
    """``record`` counts bursts and the counters fold them when read.
    Under any interleaving of repeated and fresh bursts, ``age_device``
    entry and exit, swaps to a technology with another granule, MBA
    changes and reads, every read equals counters that added each
    burst's deltas at the moment it was recorded: the device's and each
    DIMM's ``counters``, the ipmctl and RAPL windows (each read starts a
    new window) and the wear tracker."""
    env = Environment()
    device = MemoryDevice(env, "dev", tech, dimm_count=dimms)
    ipmctl = IpmctlReader([device])
    rapl = RaplReader(env, [device])
    wear = WearTracker([device])
    techs = [tech]  # the technology each burst is recorded under
    restore = []  # undo per technology change: an age_device exit or a swap back
    counters, per_dimm = AccessCounters(), AccessCounters()
    ipmctl_base, rapl_base = per_dimm.snapshot(), counters.snapshot()

    def retech(new):
        device.technology = new
        for dimm in device.dimms:
            dimm.technology = new

    for op in operations:
        kind = op[0]
        if kind in ("record", "fresh"):
            profile = AccessProfile(*(PROFILES[op[1]] if kind == "record" else op[1]))
            delta, share = reference_record(techs[-1], dimms, profile)
            device.record(profile)
            counters.add(delta)
            per_dimm.add(share)
        elif kind == "age":
            context = age_device(device, op[1])
            context.__enter__()
            restore.append(lambda context=context: context.__exit__(None, None, None))
            techs.append(device.technology)
        elif kind == "swap":
            previous = device.technology
            retech(COARSE_DRAM if previous.access_granularity != 512 else DDR4_DRAM)
            restore.append(lambda previous=previous: retech(previous))
            techs.append(device.technology)
        elif kind == "unage" and restore:
            restore.pop()()
            techs.pop()
        elif kind == "cap":
            device.set_bandwidth_cap(op[1])
        elif kind == "device":
            assert device.counters == counters
        elif kind == "dimm" and op[1] < dimms:
            assert device.dimms[op[1]].counters == per_dimm
        elif kind == "ipmctl":
            expected = per_dimm.delta(ipmctl_base)
            for perf in ipmctl.read():
                assert (
                    perf.media_reads, perf.media_writes, perf.bytes_read, perf.bytes_written
                ) == (
                    expected.media_reads,
                    expected.media_writes,
                    expected.bytes_read,
                    expected.bytes_written,
                )
            ipmctl.reset()
            ipmctl_base = per_dimm.snapshot()
        elif kind == "rapl":
            (report,) = rapl.read()
            _, read, write = DimmEnergyModel(device.technology).energy(
                counters.delta(rapl_base), 0.0, dimm_count=dimms
            )
            assert (report.read_joules, report.write_joules) == (read, write)
            rapl.reset()
            rapl_base = counters.snapshot()
        elif kind == "wear":
            assert [r.media_writes for r in wear.records(1.0)] == [per_dimm.media_writes] * dimms
            assert wear.total_media_writes() == dimms * per_dimm.media_writes
    while restore:
        restore.pop()()
    assert device.technology is tech
    assert device.counters == counters
    assert all(dimm.counters == per_dimm for dimm in device.dimms)
