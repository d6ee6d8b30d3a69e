"""The per-job ``device.*`` fold: one series per label set, repeats add.

Each resolved job adds its per-DIMM media counters to the service
registry under labels (tier, socket, workload, client, device).  Jobs
that differ in exactly one of them must land in their own series.
"""

import asyncio
from types import SimpleNamespace

from repro import api
from repro.obs import parse_prometheus
from repro.options import RunOptions
from repro.service import ExperimentService
from repro.telemetry.ipmctl import DimmPerformance

DIMMS = ("dimm0", "dimm1")
COUNTERS = {
    "device.media_reads": "media_reads",
    "device.media_writes": "media_writes",
    "device.bytes_read": "bytes_read",
    "device.bytes_written": "bytes_written",
}


def dimm_counts(config, dimm_id):
    """Distinct, config-dependent counts per DIMM and counter."""
    base = 1000 * config.tier + 100 * config.cpu_socket + len(config.workload)
    offset = 10 * DIMMS.index(dimm_id)
    return DimmPerformance(
        dimm_id=dimm_id,
        media_reads=base + offset + 1,
        media_writes=base + offset + 2,
        bytes_read=base + offset + 3,
        bytes_written=base + offset + 4,
    )


def stub_execute(config, trace_root, obs_dir, dataset_root):
    telemetry = SimpleNamespace(
        dimm_performance=[dimm_counts(config, d) for d in DIMMS]
    )
    return SimpleNamespace(execution_time=1.0, telemetry=telemetry), "executed"


BASE = api.config("sort", size="tiny", tier=1, cpu_socket=0)
#: The base job, then one job per label that differs only in that label
#: (the device label differs within every job); the base repeats.
PLAN = [
    ("alice", BASE),
    ("alice", BASE.with_options(tier=2)),
    ("alice", BASE.with_options(cpu_socket=1)),
    ("alice", BASE.with_options(workload="repartition")),
    ("bob", BASE),
    ("alice", BASE),
]


def labels_of(client, config, dimm_id):
    return {
        "tier": config.tier,
        "socket": config.cpu_socket,
        "workload": config.workload,
        "client": client,
        "device": dimm_id,
    }


def test_each_label_set_gets_its_own_series_and_repeats_add():
    async def go():
        service = ExperimentService(
            RunOptions(reuse_traces=False), heartbeat=0, execute=stub_execute
        )
        async with service:
            for client, config in PLAN:
                await service.run(config, client=client)
        return service

    service = asyncio.run(go())
    registry = service.metrics

    expected: dict[tuple, int] = {}
    for client, config in PLAN:
        for dimm_id in DIMMS:
            ident = tuple(labels_of(client, config, dimm_id).items())
            expected[ident] = expected.get(ident, 0) + 1
    assert len(expected) == 10  # 5 distinct jobs x 2 DIMMs

    for ident, repeats in expected.items():
        labels = dict(ident)
        perf = dimm_counts(
            BASE.with_options(
                tier=labels["tier"],
                cpu_socket=labels["socket"],
                workload=labels["workload"],
            ),
            labels["device"],
        )
        for name, field in COUNTERS.items():
            assert registry.counter(name, labels=labels) == (
                repeats * getattr(perf, field)
            ), (name, labels)

    for name in COUNTERS:
        series = [key for key in registry.counters if key.startswith(name + "{")]
        assert len(series) == len(expected), name

    scraped = parse_prometheus(service.render_prometheus())
    reads = [key for key in scraped if key[0] == "repro_device_media_reads_total"]
    assert len(reads) == len(expected)
