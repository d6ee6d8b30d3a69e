"""Campaign integration: trace reuse across grid points and campaigns."""

from __future__ import annotations

import pytest

from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig
from repro.faults import FaultConfig
from repro.runner.campaign import (
    STATUS_CAPTURED,
    STATUS_EXECUTED,
    STATUS_REPLAYED,
    run_campaign,
)

GRID = [
    ExperimentConfig(workload=workload, size="tiny", tier=tier)
    for workload in ("sort", "repartition")
    for tier in (0, 2)
]


def test_campaign_captures_once_per_behaviour_then_replays(tmp_path):
    report = run_campaign(GRID, trace_dir=tmp_path)
    report.raise_on_failure()
    assert report.captured == 2  # one per workload (behaviour class)
    assert report.replayed == 2  # the other tier of each
    assert report.executed == len(GRID)  # live = direct + captured + replayed
    summary = report.summary()
    assert summary["captured"] == 2 and summary["replayed"] == 2

    # Statuses line up with the two-wave plan: first point of each
    # behaviour class captured, the rest replayed.
    by_status = sorted(p.status for p in report.points)
    assert by_status == [STATUS_CAPTURED] * 2 + [STATUS_REPLAYED] * 2


def test_traced_campaign_is_value_identical_to_direct(tmp_path):
    direct = run_campaign(GRID, reuse_traces=False)
    direct.raise_on_failure()
    assert direct.captured == 0 and direct.replayed == 0
    traced = run_campaign(GRID, trace_dir=tmp_path)
    traced.raise_on_failure()
    assert [result_to_dict(r) for r in traced.results] == [
        result_to_dict(r) for r in direct.results
    ]


def test_traces_persist_across_campaigns(tmp_path):
    first = run_campaign(GRID, trace_dir=tmp_path)
    first.raise_on_failure()
    second = run_campaign(GRID, trace_dir=tmp_path)
    second.raise_on_failure()
    assert second.captured == 0
    assert second.replayed == len(GRID)  # every point served from artifacts
    assert [result_to_dict(r) for r in second.results] == [
        result_to_dict(r) for r in first.results
    ]


def test_traces_live_beside_the_result_cache(tmp_path):
    first = run_campaign(GRID, cache_dir=tmp_path)
    first.raise_on_failure()
    assert (tmp_path / "traces").is_dir()
    assert len(list((tmp_path / "traces").glob("*.trace.bin"))) == 2

    # Same cache dir, resume: everything is a cache hit, traces unused.
    resumed = run_campaign(GRID, cache_dir=tmp_path)
    assert resumed.cache_hits == len(GRID)
    assert resumed.captured == 0 and resumed.replayed == 0

    # resume=False clears cached *results* but keeps traces: the rerun
    # replays every point instead of recomputing workloads.
    rerun = run_campaign(GRID, cache_dir=tmp_path, resume=False)
    rerun.raise_on_failure()
    assert rerun.cache_hits == 0
    assert rerun.replayed == len(GRID)
    assert [result_to_dict(r) for r in rerun.results] == [
        result_to_dict(r) for r in first.results
    ]


def test_unreplayable_points_simulate_in_full(tmp_path):
    grid = GRID + [
        ExperimentConfig(
            workload="sort",
            size="tiny",
            tier=1,
            faults=FaultConfig(seed=5, task_crash_prob=0.0),
        )
    ]
    report = run_campaign(grid, trace_dir=tmp_path)
    report.raise_on_failure()
    faulty = report.points[-1]
    assert faulty.status == STATUS_EXECUTED
    assert report.captured == 2 and report.replayed == 2
    assert report.executed == len(grid)


@pytest.mark.parametrize("workers", [2])
def test_pool_campaign_matches_serial(tmp_path, workers):
    # Interleaved behaviour classes with unreplayable (faulted) points
    # at both ends: every point gets the same status either way.
    faulted = ExperimentConfig(
        workload="sort", size="tiny", tier=3,
        faults=FaultConfig(seed=5, task_crash_prob=0.0),
    )
    grid = [faulted, GRID[0], GRID[2], GRID[1], GRID[3],
            faulted.with_options(tier=1)]
    serial = run_campaign(grid, trace_dir=tmp_path / "serial")
    pooled = run_campaign(grid, workers=workers, trace_dir=tmp_path / "pool")
    serial.raise_on_failure()
    pooled.raise_on_failure()
    assert [result_to_dict(r) for r in pooled.results] == [
        result_to_dict(r) for r in serial.results
    ]
    assert [p.status for p in pooled.points] == [
        p.status for p in serial.points
    ] == [
        STATUS_EXECUTED,
        STATUS_CAPTURED, STATUS_CAPTURED, STATUS_REPLAYED, STATUS_REPLAYED,
        STATUS_EXECUTED,
    ]
    assert pooled.captured == 2 and pooled.replayed == 2


def test_pooled_cold_then_warm_campaign_equals_serial(tmp_path):
    """A pooled campaign that captures (cold) and one that replays every
    point from the artifacts it left (warm) both equal a serial direct
    campaign: pool workers read traces only through their own store."""
    grid = [
        ExperimentConfig(workload="repartition", size="tiny", tier=tier)
        for tier in range(4)
    ]
    serial = run_campaign(grid, reuse_traces=False)
    cold = run_campaign(grid, workers=2, trace_dir=tmp_path)
    warm = run_campaign(grid, workers=2, trace_dir=tmp_path)
    reference = [result_to_dict(r) for r in serial.results]
    assert [result_to_dict(r) for r in cold.results] == reference
    assert [result_to_dict(r) for r in warm.results] == reference
    assert cold.captured == 1 and cold.replayed == len(grid) - 1
    assert warm.replayed == len(grid)


def test_reuse_traces_off_never_touches_traces(tmp_path):
    report = run_campaign(GRID, cache_dir=tmp_path, reuse_traces=False)
    report.raise_on_failure()
    assert report.captured == 0 and report.replayed == 0
    assert not (tmp_path / "traces").exists()


def test_a_pooled_campaign_recaptures_a_corrupt_artifact_once(tmp_path):
    """The pooled scheduler plans a replay only on an artifact whose seal
    verifies: after a payload byte flips, one point captures the class
    again and the others replay the rewritten artifact, instead of every
    point missing and capturing."""
    grid = [
        ExperimentConfig(workload="repartition", size="tiny", tier=tier)
        for tier in range(4)
    ]
    run_campaign(grid, workers=2, trace_dir=tmp_path).raise_on_failure()
    (path,) = tmp_path.glob("*.trace.bin")
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    healed = run_campaign(grid, workers=2, trace_dir=tmp_path)
    healed.raise_on_failure()
    assert healed.captured == 1 and healed.replayed == len(grid) - 1
