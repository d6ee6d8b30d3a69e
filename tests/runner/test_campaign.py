"""CampaignRunner: parallelism, caching/resume, ordering, isolation."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.resultstore import ResultStore
from repro.core.experiment import ExperimentConfig
from repro.runner import (
    CampaignError,
    CampaignRunner,
    run_campaign,
)
from repro.runner import campaign as campaign_module
from repro.runner.campaign import (
    LIVE_STATUSES,
    STATUS_CACHED,
    STATUS_DEDUPED,
    STATUS_FAILED,
)

#: The Fig. 4 axes, shrunk to the tiny size for test speed.
FIG4_GRID = [
    ExperimentConfig(
        workload="repartition", size="tiny", tier=tier,
        num_executors=executors, executor_cores=cores,
    )
    for tier in (0, 2)
    for executors in (1, 4)
    for cores in (10, 40)
]


def store_rows(results, path):
    """Serialize results through a ResultStore and read the rows back."""
    store = ResultStore(path)
    for result in results:
        store.append(result)
    return store.load()


# ------------------------------------------------------------------ identity
def test_parallel_campaign_value_identical_to_serial(tmp_path):
    """Acceptance: a 4-worker Fig. 4 campaign == the serial loop."""
    serial = run_campaign(FIG4_GRID)
    parallel = run_campaign(FIG4_GRID, workers=4)
    assert len(serial.results) == len(parallel.results) == len(FIG4_GRID)
    assert store_rows(serial.results, tmp_path / "serial.jsonl") == store_rows(
        parallel.results, tmp_path / "parallel.jsonl"
    )


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    points=st.lists(
        st.tuples(
            st.sampled_from([0, 1, 2, 3]),
            st.sampled_from([50, 100]),
            st.sampled_from([1, 4]),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_worker_count_never_changes_values(tmp_path_factory, points):
    """Property: results are a pure function of the config list, not of
    the pool width."""
    configs = [
        ExperimentConfig(
            workload="repartition", size="tiny", tier=tier,
            mba_percent=mba, num_executors=executors,
        )
        for tier, mba, executors in points
    ]
    tmp_path = tmp_path_factory.mktemp("prop")
    serial = run_campaign(configs)
    parallel = run_campaign(configs, workers=4)
    assert store_rows(serial.results, tmp_path / "s.jsonl") == store_rows(
        parallel.results, tmp_path / "p.jsonl"
    )


def test_pooled_campaign_runs_inside_a_running_event_loop():
    """A caller that already runs an event loop in its thread (a
    notebook, an async application) can run a pooled campaign."""
    import asyncio

    async def go():
        return run_campaign(FIG4_GRID[:2], workers=2)

    report = asyncio.run(go())
    assert not report.failures
    assert [r.config for r in report.results] == FIG4_GRID[:2]


def test_results_come_back_in_submission_order():
    configs = [
        ExperimentConfig(workload="repartition", size="tiny", tier=tier)
        for tier in (3, 0, 2, 1)
    ]
    report = run_campaign(configs, workers=4)
    assert [p.config.tier for p in report.points] == [3, 0, 2, 1]
    assert [r.config.tier for r in report.results] == [3, 0, 2, 1]
    assert [p.index for p in report.points] == [0, 1, 2, 3]


# ------------------------------------------------------------- cache / resume
def test_rerun_is_all_cache_hits(tmp_path):
    """Acceptance: an immediate re-run executes 0 experiments."""
    cache_dir = tmp_path / "cache"
    first = run_campaign(FIG4_GRID, workers=2, cache_dir=cache_dir)
    assert first.executed == len(FIG4_GRID) and first.cache_hits == 0

    rerun = run_campaign(FIG4_GRID, workers=2, cache_dir=cache_dir)
    assert rerun.executed == 0
    assert rerun.cache_hits == len(FIG4_GRID)
    assert store_rows(first.results, tmp_path / "a.jsonl") == store_rows(
        rerun.results, tmp_path / "b.jsonl"
    )


def test_partial_cache_resumes_the_remainder(tmp_path):
    """Interrupted-campaign semantics: finished points replay from the
    cache, only the rest execute."""
    cache_dir = tmp_path / "cache"
    half = FIG4_GRID[: len(FIG4_GRID) // 2]
    run_campaign(half, cache_dir=cache_dir)

    full = run_campaign(FIG4_GRID, cache_dir=cache_dir)
    assert full.cache_hits == len(half)
    assert full.executed == len(FIG4_GRID) - len(half)
    assert len(full.results) == len(FIG4_GRID)


def test_resume_false_clears_the_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    run_campaign(FIG4_GRID[:2], cache_dir=cache_dir)
    fresh = run_campaign(FIG4_GRID[:2], cache_dir=cache_dir, resume=False)
    assert fresh.executed == 2 and fresh.cache_hits == 0
    # ... but the fresh run re-populated it for the next resume.
    again = run_campaign(FIG4_GRID[:2], cache_dir=cache_dir)
    assert again.executed == 0 and again.cache_hits == 2


def test_duplicate_points_execute_once():
    config = ExperimentConfig(workload="repartition", size="tiny")
    report = run_campaign([config, config, config])
    assert report.executed == 1
    assert report.deduplicated == 2
    assert len(report.results) == 3
    times = {r.execution_time for r in report.results}
    assert len(times) == 1


# --------------------------------------------------------- failure isolation
def test_one_crashed_point_does_not_kill_the_campaign():
    bad = ExperimentConfig(workload="repartition", size="no-such-size")
    configs = [FIG4_GRID[0], bad, FIG4_GRID[1]]
    for workers in (None, 2):
        report = run_campaign(configs, workers=workers)
        assert len(report.results) == 2
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert failed.index == 1
        assert failed.error is not None and "no-such-size" in failed.error
        assert report.points[0].ok and report.points[2].ok
        with pytest.raises(CampaignError, match="no-such-size"):
            report.raise_on_failure()


def test_failed_points_are_not_cached(tmp_path):
    cache_dir = tmp_path / "cache"
    bad = ExperimentConfig(workload="repartition", size="no-such-size")
    run_campaign([bad], cache_dir=cache_dir)
    rerun = run_campaign([bad], cache_dir=cache_dir)
    assert rerun.cache_hits == 0
    assert len(rerun.failures) == 1


def test_result_for_lookup():
    report = run_campaign(FIG4_GRID[:3])
    target = FIG4_GRID[1]
    assert report.result_for(target).config == target
    with pytest.raises(KeyError):
        report.result_for(ExperimentConfig(workload="sort", size="large"))


# ----------------------------------------------------------------- progress
def test_progress_reports_counts_and_eta():
    snapshots = []
    runner = CampaignRunner(workers=0, progress=snapshots.append)
    runner.run(FIG4_GRID[:3])
    assert snapshots  # emitted at least once per resolved point
    final = snapshots[-1]
    assert final.completed == final.total == 3
    assert final.executed == 3 and final.failed == 0
    assert final.percent == pytest.approx(100.0)
    assert final.eta_seconds == pytest.approx(0.0)
    assert "3/3" in final.describe()
    # completed counts never decrease
    assert all(
        a.completed <= b.completed for a, b in zip(snapshots, snapshots[1:])
    )


def rescan_progress(report):
    """Progress counts as a full rescan of the report computes them."""
    resolved = [
        p for p in report.points if p.result is not None or p.error is not None
    ]
    return (
        len(resolved),
        len(report.points),
        sum(p.status in LIVE_STATUSES for p in resolved),
        sum(p.status in (STATUS_CACHED, STATUS_DEDUPED) for p in resolved),
        sum(p.status == STATUS_FAILED for p in resolved),
    )


@pytest.mark.parametrize("workers", [None, 2])
def test_running_progress_counts_equal_a_rescan(tmp_path, monkeypatch, workers):
    """Each snapshot's counts, kept as points resolve, equal a rescan of
    the report at that moment, over cached, deduped, failed (primary
    and alias) and live points."""
    reports = []

    class RecordedReport(campaign_module.CampaignReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            reports.append(self)

    monkeypatch.setattr(campaign_module, "CampaignReport", RecordedReport)
    cache_dir = tmp_path / "cache"
    run_campaign(FIG4_GRID[:2], cache_dir=cache_dir)
    bad = ExperimentConfig(workload="repartition", size="no-such-size")
    configs = FIG4_GRID[:4] + [bad, FIG4_GRID[3], bad, FIG4_GRID[0]]
    seen = []

    def check(progress):
        counts = (
            progress.completed, progress.total, progress.executed,
            progress.cached, progress.failed,
        )
        assert counts == rescan_progress(reports[-1])
        seen.append(counts)

    runner = CampaignRunner(workers=workers, cache_dir=cache_dir, progress=check)
    with runner:
        report = runner.run(configs)
    # Three cache hits (FIG4_GRID[0] twice), two live points, one bad
    # primary, and two aliases: a live one and a failed one.
    assert seen[0] == (3, 8, 0, 3, 0)
    assert seen[-1] == (8, 8, 2, 4, 2)
    assert len(seen) == 1 + 3 + 2  # initial, 3 primaries, 2 aliases
    assert report.cache_hits == 3 and report.deduplicated == 1


def test_invalid_worker_count_rejected():
    with pytest.raises(ValueError):
        CampaignRunner(workers=-1)


# ---------------------------------------------------------------- lifecycle
def assert_no_service_jobs(runner):
    """A kept pooled runner's service holds no job once ``run()`` has
    returned (``ExperimentService.jobs`` holds live jobs only)."""
    held = runner._resources.get("service")
    assert runner.workers <= 1 or held is not None
    if held is not None:
        assert held[0].jobs == {}


@pytest.mark.parametrize("workers", [0, 2])
def test_close_removes_the_runners_temporary_directories(workers):
    """A runner given no directories makes temporary ones; ``close()``
    removes them (not the collector, with a ``ResourceWarning``), and a
    closed runner runs again in fresh ones."""
    import gc
    import warnings

    points = FIG4_GRID[:2] + FIG4_GRID[:1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runner = CampaignRunner(workers=workers, observe=True)
        roots = [runner.trace_root, runner.dataset_root, runner.obs_dir]
        assert all(root.is_dir() for root in roots)
        first = runner.run(points)
        assert_no_service_jobs(runner)
        again = runner.run(points)
        assert_no_service_jobs(runner)
        runner.close()
        assert not any(root.exists() for root in roots)
        second = runner.run(points)
        assert_no_service_jobs(runner)
        fresh = [runner.trace_root, runner.dataset_root, runner.obs_dir]
        assert all(root.is_dir() for root in fresh)
        assert set(fresh).isdisjoint(roots)
        runner.close()
        assert not any(root.exists() for root in fresh)
        del runner
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not first.failures and not second.failures
    assert [r.execution_time for r in second.results] == [
        r.execution_time for r in first.results
    ] == [r.execution_time for r in again.results]


# ------------------------------------------------------------ observability
@pytest.mark.parametrize("workers", [0, 2])
def test_campaign_writes_per_point_and_merged_artifacts(tmp_path, workers):
    import json

    from repro.obs import ObsConfig
    from repro.runner.hashing import config_hash

    configs = FIG4_GRID[:2]
    obs = ObsConfig(
        trace_path=str(tmp_path / "merged.trace.json"),
        metrics_path=str(tmp_path / "merged.metrics.json"),
        artifact_dir=str(tmp_path / "obs"),
    )
    report = run_campaign(configs, observe=obs, workers=workers)

    # One artifact pair per point, keyed by the point's config hash.
    for config in configs:
        key = config_hash(config)
        point_trace = tmp_path / "obs" / f"{key}.trace.json"
        point_metrics = tmp_path / "obs" / f"{key}.metrics.json"
        assert point_trace.exists() and point_metrics.exists()
        payload = json.loads(point_metrics.read_text())
        assert payload["run"]["config_hash"] == key
        assert payload["run"]["label"] == config.describe()

    assert report.artifacts == {
        "trace": obs.trace_path,
        "metrics": obs.metrics_path,
    }
    merged_trace = json.loads((tmp_path / "merged.trace.json").read_text())
    assert merged_trace["otherData"]["points"] == 2
    merged_metrics = json.loads((tmp_path / "merged.metrics.json").read_text())
    assert merged_metrics["counters"]["campaign.points_merged"] == 2.0
    assert merged_metrics["counters"]["campaign.executed"] == 2.0
    # The campaign's merge, not a service's own export at shutdown.
    assert merged_metrics["run"] == {"label": "campaign"}
    assert all(
        event.get("cat") != "service.job" for event in merged_trace["traceEvents"]
    )


def test_campaign_observability_does_not_change_results(tmp_path):
    from repro.obs import ObsConfig

    configs = FIG4_GRID[:3]
    plain = run_campaign(configs)
    observed = run_campaign(
        configs,
        observe=ObsConfig(artifact_dir=str(tmp_path / "obs")),
        workers=2,
    )
    assert store_rows(plain.results, tmp_path / "plain.jsonl") == store_rows(
        observed.results, tmp_path / "observed.jsonl"
    )


def test_resumed_campaign_does_not_reemit_artifacts(tmp_path):
    """Cache hits never re-execute, so their per-point artifacts must
    survive untouched — while still joining the merged campaign trace."""
    import json

    from repro.obs import ObsConfig
    from repro.runner.hashing import config_hash

    configs = FIG4_GRID[:2]
    cache_dir = tmp_path / "cache"
    obs = ObsConfig(trace_path=str(tmp_path / "merged.trace.json"))
    first = run_campaign(configs, cache_dir=cache_dir, observe=obs)
    assert first.executed == 2

    obs_dir = cache_dir / "obs"
    point_files = sorted(obs_dir.glob("*.trace.json"))
    assert len(point_files) == len(configs)
    before = {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in point_files}

    resumed = run_campaign(configs, cache_dir=cache_dir, observe=obs)
    assert resumed.cache_hits == 2 and resumed.executed == 0
    after = {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in point_files}
    assert after == before  # not rewritten, not even touched

    # The merged trace still covers both (cached) points ...
    merged = json.loads((tmp_path / "merged.trace.json").read_text())
    assert merged["otherData"]["points"] == 2
    # ... and the merged metrics count them as cache hits.
    assert resumed.artifacts["trace"] == obs.trace_path
    for config in configs:
        assert (obs_dir / f"{config_hash(config)}.trace.json").exists()
