"""Which runs fill datagen's memo: direct runs memoize the datasets they
prepare in the process memo, trace captures only in a transient one.
Every later point of a captured class replays without a dataset, and a
direct run that needs one again reads the artifact the capture wrote;
a serial campaign's captures that share a dataset share one transient
memo until the last of them."""

from __future__ import annotations

import itertools
import threading

import pytest

from repro import api
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.faults import FaultConfig
from repro.options import RunOptions
from repro.trace import capture_experiment
from repro.workloads import WORKLOAD_NAMES, datacache, datagen


@pytest.fixture(autouse=True)
def _empty_memo():
    """Each test starts and ends with no memoized dataset, no active
    artifact cache and zeroed counters."""
    previous = datacache.active()
    datacache.deactivate()
    datagen.clear_cache()
    datacache.reset_stats()
    yield
    datacache.configure(None if previous is None else previous.root)
    datagen.clear_cache()
    datacache.reset_stats()


def test_a_cold_campaign_memoizes_nothing(tmp_path):
    """The tiny Fig. 2 grid with fresh directories captures each class
    once and replays the rest: the memo stays empty and serves nothing.
    A later direct run of a captured class reads the artifact the
    capture wrote and equals the point's replayed result."""
    grid = [
        ExperimentConfig(workload=workload, size="tiny", tier=tier)
        for workload, tier in itertools.product(WORKLOAD_NAMES, range(4))
    ]
    report = api.campaign(grid, options=RunOptions(cache_dir=tmp_path))
    report.raise_on_failure()
    statuses = [point.status for point in report.points]
    assert statuses.count("captured") == len(WORKLOAD_NAMES)
    assert statuses.count("replayed") == len(grid) - len(WORKLOAD_NAMES)
    assert datagen._CACHE == {}
    assert datacache.stats()["memo_hits"] == 0

    datacache.configure(tmp_path / "datasets")
    replayed = {p.config.workload: p for p in report.points if p.status == "replayed"}
    for point in (replayed["sort"], replayed["pagerank"]):
        datacache.reset_stats()
        assert result_to_dict(run_experiment(point.config)) == result_to_dict(point.result)
        assert (datacache.stats()["hits"], datacache.stats()["misses"]) == (1, 0)


def test_direct_runs_keep_their_memo_hits():
    """The tiny fault-injected grid (tiers 0 and 3, never replayable)
    prepares each workload's dataset twice: the second is a memo hit."""
    grid = [
        ExperimentConfig(
            workload=workload,
            size="tiny",
            tier=tier,
            faults=FaultConfig(
                seed=seed, task_crash_prob=0.05, straggler_prob=0.10, max_task_crashes=3
            ),
            speculation=True,
        )
        for seed, (workload, tier) in enumerate(
            itertools.product(WORKLOAD_NAMES, (0, 3))
        )
    ]
    report = api.campaign(grid, options=RunOptions())
    report.raise_on_failure()
    assert {point.status for point in report.points} == {"executed"}
    assert datacache.stats()["memo_hits"] == len(WORKLOAD_NAMES)


def test_a_capture_is_served_by_what_a_direct_run_memoized(tmp_path):
    """An entry memoized before a capture serves the capture and is
    still there afterwards; the capture reads no artifact."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    run_experiment(config)
    memo = dict(datagen._CACHE)
    assert len(memo) == 1
    datacache.configure(tmp_path)
    datacache.reset_stats()
    result, trace = capture_experiment(config.with_options(tier=1))
    assert trace is not None
    assert datagen._CACHE == memo
    stats = datacache.stats()
    assert (stats["memo_hits"], stats["hits"], stats["misses"]) == (1, 0, 0)
    expected = run_experiment(config.with_options(tier=1))
    assert result_to_dict(result) == result_to_dict(expected)


def test_captures_that_share_a_dataset_share_one_memo():
    """Each executor × cores cell is its own behaviour class on its
    workload's one dataset: a serial campaign generates each dataset
    once, serves every other capture of it from a transient memo, reads
    no artifact and leaves the process memo empty."""
    # No 4-executor cell: pagerank's replays of those diverge from their
    # capture's evaluation order and run direct.
    cells = [(1, 40), (2, 20), (8, 5), (8, 40)]
    grid = [
        ExperimentConfig(
            workload=workload, size="tiny", tier=tier,
            num_executors=executors, executor_cores=cores,
        )
        for tier, (executors, cores), workload in itertools.product(
            (2, 0), cells, ("sort", "pagerank")
        )
    ]
    report = api.campaign(grid, options=RunOptions())
    report.raise_on_failure()
    statuses = [point.status for point in report.points]
    assert statuses == ["captured"] * 8 + ["replayed"] * 8
    stats = datacache.stats()
    assert (stats["misses"], stats["hits"], stats["memo_hits"]) == (2, 0, 6)
    assert datagen._CACHE == {}
    for point in report.points[:: len(cells) + 1]:
        assert result_to_dict(run_experiment(point.config)) == result_to_dict(point.result)


def test_a_transient_block_keeps_misses_in_its_memo():
    """A block's miss lands in the memo it was given, a nested block
    without one uses the enclosing block's, and the process memo is hit
    first and left untouched."""
    held: dict = {}
    with datagen.transient_memo(held):
        with datagen.transient_memo():
            first = datagen.random_text_records(4, record_len=3, seed=1)
        assert datagen.random_text_records(4, record_len=3, seed=1) == first
    assert [key[0] for key in held] == ["random_text_records"]
    assert datagen._CACHE == {}
    assert datacache.stats()["memo_hits"] == 1

    datagen.zipf_words(5, seed=2)
    with datagen.transient_memo(held):
        datagen.zipf_words(5, seed=2)
    assert len(held) == 1 and len(datagen._CACHE) == 1
    assert datacache.stats()["memo_hits"] == 2


def test_the_transient_scope_is_per_thread(monkeypatch):
    """A direct run on another thread while a capture prepares its
    dataset still memoizes; the capture's own dataset is not kept."""
    capture = ExperimentConfig(workload="sort", size="tiny", tier=0)
    direct = ExperimentConfig(workload="wordcount", size="tiny", tier=0)
    capturing = threading.current_thread()
    fetch = datacache.fetch
    ran: list[bool] = []

    def fetch_beside_a_direct_run(name, params, generate):
        if threading.current_thread() is capturing and not ran:
            ran.append(True)
            other = threading.Thread(target=run_experiment, args=(direct,))
            other.start()
            other.join(timeout=60)
            assert not other.is_alive()
        return fetch(name, params, generate)

    monkeypatch.setattr(datacache, "fetch", fetch_beside_a_direct_run)
    _, trace = capture_experiment(capture)
    assert ran and trace is not None
    assert [key[0] for key in datagen._CACHE] == ["zipf_words"]
    with datagen.transient_memo():
        datagen.random_text_records(4, record_len=3, seed=1)
    assert [key[0] for key in datagen._CACHE] == ["zipf_words"]
