"""Content-addressed trace artifacts: keys, round trips, miss semantics."""

from __future__ import annotations

import builtins
import os
from collections import OrderedDict

import pytest

from repro import artifacts
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.runner.campaign import run_campaign
from repro.trace import (
    ReplayDivergence,
    TraceStore,
    capture_experiment,
    fast_replay_experiment,
    trace_key,
)
from repro.trace.fastreplay import plan_bytes
from repro.trace.records import footprint
import repro.trace.store as store_module


def make_trace(config):
    _, trace = capture_experiment(config)
    assert trace is not None
    return trace


# ------------------------------------------------------------------- keying

def test_key_is_tier_insensitive_and_behaviour_sensitive():
    base = ExperimentConfig(workload="sort", size="tiny", tier=0)
    assert trace_key(base) == trace_key(
        base.with_options(tier=3, mba_percent=40, cpu_socket=0, label="probe")
    )
    assert trace_key(base) != trace_key(base.with_options(workload="repartition"))
    assert trace_key(base) != trace_key(base.with_options(num_executors=2))
    assert len(trace_key(base)) == 64  # sha256 hex


def test_key_folds_engine_version(monkeypatch):
    base = ExperimentConfig(workload="sort", size="tiny", tier=0)
    before = trace_key(base)
    monkeypatch.setattr(store_module, "ENGINE_VERSION", "999-future")
    assert trace_key(base) != before


# --------------------------------------------------------------- round trip

def test_save_load_round_trip_supports_replay(tmp_path):
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    trace = make_trace(config)
    store = TraceStore(tmp_path)
    path = store.save(config, trace)
    assert path == store.path_for(config) == tmp_path / f"{trace_key(config)}.trace.bin"
    assert store.exists(config)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

    loaded = store.load(config.with_options(tier=3))  # timing twin hits
    assert loaded is not None
    assert loaded.checksum == trace.checksum and loaded.intact
    assert (loaded.verified, loaded.records_processed) == (
        trace.verified, trace.records_processed
    )
    columns = [
        column
        for job in loaded.jobs
        for task_set in job.task_sets
        for column in (
            *task_set.floats.values(),
            *task_set.ints.values(),
            *(array for pair in task_set.io.values() for array in pair),
        )
    ]
    assert all(column.flags.owndata for column in columns)  # no views of the file
    target = config.with_options(tier=3)
    assert result_to_dict(fast_replay_experiment(target, loaded)) == result_to_dict(
        run_experiment(target)
    )


def test_save_leaves_no_temp_files(tmp_path):
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    store.save(config, make_trace(config))
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


# ------------------------------------------------------------ miss semantics

def test_missing_and_corrupt_artifacts_miss(tmp_path):
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    assert store.load(config) is None  # missing

    store.save(config, make_trace(config))
    path = store.path_for(config)
    path.write_bytes(b"not a sealed artifact")
    assert store.load(config) is None  # unreadable

    artifacts.write(path, {"not": "a trace"}, {})
    assert store.load(config) is None  # sealed, but not a trace


def test_tampered_residues_fail_the_checksum_on_load(tmp_path):
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    trace = make_trace(config)
    trace.jobs[-1].task_sets[0].floats["compute_ops"][0] += 1.0  # post-seal
    store.save(config, trace)
    assert store.load(config) is None


def test_the_outcome_a_replay_reports_is_sealed(tmp_path, monkeypatch):
    """``verified`` and ``records_processed``, which the trace checksum
    does not cover, are stored in the sealed payload: a flipped byte in
    their column is a checksum miss, never a replay reporting it."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    trace = make_trace(config)
    path = store.save(config, trace)
    sealed = artifacts.read(path)
    (entry,) = [e for e in sealed.header["columns"] if e["name"] == "outcome"]
    assert sealed.columns["outcome"].tolist() == [1, trace.records_processed]
    del sealed
    raw = bytearray(path.read_bytes())
    # The payload starts at the first 64-byte boundary after the header,
    # which follows the magic, the seal and the header length (44 bytes).
    payload_start = (44 + int.from_bytes(raw[36:44], "little") + 63) & ~63
    raw[payload_start + entry["offset"]] ^= 0x01  # verified 1 -> 0
    path.write_bytes(bytes(raw))
    assert artifacts.read(path) == artifacts.Miss("checksum")
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    store_module.reset_stats()
    assert store.load(config) is None
    assert store_module.stats()["checksum"] == 1


def test_version_skewed_artifact_misses_via_its_key(tmp_path, monkeypatch):
    """A new engine version changes every key, so old artifacts simply
    stop resolving — no artifact parsing or deletion involved."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    store.save(config, make_trace(config))
    assert store.load(config) is not None
    monkeypatch.setattr(store_module, "ENGINE_VERSION", "999-future")
    assert store.load(config) is None


# ---------------------------------------------------------------- load cache

def test_load_cache_is_bounded_by_decoded_bytes(tmp_path, monkeypatch):
    """Loading past the byte budget evicts the least recently used trace
    and keeps the newest, even when the newest alone exceeds it.  Each
    entry is charged what its decoded trace holds, not its artifact's
    size."""
    store = TraceStore(tmp_path)
    base = ExperimentConfig(workload="sort", size="tiny", tier=0)
    trace = make_trace(base)
    # Three behaviour keys holding the same trace.
    configs = [base.with_options(num_executors=n) for n in (1, 2, 3)]
    for config in configs:
        store.save(config, trace)
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    nbytes = footprint(store.load(configs[0]))
    assert [e.nbytes for e in store_module._LOAD_CACHE.values()] == [nbytes]
    assert nbytes > 2 * store.path_for(configs[0]).stat().st_size
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    monkeypatch.setattr(store_module, "_LOAD_CACHE_BYTES", 2 * nbytes)

    def held():
        return [id(entry.trace) for entry in store_module._LOAD_CACHE.values()]

    a, b = store.load(configs[0]), store.load(configs[1])
    assert store.load(configs[0]) is a  # a is now the most recent
    c = store.load(configs[2])  # three artifacts > budget: b goes
    assert held() == [id(a), id(c)]
    assert store.load(configs[0]) is a and store.load(configs[2]) is c
    again = store.load(configs[1])
    assert again is not None and again is not b

    # A budget below one artifact still keeps the newest trace.
    monkeypatch.setattr(store_module, "_LOAD_CACHE_BYTES", nbytes // 2)
    newest = store.load(configs[0])
    assert held() == [id(newest)]
    assert store.load(configs[0]) is newest


def test_replay_plans_and_delta_tables_are_charged_on_every_load(
    tmp_path, monkeypatch
):
    """An entry's charge grows with the plan and delta tables its
    replays compile onto the decoded trace, and every load re-checks the
    budget: two decoded traces fit, but once one has been replayed a
    hit on the other evicts it."""
    store = TraceStore(tmp_path)
    configs = [
        ExperimentConfig(workload=workload, size="tiny", tier=0)
        for workload in ("sort", "repartition")
    ]
    for config in configs:
        store.save(config, make_trace(config))
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    replayed, other = (store.load(config) for config in configs)
    entries = list(store_module._LOAD_CACHE.values())
    decoded = sum(entry.nbytes for entry in entries)
    monkeypatch.setattr(store_module, "_LOAD_CACHE_BYTES", decoded)

    assert plan_bytes(replayed) == 0
    for tier in (1, 2, 3):
        fast_replay_experiment(configs[0].with_options(tier=tier), replayed)
    plan = replayed._replay_plan[1]
    assert plan.deltas.nbytes > 0
    assert plan_bytes(replayed) == footprint(plan.jobs) + plan.deltas.nbytes
    assert store_module._charge(entries[0]) == entries[0].nbytes + plan_bytes(replayed)
    assert list(store_module._LOAD_CACHE) == [str(store.path_for(c)) for c in configs]

    assert store.load(configs[1]) is other  # a hit, and the replayed trace goes
    assert [entry.trace for entry in store_module._LOAD_CACHE.values()] == [other]


def test_a_hit_makes_no_filesystem_call(tmp_path, monkeypatch):
    """A trace this process decoded is served from the load cache with
    no ``stat``, no ``open`` and no :func:`repro.artifacts.read`."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    store.save(config, make_trace(config))
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    decoded = store.load(config)
    assert decoded is not None
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    for module, name in (
        (os, "stat"), (os, "lstat"), (os, "open"), (builtins, "open"), (artifacts, "read")
    ):
        counting(module, name)
    store_module.reset_stats()
    assert store.load(config) is decoded
    assert store.load(config.with_options(tier=3)) is decoded
    assert calls == []
    assert store_module.stats()["hits"] == 2

    store_module._LOAD_CACHE.clear()  # a decode does read the file, once
    assert store.load(config) is not None
    assert calls == ["read", "open"]


def test_a_store_is_just_its_root(tmp_path):
    """Making a store creates nothing: a store over a missing root loads
    as ``missing``, and its first save creates the root."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    root = tmp_path / "not" / "yet"
    store = TraceStore(root)
    assert not (tmp_path / "not").exists()
    store_module.reset_stats()
    assert store.load(config) is None and not store.exists(config)
    assert store_module.stats()["missing"] == 1
    assert not (tmp_path / "not").exists()
    store.save(config, make_trace(config))
    assert store.exists(config)
    assert [p.name for p in root.iterdir()] == [store.path_for(config).name]


# ------------------------------------------------- one class, several traces

#: Fig. 4's 3x8 geometry, where a class's captures depend on the tier.
PAGERANK_3X8 = ExperimentConfig(
    workload="pagerank", size="tiny", tier=0, num_executors=3, executor_cores=8
)


@pytest.fixture(scope="module")
def pagerank_captures():
    """The tier-0 and tier-3 captures of ``PAGERANK_3X8``'s class."""
    return {tier: make_trace(PAGERANK_3X8.with_options(tier=tier)) for tier in (0, 3)}


def test_a_class_may_store_different_traces_and_each_replays_exactly_or_falls_back(
    pagerank_captures,
):
    """Writers of one trace key need not write equal bytes: the tier-0
    and tier-3 captures of one class differ.  Each is still a valid
    stand-in for every point of the class: its replay at each tier
    equals direct simulation or raises :class:`ReplayDivergence` (the
    point then runs directly).  So no artifact under a key is more valid
    than another, and a decoded trace need not be checked against the
    file it came from."""
    assert trace_key(PAGERANK_3X8) == trace_key(PAGERANK_3X8.with_options(tier=3))
    first, last = pagerank_captures[0], pagerank_captures[3]
    assert first.intact and last.intact and first.checksum != last.checksum
    outcomes = []
    for tier in range(4):
        point = PAGERANK_3X8.with_options(tier=tier)
        direct = result_to_dict(run_experiment(point))
        for trace in (first, last):
            try:
                replayed = result_to_dict(fast_replay_experiment(point, trace))
            except ReplayDivergence:
                outcomes.append("falls back")
                continue
            assert replayed == direct, (tier, trace.checksum)
            outcomes.append("equal")
    assert "equal" in outcomes and "falls back" in outcomes


def test_a_decoded_trace_outlives_its_artifact(tmp_path, monkeypatch, pagerank_captures):
    """Once decoded, a trace is served unchanged for the life of the
    process: after its artifact is deleted, and after the artifact is
    overwritten by another verified trace of the class.  A process with
    an empty load cache reads the artifact as it is now."""
    store = TraceStore(tmp_path)
    first, last = pagerank_captures[0], pagerank_captures[3]
    path = store.save(PAGERANK_3X8, first)
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    decoded = store.load(PAGERANK_3X8)
    assert decoded is not None and decoded.checksum == first.checksum

    path.unlink()
    assert store.load(PAGERANK_3X8) is decoded
    store.save(PAGERANK_3X8.with_options(tier=3), last)
    assert store.exists(PAGERANK_3X8)
    assert store.load(PAGERANK_3X8.with_options(tier=3)) is decoded
    assert decoded.checksum == first.checksum and decoded.intact

    store_module._LOAD_CACHE.clear()  # as a new process, or after eviction
    assert store.load(PAGERANK_3X8).checksum == last.checksum


def test_a_full_trace_directory_keeps_the_captured_results(tmp_path, disk_full):
    """A trace write that fails with ENOSPC costs the reuse, not the
    point: the capture's result stands, no temporary file is left, and
    the store counts the failure.  The next point of the class finds no
    artifact, captures again and saves it."""
    configs = [ExperimentConfig(workload="sort", size="tiny", tier=t) for t in (0, 2)]
    disk_full(artifacts)  # no dataset cache: the first write is the trace
    store_module.reset_stats()
    report = run_campaign(configs, cache_dir=tmp_path, dataset_cache=False)
    assert [point.status for point in report.points] == ["captured", "captured"]
    for point in report.points:
        assert result_to_dict(point.result) == result_to_dict(run_experiment(point.config))
    assert store_module.stats()["save_failed"] == 1
    traces = tmp_path / "traces"
    assert [p.name for p in traces.iterdir() if p.name.startswith(".tmp-")] == []
    assert TraceStore(traces).exists(configs[0])


def test_every_load_outcome_is_counted(tmp_path, monkeypatch):
    """``stats()`` counts each load once, by outcome: a miss by reason
    (missing, corrupt, version skew, checksum), a decode, or a hit."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    path = store.path_for(config)
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    store_module.reset_stats()
    outcomes = {}

    def load_counts(expected):
        before = store_module.stats()
        loaded = store.load(config)
        after = store_module.stats()
        changed = {k: after[k] - before[k] for k in after if after[k] != before[k]}
        assert changed == {expected: 1}, changed
        outcomes[expected] = True
        return loaded

    assert load_counts("missing") is None
    path.write_bytes(b"not a sealed artifact")
    assert load_counts("corrupt") is None
    artifacts.write(path, {"not": "a trace"}, {})
    assert load_counts("corrupt") is None

    skewed = make_trace(config)
    skewed.engine_version = "0-older-engine"
    store.save(config, skewed.seal())
    assert load_counts("version_skew") is None

    tampered = make_trace(config)
    tampered.jobs[-1].task_sets[0].floats["compute_ops"][0] += 1.0  # post-seal
    store.save(config, tampered)
    assert load_counts("checksum") is None

    store.save(config, make_trace(config))
    trace = load_counts("decodes")
    assert trace is not None
    assert load_counts("hits") is trace

    counts = store_module.stats()
    assert counts.pop("save_failed") == 0  # the one counter that is no load
    assert set(outcomes) == set(counts)
    assert sum(counts.values()) == 7
