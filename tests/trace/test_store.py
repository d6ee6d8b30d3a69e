"""Content-addressed trace artifacts: keys, round trips, miss semantics."""

from __future__ import annotations

import gzip
import os
import pickle
import time
from collections import OrderedDict
from pathlib import Path

from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.runner.campaign import run_campaign
from repro.trace import (
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
    assert path.exists()
    assert store.exists(config)
    assert store.keys() == [trace_key(config)]

    loaded = store.load(config.with_options(tier=3))  # timing twin hits
    assert loaded is not None
    assert loaded.checksum == trace.checksum and loaded.intact
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
    path.write_bytes(b"not a gzip stream")
    assert store.load(config) is None  # unreadable

    path.write_bytes(gzip.compress(pickle.dumps({"not": "a trace"})))
    assert store.load(config) is None  # wrong payload type


def test_tampered_residues_fail_the_checksum_on_load(tmp_path):
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    trace = make_trace(config)
    trace.jobs[-1].task_sets[0].floats["compute_ops"][0] += 1.0  # post-seal
    store.save(config, trace)
    assert store.load(config) is None


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

def test_load_cache_returns_same_object_until_rewrite(tmp_path):
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    store.save(config, make_trace(config))
    first = store.load(config)
    assert store.load(config) is first  # served from the LRU

    # Rewriting the artifact changes its stat signature -> fresh load.
    replacement = make_trace(config)
    store.save(config, replacement)
    path = store.path_for(config)
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
    fresh = store.load(config)
    assert fresh is not None and fresh is not first


def test_same_mtime_overwrite_is_not_served_stale(tmp_path):
    """The PR-8 satellite: the load cache folds a content digest into
    its key, so an artifact overwritten in-place with the *same* size
    and mtime_ns (rsync-style restores, coarse filesystem timestamps)
    must serve the new bytes instead of the cached trace."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    original = make_trace(config)
    replacement = make_trace(config)
    replacement.jobs[-1].task_sets[0].floats["compute_ops"][0] += 1.0
    replacement.seal()  # recompute the checksum over the mutated residue

    # compresslevel=0 stores the pickles verbatim, so equal-length
    # pickles give equal-length artifacts — size cannot tell them apart.
    payload_a = gzip.compress(pickle.dumps(original), compresslevel=0)
    payload_b = gzip.compress(pickle.dumps(replacement), compresslevel=0)
    assert len(payload_a) == len(payload_b)

    path = store.path_for(config)
    path.write_bytes(payload_a)
    stat = path.stat()
    first = store.load(config)
    assert first is not None
    assert store.load(config) is first  # cached under the digest key

    path.write_bytes(payload_b)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)

    fresh = store.load(config)
    assert fresh is not None and fresh is not first
    assert fresh.checksum == replacement.checksum != original.checksum


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


def test_a_full_trace_directory_keeps_the_captured_results(tmp_path, disk_full):
    """A trace write that fails with ENOSPC costs the reuse, not the
    point: the capture's result stands, no temporary file is left, and
    the store counts the failure.  The next point of the class finds no
    artifact, captures again and saves it."""
    configs = [ExperimentConfig(workload="sort", size="tiny", tier=t) for t in (0, 2)]
    disk_full(store_module)
    store_module.reset_stats()
    report = run_campaign(configs, cache_dir=tmp_path)
    assert [point.status for point in report.points] == ["captured", "captured"]
    for point in report.points:
        assert result_to_dict(point.result) == result_to_dict(run_experiment(point.config))
    assert store_module.stats()["save_failed"] == 1
    traces = tmp_path / "traces"
    assert [p.name for p in traces.iterdir() if p.name.startswith(".tmp-")] == []
    assert TraceStore(traces).exists(configs[0])


# ------------------------------------------------------------ settled hits

def _counting_reads(monkeypatch) -> list:
    """Record every ``Path.read_bytes`` call."""
    reads = []
    real = Path.read_bytes
    monkeypatch.setattr(
        Path, "read_bytes", lambda self: reads.append(self) or real(self)
    )
    return reads


def _after_settling(path) -> int:
    """A clock reading past the settle margin of ``path``'s last change."""
    stat = path.stat()
    return max(stat.st_mtime_ns, stat.st_ctime_ns) + store_module._SETTLE_NS + 1


def _wait_for_a_later_ctime(path, probe) -> None:
    """Block until the filesystem stamps a ctime later than ``path``'s.

    A read settles an entry only more than the margin after the
    artifact's ctime, so any later write lands at a later ctime.  The
    injected clock skips that wait; this waits out the filesystem's
    timestamp granularity instead (a few milliseconds), so the rewrite
    below is stamped as it would be in real time.
    """
    before = path.stat().st_ctime_ns
    for _ in range(5000):
        probe.write_bytes(b"")
        if probe.stat().st_ctime_ns > before:
            return
        time.sleep(0.001)
    raise AssertionError("filesystem ctime never advanced")


def test_settled_hit_reads_no_bytes_and_a_later_rewrite_is_served_fresh(
    tmp_path, monkeypatch
):
    """Once an artifact was read and digested past the settle margin, an
    equal stat signature serves its trace without reading the file.  An
    in-place rewrite after that (same size, mtime restored) still moves
    ctime, so the next load reads, digests and decodes the new bytes."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path / "traces")
    original = make_trace(config)
    replacement = make_trace(config)
    replacement.jobs[-1].task_sets[0].floats["compute_ops"][0] += 1.0
    replacement.seal()
    payload_a = gzip.compress(pickle.dumps(original), compresslevel=0)
    payload_b = gzip.compress(pickle.dumps(replacement), compresslevel=0)
    assert len(payload_a) == len(payload_b)

    path = store.path_for(config)
    path.write_bytes(payload_a)
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    monkeypatch.setattr(store_module, "_clock_ns", lambda: _after_settling(path))
    store_module.reset_stats()
    reads = _counting_reads(monkeypatch)

    first = store.load(config)  # read, digested and decoded: settled
    assert first is not None and len(reads) == 1
    assert store.load(config) is first
    assert store.load(config) is first
    assert len(reads) == 1  # the settled hits read no byte
    assert store_module.stats()["settled_hits"] == 2

    stat = path.stat()
    _wait_for_a_later_ctime(path, tmp_path / "probe")
    path.write_bytes(payload_b)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)

    fresh = store.load(config)
    assert fresh is not None and fresh is not first
    assert fresh.checksum == replacement.checksum != original.checksum
    assert len(reads) == 2
    assert store_module.stats()["decodes"] == 2


def test_loads_within_the_margin_are_reverified(tmp_path, monkeypatch):
    """A load starting within the margin of the artifact's last change
    reads and digests it every time; one past the margin settles the
    entry, and the next equal-signature load is a settled hit."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    store = TraceStore(tmp_path)
    store.save(config, make_trace(config))
    path = store.path_for(config)
    settle_at = _after_settling(path)
    clock = [settle_at - 1_000_000]  # 1 ms short of settling
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    monkeypatch.setattr(store_module, "_clock_ns", lambda: clock[0])
    store_module.reset_stats()
    reads = _counting_reads(monkeypatch)

    first = store.load(config)
    assert store.load(config) is first and store.load(config) is first
    assert len(reads) == 3
    clock[0] = settle_at
    assert store.load(config) is first  # re-verified, now settled
    assert store.load(config) is first
    assert len(reads) == 4
    counts = store_module.stats()
    assert (counts["decodes"], counts["verified_hits"], counts["settled_hits"]) == (1, 3, 1)


def test_every_load_outcome_is_counted(tmp_path, monkeypatch):
    """``stats()`` counts each load once, by outcome: a miss by reason
    (missing, corrupt, version skew, checksum), a decode, or a hit
    (re-verified or settled)."""
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
    path.write_bytes(b"not a gzip stream")
    assert load_counts("corrupt") is None
    path.write_bytes(gzip.compress(pickle.dumps({"not": "a trace"})))
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
    clock = [0]
    monkeypatch.setattr(store_module, "_clock_ns", lambda: clock[0])
    trace = load_counts("decodes")
    assert trace is not None
    assert load_counts("verified_hits") is trace
    clock[0] = _after_settling(path)
    assert load_counts("verified_hits") is trace  # settles the entry
    assert load_counts("settled_hits") is trace

    counts = store_module.stats()
    assert counts.pop("save_failed") == 0  # the one counter that is no load
    assert set(outcomes) == set(counts)
    assert sum(counts.values()) == 9
