"""Micro-kernel replay: bit-identical to direct simulation, with the
replay → direct simulation fallback intact."""

from __future__ import annotations

import gc
import sys
import tempfile
import weakref
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import artifacts
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.memory.device import DeltaTables
from repro.runner import run_campaign
from repro.runner.campaign import STATUS_EXECUTED
from repro.trace import (
    ReplayDivergence,
    TraceStore,
    capture_experiment,
    fast_replay_experiment,
    fastreplay,
    run_with_trace,
    trace_key,
)
from repro.trace import store as store_module
from repro.workloads.registry import WORKLOAD_NAMES

SETTINGS = settings(max_examples=20, deadline=None)

#: Captures are the expensive half; share them across hypothesis
#: examples, keyed by behaviour (the same key the on-disk store uses).
#: The behaviour key folds in executor geometry, so every geometry gets
#: its own capture and replays vary only the timing axes.
_CAPTURES: dict[str, object] = {}


def capture_for(config: ExperimentConfig):
    key = trace_key(config)
    trace = _CAPTURES.get(key)
    if trace is None:
        base = config.with_options(tier=0, mba_percent=100, cpu_socket=1)
        _, trace = capture_experiment(base)
        assert trace is not None
        _CAPTURES[key] = trace
    return trace


def saved_bytes(config: ExperimentConfig, trace) -> bytes:
    """The artifact ``TraceStore.save`` writes for ``trace``."""
    with tempfile.TemporaryDirectory() as root:
        return TraceStore(root).save(config, trace).read_bytes()


def decoded_copy(config: ExperimentConfig, trace):
    """``trace`` saved and decoded again, outside any load cache: a copy
    with no plan compiled onto it."""
    with tempfile.TemporaryDirectory() as root:
        path = TraceStore(root).save(config, trace)
        return store_module._decode(artifacts.read(path))


# ------------------------------------------------------------------ property

@given(
    workload=st.sampled_from(["sort", "repartition", "wordcount", "pagerank"]),
    tier=st.integers(0, 3),
    mba=st.sampled_from([10, 30, 50, 70, 90, 100]),
    socket=st.sampled_from([0, 1]),
    geometry=st.sampled_from([(1, 40), (2, 4), (3, 8), (4, 2), (5, 8)]),
)
@SETTINGS
def test_fastreplay_equals_direct_simulation(workload, tier, mba, socket, geometry):
    """The replay guarantee: for any tier/MBA/socket/executor geometry
    the micro-kernel re-timer either returns the byte-identical result
    dict a direct simulation does — simulated time, telemetry counters,
    energy, mitigation, outputs — or refuses because the evaluation
    order differs from the capture's.  At the default one-executor
    geometry it must replay, so the property cannot pass by always
    falling back."""
    executors, cores = geometry
    config = ExperimentConfig(
        workload=workload,
        size="tiny",
        tier=tier,
        mba_percent=mba,
        cpu_socket=socket,
        num_executors=executors,
        executor_cores=cores,
    )
    trace = capture_for(config)
    try:
        fast = fast_replay_experiment(config, trace)
    except ReplayDivergence as exc:
        assert executors > 1, exc
        assert "evaluation order" in str(exc)
        return
    assert result_to_dict(fast) == result_to_dict(run_experiment(config))


@pytest.mark.parametrize("workload", ["pagerank", "wordcount"])
def test_order_dependent_capture_falls_back_to_direct(workload):
    """With 3 executors the evaluation order inside a stage changes
    with tier, MBA level and socket, and with it the task that fixes an
    RDD's record-size estimate.  A tier-0 capture therefore cannot
    stand in for tier 2 / MBA 10 / socket 0: the point must be
    simulated directly, and equal a direct run."""
    capture = ExperimentConfig(
        workload, "tiny", tier=0, num_executors=3, executor_cores=8
    )
    target = capture.with_options(tier=2, mba_percent=10, cpu_socket=0)
    report = run_campaign([capture, target])
    point = report.points[1]
    assert point.status == STATUS_EXECUTED
    assert result_to_dict(point.result) == result_to_dict(run_experiment(target))


# ------------------------------------------------------------ explicit grid

@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_one_trace_serves_the_timing_grid(workload):
    """One capture, one trace object, every timing point: replaying it
    at each tier x MBA level x socket (its compiled plan reused by every
    replay after the first) equals a direct simulation of that point."""
    config = ExperimentConfig(workload=workload, size="tiny", tier=0)
    _, trace = capture_experiment(config)
    assert trace is not None
    for tier in range(4):
        for mba in (10, 50, 100):
            for socket in (0, 1):
                target = config.with_options(
                    tier=tier, mba_percent=mba, cpu_socket=socket
                )
                assert result_to_dict(
                    fast_replay_experiment(target, trace)
                ) == result_to_dict(run_experiment(target)), target.describe()


def test_golden_pin_sort_tiny():
    """Absolute pin: fast replay reproduces the exact simulated seconds
    of a from-scratch run, not merely something close."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=2)
    _, trace = capture_experiment(config)
    fast = fast_replay_experiment(config, trace)
    direct = run_experiment(config)
    assert fast.execution_time == direct.execution_time
    assert fast.telemetry.events == direct.telemetry.events
    assert fast.telemetry.energy == direct.telemetry.energy
    assert result_to_dict(fast) == result_to_dict(direct)


# ------------------------------------------------------------ divergence

def test_speculation_raises_replaydivergence():
    """Speculation changes *behaviour*, so ``check_compatible`` rejects
    it before the walk starts."""
    config = ExperimentConfig(workload="sort", size="tiny")
    trace = capture_for(config)
    with pytest.raises(ReplayDivergence):
        fast_replay_experiment(config.with_options(speculation=True), trace)


def test_unsized_truthy_hdfs_write_raises_replaydivergence():
    """A truthy but unsized result feeding an HDFS write makes the
    executor's output write raise ``TypeError``; the walk raises
    ``ReplayDivergence`` instead, so the caller simulates directly."""
    config = ExperimentConfig(workload="sort", size="tiny")
    _, trace = capture_experiment(config)
    ts = trace.jobs[-1].task_sets[-1]
    ts.hdfs_path = ts.hdfs_path or "/forced/out"
    ts.ints["result_truthy"][:] = 1
    ts.ints["result_len"][:] = -1
    trace.seal()
    with pytest.raises(ReplayDivergence, match="no len"):
        fast_replay_experiment(config, trace)


# --------------------------------------------------------- compiled plan

def test_plan_compiles_once_per_trace(monkeypatch):
    """Replays of one trace object share its compiled plan: the second
    replay compiles nothing."""
    config = ExperimentConfig(workload="sort", size="tiny")
    _, trace = capture_experiment(config)
    compiled = []
    real = fastreplay._compile_task_set
    monkeypatch.setattr(
        fastreplay, "_compile_task_set",
        lambda ts, chunk: compiled.append(ts) or real(ts, chunk),
    )
    first = fast_replay_experiment(config, trace)
    task_sets = sum(len(job.task_sets) for job in trace.jobs)
    assert len(compiled) == task_sets
    second = fast_replay_experiment(config.with_options(tier=3), trace)
    assert len(compiled) == task_sets
    assert result_to_dict(first) == result_to_dict(run_experiment(config))
    assert result_to_dict(second) == result_to_dict(
        run_experiment(config.with_options(tier=3))
    )


def test_resealed_trace_replays_its_new_residues():
    """The plan is keyed on the verified checksum, not on the trace
    object: residues changed after a replay fail the checksum until the
    trace is sealed again, and then the next replay sees the change."""
    config = ExperimentConfig(workload="sort", size="tiny")
    _, trace = capture_experiment(config)
    fast_replay_experiment(config, trace)  # compiles and keeps a plan
    ts = trace.jobs[-1].task_sets[-1]
    ts.hdfs_path = ts.hdfs_path or "/forced/out"
    ts.ints["result_truthy"][:] = 1
    ts.ints["result_len"][:] = -1
    with pytest.raises(ReplayDivergence, match="checksum"):
        fast_replay_experiment(config, trace)
    trace.seal()
    with pytest.raises(ReplayDivergence, match="no len"):
        fast_replay_experiment(config, trace)


def test_replay_leaves_the_saved_trace_unchanged():
    """The compiled plan lives on the decoded object only: a replayed
    trace saves to the same bytes as before its first replay."""
    config = ExperimentConfig(workload="sort", size="tiny")
    _, trace = capture_experiment(config)
    before = saved_bytes(config, trace)
    fast_replay_experiment(config, trace)
    assert saved_bytes(config, trace) == before


def test_behaviour_skew_raises_replaydivergence():
    config = ExperimentConfig(workload="sort", size="tiny")
    trace = capture_for(config)
    with pytest.raises(ReplayDivergence):
        fast_replay_experiment(config.with_options(num_executors=2), trace)


# --------------------------------------------------------- fallback chain

def _store_with_capture(tmp_path, config):
    store = TraceStore(tmp_path)
    _, trace = capture_experiment(config)
    store.save(config, trace)
    return store


def test_run_with_trace_uses_fast_path(tmp_path, monkeypatch):
    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    store = _store_with_capture(tmp_path, config)
    calls = []
    from repro.trace import fastreplay as fr

    real = fr.fast_replay_experiment
    monkeypatch.setattr(
        fr, "fast_replay_experiment",
        lambda *a, **k: calls.append("fast") or real(*a, **k),
    )
    result, how = run_with_trace(config, store)
    assert how == "replayed" and calls == ["fast"]
    assert result_to_dict(result) == result_to_dict(run_experiment(config))


def test_double_divergence_falls_back_to_direct(tmp_path, monkeypatch):
    """A replay that raises ``ReplayDivergence`` is simulated directly."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    store = _store_with_capture(tmp_path, config)
    from repro.trace import fastreplay as fr

    def _diverge(*a, **k):
        raise ReplayDivergence("forced")

    monkeypatch.setattr(fr, "fast_replay_experiment", _diverge)
    result, how = run_with_trace(config, store)
    assert how == "direct"
    assert result_to_dict(result) == result_to_dict(run_experiment(config))


def test_observed_runs_use_fast_path(tmp_path, monkeypatch):
    """The fast re-timer emits spans, so observed points take it too."""
    from repro.obs import ObsConfig, Observer
    from repro.trace import fastreplay as fr

    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    store = _store_with_capture(tmp_path, config)

    calls = []
    real = fr.fast_replay_experiment
    monkeypatch.setattr(
        fr, "fast_replay_experiment",
        lambda *a, **k: calls.append("fast") or real(*a, **k),
    )
    observer = Observer(ObsConfig())
    result, how = run_with_trace(config, store, observer=observer)
    assert how == "replayed" and calls == ["fast"]
    assert result_to_dict(result) == result_to_dict(run_experiment(config))
    assert observer.tracer.spans, "observed fast replay recorded no spans"


def _span_shapes(tracer):
    return sorted(
        (s.name, s.cat, s.begin, s.end, s.track) for s in tracer.spans
    )


def test_observed_fast_replay_matches_direct_spans():
    """Span parity: the fast re-timer's spans carry the same names
    (shuffle-map payment phases included), categories, tracks and
    bit-identical simulated times an observed direct simulation
    records, and the registry metrics agree."""
    from repro.obs import ObsConfig, Observer

    config = ExperimentConfig(workload="wordcount", size="tiny", tier=2)
    _, trace = capture_experiment(config)
    assert trace is not None

    obs_fast = Observer(ObsConfig())
    fast = fast_replay_experiment(config, trace, observer=obs_fast)
    obs_direct = Observer(ObsConfig())
    direct = run_experiment(config, observer=obs_direct)

    assert result_to_dict(fast) == result_to_dict(direct)
    assert _span_shapes(obs_fast.tracer) == _span_shapes(obs_direct.tracer)
    assert any(
        s.name == "shuffle-write" for s in obs_fast.tracer.spans
    ), "no shuffle-map payment phase"
    # Registry parity outside the kernel counters (the fast path counts
    # micro-kernel events, a direct run counts generic-kernel events)
    # and the shuffle manager's, which replay never runs.
    def comparable(registry):
        return {
            k: v
            for k, v in registry.counters.items()
            if not k.startswith(("sim.events_", "shuffle."))
        }

    assert comparable(obs_fast.registry) == comparable(obs_direct.registry)
    assert obs_fast.registry.gauges["sim.final_time"] == (
        obs_direct.registry.gauges["sim.final_time"]
    )
    assert obs_fast.registry.counters["sim.events_processed"] > 0


@pytest.mark.parametrize(
    "workload, executors, cores, events",
    [("sort", 1, 40, 212), ("lda", 1, 40, 233), ("als", 2, 4, 622)],
)
def test_observed_replay_counts_every_kernel_event(workload, executors, cores, events):
    """The micro-kernel's event accounting is pinned: a tier-0 tiny
    capture replayed at tier 2 and MBA 50 schedules (draws a sequence
    number for) and pops exactly this many entries, so the loop can
    neither drop nor double a pop or a draw."""
    from repro.obs import ObsConfig, Observer

    base = ExperimentConfig(
        workload=workload, size="tiny", tier=0,
        num_executors=executors, executor_cores=cores,
    )
    _, trace = capture_experiment(base)
    assert trace is not None
    observer = Observer(ObsConfig())
    fast_replay_experiment(base.with_options(tier=2, mba_percent=50), trace, observer=observer)
    counters = observer.registry.counters
    assert counters["sim.events_scheduled"] == events
    assert counters["sim.events_processed"] == events


# ------------------------------------------------------- plan delta tables

#: Direct results by point, shared across hypothesis examples.
_DIRECT: dict[ExperimentConfig, dict] = {}


def direct_result(config: ExperimentConfig) -> dict:
    if config not in _DIRECT:
        _DIRECT[config] = result_to_dict(run_experiment(config))
    return _DIRECT[config]


#: Every tier (DRAM x2 twice, Optane x4, Optane x2), two MBA levels and
#: both sockets: tables of every (technology, DIMM count) pair, and pairs
#: that share a technology or a DIMM count.
FILL_POINTS = [
    (tier, mba, socket) for tier in range(4) for mba in (10, 100) for socket in (0, 1)
]


@given(
    workload=st.sampled_from(["sort", "wordcount"]),
    order=st.permutations(FILL_POINTS),
)
@settings(max_examples=8, deadline=None)
def test_plan_tables_are_fill_order_independent(workload, order):
    """A freshly decoded trace replayed at the (tier, MBA, socket) points
    in any order: whichever point first fills a (technology, DIMM count)
    table with counter deltas, every replay equals ``run_experiment``."""
    base = ExperimentConfig(workload=workload, size="tiny")
    trace = decoded_copy(base, capture_for(base))  # no plan yet
    for tier, mba, socket in order:
        point = base.with_options(tier=tier, mba_percent=mba, cpu_socket=socket)
        assert result_to_dict(fast_replay_experiment(point, trace)) == direct_result(
            point
        ), point.describe()


def test_plan_tables_die_with_the_decoded_trace(tmp_path, monkeypatch):
    """The delta tables belong to the compiled plan on the decoded trace:
    once the store's load cache evicts the trace they are collected, and
    no module holds any."""
    store = TraceStore(tmp_path)
    first = ExperimentConfig(workload="sort", size="tiny")
    second = first.with_options(workload="repartition")
    for config in (first, second):
        _, trace = capture_experiment(config)
        store.save(config, trace)
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    monkeypatch.setattr(store_module, "_LOAD_CACHE_BYTES", 1)  # one trace at a time

    trace = store.load(first)
    for tier in (0, 2, 3):
        point = first.with_options(tier=tier)
        assert result_to_dict(fast_replay_experiment(point, trace)) == direct_result(point)
    tables = trace._replay_plan[1].deltas
    assert isinstance(tables, DeltaTables) and tables._tables
    dead = weakref.ref(tables)
    del trace, tables
    assert store.load(second) is not None  # evicts the first trace
    gc.collect()
    assert dead() is None
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            assert not any(isinstance(v, DeltaTables) for v in vars(module).values()), name
