"""Phase 2: replay must be bit-identical to direct simulation — and must
refuse (or fall back) whenever the trace cannot stand in for the config."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.faults import FaultConfig
from repro.trace import (
    ReplayDivergence,
    capture_experiment,
    check_compatible,
    fast_replay_experiment,
    is_replayable_config,
    run_with_trace,
    trace_key,
)

SETTINGS = settings(max_examples=20, deadline=None)

#: Captures are the expensive half; share them across hypothesis
#: examples, keyed by behaviour (the same key the on-disk store uses).
_CAPTURES: dict[str, object] = {}


def capture_for(config: ExperimentConfig):
    key = trace_key(config)
    trace = _CAPTURES.get(key)
    if trace is None:
        # Capture on a fixed *timing* config: tier 0, untouched MBA.
        base = config.with_options(tier=0, mba_percent=100, cpu_socket=1)
        _, trace = capture_experiment(base)
        assert trace is not None
        _CAPTURES[key] = trace
    return trace


# ------------------------------------------------------------------ property

@given(
    workload=st.sampled_from(["sort", "repartition"]),
    tier=st.integers(0, 3),
    mba=st.sampled_from([10, 40, 70, 100]),
    socket=st.sampled_from([0, 1]),
    geometry=st.sampled_from([(1, 40), (2, 4)]),
)
@SETTINGS
def test_replay_equals_direct_simulation(workload, tier, mba, socket, geometry):
    """The tentpole guarantee, as a property over the timing axes:
    replaying one capture under any tier/MBA/socket (per executor
    geometry) equals a from-scratch simulation bit for bit — simulated
    time, verification, telemetry counters, energy, outputs."""
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
    replayed = fast_replay_experiment(config, trace)
    direct = run_experiment(config)
    assert result_to_dict(replayed) == result_to_dict(direct)


# ------------------------------------------------------- divergence handling

def test_static_gate_rejects_faults_and_speculation():
    base = ExperimentConfig(workload="sort", size="tiny")
    ok, _ = is_replayable_config(base)
    assert ok
    for override in (
        {"faults": FaultConfig(seed=1, task_crash_prob=0.1)},
        {"speculation": True},
    ):
        replayable, reason = is_replayable_config(base.with_options(**override))
        assert not replayable and reason


def test_check_compatible_rejects_behaviour_and_version_skew():
    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    _, trace = capture_experiment(config)
    assert trace is not None
    check_compatible(trace, config.with_options(tier=3))  # timing-only: fine

    with pytest.raises(ReplayDivergence):
        check_compatible(trace, config.with_options(workload="repartition"))
    with pytest.raises(ReplayDivergence):
        check_compatible(trace, config.with_options(num_executors=2))
    with pytest.raises(ReplayDivergence):
        check_compatible(
            dataclasses.replace(trace, format_version=trace.format_version + 1),
            config,
        )
    with pytest.raises(ReplayDivergence):
        check_compatible(
            dataclasses.replace(trace, engine_version="0-stale"), config
        )


def test_corrupted_residues_fail_the_checksum():
    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    _, trace = capture_experiment(config)
    assert trace is not None and trace.intact
    trace.jobs[-1].task_sets[0].floats["compute_ops"][0] += 1.0
    assert not trace.intact
    with pytest.raises(ReplayDivergence):
        fast_replay_experiment(config, trace)


class _StubStore:
    """A store that always hands back one fixed trace (never saves)."""

    def __init__(self, trace):
        self.trace = trace
        self.saved = 0

    def load(self, config):
        return self.trace

    def save(self, config, trace):
        self.saved += 1


def test_run_with_trace_falls_back_to_direct_on_divergence():
    """A loaded trace that turns out incompatible must not poison the
    result: ``run_with_trace`` re-simulates in full and says so."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=2)
    _, trace = capture_experiment(config)
    assert trace is not None
    stale = dataclasses.replace(trace, engine_version="0-stale")
    result, how = run_with_trace(config, _StubStore(stale))
    assert how == "direct"
    assert result_to_dict(result) == result_to_dict(run_experiment(config))


def test_run_with_trace_routes_unreplayable_configs_direct():
    config = ExperimentConfig(
        workload="sort",
        size="tiny",
        tier=2,
        faults=FaultConfig(seed=3, task_crash_prob=0.0),
    )
    store = _StubStore(None)
    result, how = run_with_trace(config, store)
    assert how == "direct"
    assert store.saved == 0  # unreplayable points never write artifacts
    assert result_to_dict(result) == result_to_dict(run_experiment(config))
