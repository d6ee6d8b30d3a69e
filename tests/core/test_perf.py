"""Unit tests for the ``repro.perf`` profiling harness."""

from __future__ import annotations

import json

import pytest

from repro import perf
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.perf.profiler import PROFILE_SCHEMA_VERSION, PerfProfile
from repro.sim.core import Environment
from repro.spark.executor import Executor


# ------------------------------------------------------------------- profile core

def test_exclusive_attribution_does_not_double_count():
    prof = PerfProfile()
    prof.start()
    prof.enter("outer")
    prof.enter("inner")
    prof.exit()
    prof.exit()
    prof.stop()
    assert prof.calls == {"outer": 1, "inner": 1}
    # Exclusive spans sum to at most the window: the inner span's time
    # was subtracted from the outer's, not counted twice.
    assert prof.attributed_wall_s <= prof.total_wall_s
    assert all(seconds >= 0.0 for seconds in prof.wall_s.values())


def test_to_dict_schema():
    prof = PerfProfile()
    prof.start()
    prof.enter("sub")
    prof.exit()
    prof.stop()
    payload = prof.to_dict()
    assert payload["schema"] == PROFILE_SCHEMA_VERSION
    assert set(payload) == {
        "schema", "total_wall_s", "attributed_wall_s", "subsystems",
    }
    assert set(payload["subsystems"]["sub"]) == {"calls", "wall_s", "share"}
    assert payload["subsystems"]["sub"]["calls"] == 1


def test_to_json_writes_file(tmp_path):
    prof = PerfProfile()
    prof.start()
    prof.enter("sub")
    prof.exit()
    prof.stop()
    out = tmp_path / "profile.json"
    text = prof.to_json(str(out))
    assert json.loads(out.read_text()) == json.loads(text)


def test_format_renders_table():
    prof = PerfProfile()
    prof.start()
    prof.enter("sim.dispatch")
    prof.exit()
    prof.stop()
    table = prof.format()
    assert "sim.dispatch" in table
    assert "attributed" in table


# -------------------------------------------------------------- instrumentation

def test_install_uninstall_restores_originals():
    run_before = Environment.run
    evaluate_before = Executor._evaluate
    with perf.profile() as prof:
        assert perf.active_profile() is prof
        assert Environment.run is not run_before
    assert perf.active_profile() is None
    assert Environment.run is run_before
    assert Executor._evaluate is evaluate_before


def test_double_install_rejected():
    with perf.profile():
        with pytest.raises(RuntimeError):
            perf.install(PerfProfile())


def test_uninstall_without_install_is_noop():
    perf.uninstall()
    assert perf.active_profile() is None


def test_profiled_experiment_attributes_subsystems():
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    baseline = run_experiment(config)
    with perf.profile() as prof:
        profiled = run_experiment(config)
    # Profiling is observational: simulated outputs are unchanged.
    assert profiled.execution_time == baseline.execution_time
    assert profiled.telemetry.events == baseline.telemetry.events
    # All major subsystems show up with plausible accounting.
    for subsystem in ("sim.dispatch", "rdd.compute", "spark.shuffle", "memory.model"):
        assert prof.calls.get(subsystem, 0) > 0, subsystem
        assert prof.wall_s.get(subsystem, 0.0) >= 0.0, subsystem
    assert prof.total_wall_s > 0.0
    assert prof.attributed_wall_s <= prof.total_wall_s


@pytest.mark.parametrize(
    "workload, tier, scheduled, processed, faults",
    [("sort", 0, 242, 227, False), ("pagerank", 2, 1057, 977, False),
     ("wordcount", 2, 188, 163, True)],
)
def test_profiled_and_observed_runs_use_the_batched_loop(
    monkeypatch, workload, tier, scheduled, processed, faults
):
    """``Environment.run`` is the only dispatch loop: neither a profile
    nor an observer sends a run through ``Environment.step``, and both
    report the kernel event counts the per-step loop counted (pinned
    here; a processed count leaves out the event that ends each
    ``run(until=...)``)."""
    from repro.faults import FaultConfig
    from repro.obs import ObsConfig, Observer

    def no_step(self):
        raise AssertionError("Environment.step was called")

    monkeypatch.setattr(Environment, "step", no_step)
    config = ExperimentConfig(
        workload=workload, size="tiny", tier=tier,
        faults=FaultConfig(seed=3, task_crash_prob=0.2) if faults else None,
        speculation=faults,
    )
    observed = Observer(ObsConfig())
    plain = run_experiment(config, observer=observed)
    profiled = Observer(ObsConfig())
    with perf.profile() as prof:
        result = run_experiment(config, observer=profiled)
        run_experiment(config)
    assert prof.calls["sim.dispatch"] > 0
    assert result.execution_time == plain.execution_time
    counts = {
        name: (
            observer.registry.counter("sim.events_scheduled"),
            observer.registry.counter("sim.events_processed"),
            observer.registry.gauge("sim.final_time"),
        )
        for name, observer in (("observed", observed), ("profiled", profiled))
    }
    assert counts["observed"] == counts["profiled"]
    assert counts["observed"][:2] == (scheduled, processed)
