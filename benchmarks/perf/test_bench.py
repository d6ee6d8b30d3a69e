"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` (outside the
tier-1 suite: the smoke runs take about half a minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench
import inputs
import layers
import probe

HERE = Path(__file__).resolve().parent


def run_bench(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "bench.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _jobs(stream: list) -> list:
    return [config for requests in stream for config in requests if config is not None]


def test_job_stream_is_deterministic_per_seed() -> None:
    assert sorted(inputs.SERVICE_MIXES) == sorted(bench.SERVICE_WORKLOADS)
    stream = inputs.job_stream("service-mix", 3)
    assert stream == inputs.job_stream("service-mix", 3)
    assert stream != inputs.job_stream("service-mix", 4)
    assert [len(requests) for requests in stream] == [306, 306]
    assert [requests.count(None) for requests in stream] == [6, 6]
    jobs = _jobs(stream)
    assert len(jobs) == 600 and sum(config.faults is not None for config in jobs) == 30


def test_service_mixes_sit_on_either_side_of_config_reuse() -> None:
    def distinct_share(workload: str) -> float:
        jobs = _jobs(inputs.job_stream(workload, 0))
        return len(set(map(repr, jobs))) / len(jobs)

    assert distinct_share("service-mix") < 0.5
    assert distinct_share("service-uniform") == 1.0


def test_campaign_inputs_vary_only_order_and_fault_seeds() -> None:
    assert sorted(map(repr, inputs.fig2_grid(1))) == sorted(map(repr, inputs.fig2_grid(2)))
    assert inputs.fig2_grid(1) != inputs.fig2_grid(2)
    assert sorted(map(repr, inputs.fig3_grid(1))) == sorted(map(repr, inputs.fig3_grid(2)))
    assert len(inputs.fig3_grid(0)) == 280
    seeds = {c.faults.seed for c in inputs.faults_grid(0)}
    assert len(seeds) == 28 and seeds != {c.faults.seed for c in inputs.faults_grid(1)}
    for workload in inputs.SERVICE_MIXES:
        def unfaulted(seed: int) -> list[str]:
            jobs = _jobs(inputs.job_stream(workload, seed))
            return sorted(repr(c) for c in jobs if c.faults is None)

        assert unfaulted(1) == unfaulted(2)


def test_ops_per_pass_matches_the_inputs() -> None:
    passes = {
        "fig2-cold": inputs.fig2_grid(0),
        "fig3-warm": inputs.fig3_grid(0),
        "faults-direct": inputs.faults_grid(0),
    } | {w: _jobs(inputs.job_stream(w, 0)) for w in bench.SERVICE_WORKLOADS}
    assert {w: len(ops) for w, ops in passes.items()} == bench.OPS_PER_PASS


def test_percentile_helper() -> None:
    assert bench.tail_percentile(1000) == 99.0
    assert bench.tail_percentile(999) == 98.0
    assert bench.tail_percentile(112) == 90.0
    with pytest.raises(ValueError):
        bench.tail_percentile(19)
    assert bench.percentile(list(range(1, 1001)), 99.0) == 990
    with pytest.raises(ValueError):
        bench.percentile(list(range(999)), 99.0)
    assert bench.percentile(list(range(1, 21)), 50.0) == 10
    # The tail is the mean from the percentile up: 90..100 of 1..100.
    assert bench.tail_mean(list(range(1, 101)), 90.0) == 95.0
    with pytest.raises(ValueError):
        bench.tail_mean(list(range(50)), 90.0)


def test_host_speed_scales_by_nearby_kernel_samples() -> None:
    ref = probe.REFERENCE_S
    slow = [(i / 100, 0.008, 0.0) for i in range(100)]
    # From t=10 on, a quarter of the time is stolen.
    fast = [(10 + i / 100, 0.002, i / 400) for i in range(100)]
    speed = probe.HostSpeed(slow + fast)
    assert speed.seconds(0.2, 0.5) == pytest.approx(0.5 * ref / 0.008)
    assert speed.factor(10.2, 10.4) == pytest.approx(ref / 0.002)
    assert speed.seconds(10.2, 0.4) == pytest.approx(0.3 * ref / 0.002)
    # Far from any sample the margin widens until enough are in.
    assert speed.factor(5.0, 5.1) == pytest.approx(ref / 0.005)
    assert probe.Unscaled().seconds(3.0, 2.0) == 2.0


def _snapshot(*tracks: list[layers.Span]) -> dict:
    return {
        "pid": 1,
        "tracks": [{"tid": i, "name": f"t{i}", "spans": s} for i, s in enumerate(tracks)],
    }


def test_self_times_on_nested_tree_with_gc_child() -> None:
    main = [
        ("harness", "pass", 0.0, 10.0, -1),
        ("runner.self", "CampaignRunner.run", 1.0, 9.0, 0),
        ("core.experiment", "run_experiment", 2.0, 6.0, 1),
        ("python.gc", "gen2", 3.0, 4.0, 2),
        ("sim.run", "Environment.run", 6.5, 8.5, 1),
    ]
    worker = [("trace.fastreplay", "fast_replay_experiment", 1.0, 3.0, -1)]
    result = layers.breakdown(_snapshot(main, worker), (0.0, 10.0))
    assert result["self_s"] == {
        "harness": 2.0, "runner.self": 2.0, "core.experiment": 3.0,
        "python.gc": 1.0, "sim.run": 2.0, "trace.fastreplay": 2.0,
    }
    assert result["calls"]["python.gc"] == 1
    assert result["max_deviation"] == 0.0

    # A child longer than its parent breaks the sum.
    broken = main + [("memory.model", "MemoryDevice.record", 6.0, 9.5, 4)]
    assert layers.breakdown(_snapshot(broken), (0.0, 10.0))["max_deviation"] > 0.1


def test_targets_are_repro_perf_rows_without_step() -> None:
    from repro.perf.instrument import _TARGETS

    wrapped = {row[:3] for row in layers.TARGETS}
    assert ("repro.sim.core", "Environment", "step") not in wrapped
    kept = {row[:3] for row in _TARGETS if layers.PERF_LAYERS[row[3]] is not None}
    assert kept <= wrapped
    assert ("repro.trace.store", "TraceStore", "load", "trace.store_load") in layers.TARGETS


def test_wrappers_keep_the_batched_dispatch_loop() -> None:
    from repro import api
    from repro.sim import core

    original_run = core.Environment.run
    recorder = layers.Recorder().install()
    try:
        assert core.Environment.step is core._BASELINE_STEP
        assert core.Environment.run is not original_run
        with recorder.span(layers.HARNESS, "pass"):
            api.run("sort", size="tiny")
    finally:
        recorder.uninstall()
    assert core.Environment.run is original_run
    (window,) = layers.pass_windows(recorder.snapshot(), "pass")
    result = layers.breakdown(recorder.snapshot(), window)
    assert result["calls"]["sim.run"] > 0 and result["calls"]["spark.rdd_compute"] > 0
    assert result["max_deviation"] < bench.ACCOUNTING_TOLERANCE


def _processes_mentioning(text: str) -> list[str]:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if text.encode() in cmdline and int(pid) != os.getpid():
            found.append(cmdline.decode(errors="replace"))
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict:
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    shm_before = set(os.listdir("/dev/shm"))
    start = time.perf_counter()
    proc = run_bench("--smoke", "--seconds", "1", "--trace", "1", "--json", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {
        "elapsed": elapsed,
        "report": json.loads(out.read_text()),
        "last_line": json.loads(proc.stdout.strip().splitlines()[-1]),
        "shm_before": shm_before,
    }


def test_smoke_runs_all_workloads_quickly_without_failures(smoke: dict) -> None:
    assert smoke["elapsed"] < 60.0
    workloads = smoke["report"]["workloads"]
    assert sorted(workloads) == sorted(bench.WORKLOADS)
    for report in workloads.values():
        assert report["correct"] and report["problems"] == []
        assert report["metrics"]["fail_frac"]["value"] == 0.0
        assert set(report["metrics"]) == set(bench.PER_LAYER)
    assert smoke["last_line"]["correct"] is True


def test_traced_results_equal_untraced(smoke: dict) -> None:
    for report in smoke["report"]["workloads"].values():
        digests = report["facts"]["digests"]
        assert digests["traced"] and set(digests["traced"]) == set(digests["plain"])
        assert len(set(digests["plain"])) == 1


def test_layer_times_add_up_to_pass_wall_time(smoke: dict) -> None:
    for report in smoke["report"]["workloads"].values():
        error = report["metrics"]["harness.accounting_error"]["value"]
        assert error <= bench.ACCOUNTING_TOLERANCE


def test_smoke_leaks_nothing(smoke: dict) -> None:
    assert set(os.listdir("/dev/shm")) <= smoke["shm_before"]
    leftovers = [p.name for p in bench.RUNS.iterdir() if p.name != "traces"]
    assert leftovers == []
    assert _processes_mentioning(str(bench.RUNS)) == []


def test_untraced_smoke_prints_every_end_to_end_metric() -> None:
    proc = run_bench("--smoke", "--seconds", "1", "--workload", "fig3-warm")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == set(bench.END_TO_END)
    lines = proc.stdout.splitlines()
    for name, unit in bench.END_TO_END.items():
        assert last["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def test_fails_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fig2-cold", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
