"""Engine wall-clock benchmark — how fast the simulator itself runs.

Every other benchmark in this directory measures *simulated* quantities
(execution time, traffic, energy) that are pinned bit-for-bit by the
engine-invariance tests.  This module instead measures the *host*
wall-clock cost of producing them on a representative slice of the
Fig. 2 grid, and gates against the committed baseline so hot-path
regressions are caught before they land.

Artifacts:

- ``benchmarks/BENCH_engine.json`` — machine-readable measurements
  (overridable via ``BENCH_ENGINE_JSON``); CI uploads it as an artifact.
- ``benchmarks/baseline_engine.json`` — committed reference numbers.
  Regenerate deliberately with ``BENCH_UPDATE_BASELINE=1``.

Point selection: ``BENCH_POINTS="workload:size:tier,..."`` restricts the
run (the CI smoke step uses two points); the default set covers all
seven paper workloads.  Wall-clock numbers vary across machines, so the
regression gate only fails on a >50 % slowdown against baseline.

Campaign-level measurement: the full 84-point Fig. 2 grid is also timed
as one campaign three ways — every point simulated in full
(``reuse_traces=False``, serial), cold trace reuse (pooled: one capture
per behaviour class, the rest replayed, each worker reading artifacts
through its own trace-store LRU) and warm trace reuse (pooled, every
replayable point served from artifacts written by the cold pass).
Every traced pass must be value-identical to the direct one;
the PR-8 gate additionally holds the pooled cold/warm passes to ≤ ½ / ≤ ⅓
of the committed PR-4 serial wall clock.  ``BENCH_WORKERS`` sets the
pool width (default ``min(4, cpu_count)``),
``BENCH_CAMPAIGN="workload:size,..."`` shrinks the grid (CI smoke) and
``BENCH_CAMPAIGN=off`` skips it.

Capture-phase measurement (schema 4): every pass shares one dataset-
artifact directory (:mod:`repro.workloads.datacache`), so the direct
pass seeds the artifacts the cold capture wave reuses — the PR-9
mechanism.  ``time_capture_phase`` additionally captures each behaviour
class twice against a fresh dataset directory and records per-class
cache hit/miss counts: the second pass must be served entirely from
artifacts (zero misses) and stay checksum-identical to the first.  The
PR-9 gate holds the cold campaign to ≤ 1/1.8 of the committed PR-8
cold wall clock.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path

import pytest

from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.runner import run_campaign
from repro.trace import capture_experiment
from repro.workloads import WORKLOAD_NAMES, datacache, datagen
from repro.workloads.base import SIZE_ORDER

BENCH_SCHEMA_VERSION = 5

#: Representative slice of the Fig. 2 grid: every paper workload on the
#: fastest and slowest tier, plus the two heaviest workloads at scale.
DEFAULT_POINTS: tuple[tuple[str, str, int], ...] = (
    ("sort", "small", 0),
    ("sort", "small", 3),
    ("repartition", "small", 0),
    ("repartition", "small", 3),
    ("als", "small", 0),
    ("als", "small", 3),
    ("bayes", "small", 0),
    ("bayes", "small", 3),
    ("rf", "small", 0),
    ("rf", "small", 3),
    ("lda", "small", 0),
    ("lda", "small", 3),
    ("pagerank", "small", 0),
    ("pagerank", "small", 3),
    ("lda", "large", 3),
    ("pagerank", "large", 3),
)

#: Best-of-N timing: absorbs one-off warmup noise without long runs.
ROUNDS = 2

#: Fail only on a >50 % slowdown — wall-clock baselines travel across
#: machines, so the gate must tolerate hardware variance.
REGRESSION_LIMIT = 1.5

#: The committed PR-4 serial campaign wall clocks (full 84-point grid).
#: The PR-8 acceptance gate is phrased against these absolute numbers:
#: pooled fast-replay campaigns must run the cold pass in ≤ half and the
#: warm pass in ≤ a third of what the serial DES-replay engine took.
PR4_COLD_WALL_S = 5.613
PR4_WARM_WALL_S = 1.204

#: The committed PR-8 cold-campaign wall clock (full 84-point grid,
#: serial, no dataset cache).  The PR-9 acceptance gate: with shared
#: dataset artifacts, vectorized kernels and batched DES dispatch, the
#: cold pass must run ≥ 1.8× faster than this — bit-identically.
PR8_COLD_WALL_S = 5.374
PR9_COLD_SPEEDUP = 1.8

BASELINE_PATH = Path(__file__).parent / "baseline_engine.json"


def bench_workers() -> int:
    spec = os.environ.get("BENCH_WORKERS", "").strip()
    if spec:
        return max(1, int(spec))
    return min(4, os.cpu_count() or 1)


def selected_points() -> list[tuple[str, str, int]]:
    spec = os.environ.get("BENCH_POINTS", "").strip()
    if not spec:
        return list(DEFAULT_POINTS)
    points = []
    for chunk in spec.split(","):
        workload, size, tier = chunk.strip().split(":")
        points.append((workload, size, int(tier)))
    return points


def point_key(workload: str, size: str, tier: int) -> str:
    return f"{workload}-{size}-t{tier}"


def time_point(workload: str, size: str, tier: int) -> dict:
    config = ExperimentConfig(workload=workload, size=size, tier=tier)
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        # Each round pays the full cost, including input generation.
        datagen.clear_cache()
        t0 = time.perf_counter()
        result = run_experiment(config)
        best = min(best, time.perf_counter() - t0)
    assert result is not None and result.verified, (workload, size, tier)
    return {
        "wall_s": best,
        "simulated_s": result.execution_time,
        "events": sum(result.telemetry.events.values()),
    }


def campaign_grid() -> list[ExperimentConfig]:
    """The campaign benchmark's configs: a workload×size set × 4 tiers."""
    spec = os.environ.get("BENCH_CAMPAIGN", "").strip()
    if spec.lower() in ("off", "0", "none"):
        return []
    if spec:
        pairs = [tuple(chunk.strip().split(":")) for chunk in spec.split(",")]
    else:
        pairs = [(w, s) for w in WORKLOAD_NAMES for s in SIZE_ORDER]
    return [
        ExperimentConfig(workload=workload, size=size, tier=tier)
        for workload, size in pairs
        for tier in (0, 1, 2, 3)
    ]


def time_campaign() -> dict | None:
    """Time the Fig. 2 grid campaign direct vs pooled cold/warm reuse.

    Returns ``None`` when ``BENCH_CAMPAIGN=off``.  The direct pass stays
    serial (the PR-4 reference shape); the traced passes run a worker
    pool with micro-kernel replay, each worker decoding a behaviour
    class's artifact once into its own trace-store LRU and sent nothing
    but the point's config and directory roots.  Every traced pass is
    asserted value-identical to the direct pass point by point, so the
    wall-clock comparison never trades correctness for speed.

    All three passes share one dataset-artifact directory: the direct
    pass seeds the artifacts, the cold capture wave loads them instead
    of regenerating every input from its seed (the PR-9 capture-phase
    win), and the warm passes never touch datasets at all.

    The cold pass — the only one gated against an absolute committed
    wall clock — runs ``ROUNDS`` times (fresh trace directory each
    round, so every round captures from scratch) and reports the best;
    single-shot walls on a shared box mix the engine's cost with
    co-tenant noise that the minimum strips out.
    """
    grid = campaign_grid()
    if not grid:
        return None
    workers = bench_workers()

    with tempfile.TemporaryDirectory(
        prefix="bench-traces-"
    ) as trace_dir, tempfile.TemporaryDirectory(
        prefix="bench-datasets-"
    ) as dataset_dir:
        datagen.clear_cache()
        t0 = time.perf_counter()
        direct = run_campaign(grid, reuse_traces=False, dataset_dir=dataset_dir)
        direct_wall = time.perf_counter() - t0
        direct.raise_on_failure()

        datagen.clear_cache()
        t0 = time.perf_counter()
        cold = run_campaign(
            grid, trace_dir=trace_dir, workers=workers, dataset_dir=dataset_dir
        )
        cold_walls = [time.perf_counter() - t0]
        cold.raise_on_failure()
        # Further cold rounds against throwaway trace directories: each
        # is cold by construction (no artifacts exist), and the gate
        # reads the best-of-N wall — the standard minimum-of-repeats
        # estimator, which measures the engine instead of whatever else
        # the host was doing during one particular pass.
        reference = [result_to_dict(r) for r in direct.results]
        for _ in range(ROUNDS - 1):
            with tempfile.TemporaryDirectory(
                prefix="bench-traces-cold-"
            ) as cold_retry_dir:
                datagen.clear_cache()
                t0 = time.perf_counter()
                cold_again = run_campaign(
                    grid,
                    trace_dir=cold_retry_dir,
                    workers=workers,
                    dataset_dir=dataset_dir,
                )
                cold_walls.append(time.perf_counter() - t0)
            cold_again.raise_on_failure()
            assert [
                result_to_dict(r) for r in cold_again.results
            ] == reference, "cold trace-reuse campaign is not value-identical"
        cold_wall = min(cold_walls)

        # Warm passes are warm by construction (the artifacts already
        # exist), so best-of-N just repeats the same pass; the minimum
        # keeps the warm ratio from wobbling with host noise.
        warm_walls = []
        for _ in range(ROUNDS):
            datagen.clear_cache()
            t0 = time.perf_counter()
            warm = run_campaign(
                grid,
                trace_dir=trace_dir,
                workers=workers,
                dataset_dir=dataset_dir,
            )
            warm_walls.append(time.perf_counter() - t0)
            warm.raise_on_failure()
        warm_wall = min(warm_walls)

    for label, report in (("cold", cold), ("warm", warm)):
        assert [
            result_to_dict(r) for r in report.results
        ] == reference, f"{label} trace-reuse campaign is not value-identical"
    assert warm.replayed == len(grid), "warm pass should replay every point"

    return {
        "points": len(grid),
        "workers": workers,
        "behaviour_classes": cold.captured,
        "direct_wall_s": direct_wall,
        "traced_cold_wall_s": cold_wall,
        "cold_wall_runs": cold_walls,
        "traced_warm_wall_s": warm_wall,
        "cold_speedup": direct_wall / cold_wall,
        "warm_speedup": direct_wall / warm_wall,
        "cold_replayed": cold.replayed,
    }


def time_capture_phase() -> dict | None:
    """Capture each behaviour class twice against one dataset cache.

    The first pass generates every input dataset and stores it as a
    memory-mapped artifact; the in-process memo is then dropped, so the
    second pass must be served entirely from artifacts on disk.  Both
    captures must produce the same trace checksum — the cache can only
    change *when* the dataset is built, never *what* the experiment
    computes.  Returns per-class hit/miss counts alongside the two
    walls; ``None`` when ``BENCH_CAMPAIGN=off``.
    """
    grid = campaign_grid()
    if not grid:
        return None
    classes = sorted({(c.workload, c.size) for c in grid})
    previous = datacache.active()
    per_class: dict[str, dict] = {}
    first_wall = 0.0
    second_wall = 0.0
    with tempfile.TemporaryDirectory(prefix="bench-capture-") as root:
        datacache.configure(root)
        try:
            for workload, size in classes:
                config = ExperimentConfig(
                    workload=workload, size=size, tier=0
                )
                datagen.clear_cache()
                t0 = time.perf_counter()
                _, first = capture_experiment(config)
                first_wall += time.perf_counter() - t0
                datagen.clear_cache()  # drop the memo: force the disk path
                datacache.reset_stats()
                t0 = time.perf_counter()
                _, second = capture_experiment(config)
                second_wall += time.perf_counter() - t0
                stats = datacache.stats()
                assert first is not None and second is not None
                assert second.checksum == first.checksum, (workload, size)
                per_class[f"{workload}-{size}"] = {
                    "hits": stats["hits"],
                    "misses": stats["misses"],
                }
        finally:
            datacache.configure(
                None if previous is None else previous.root
            )
            datagen.clear_cache()
            datacache.reset_stats()
    return {
        "behaviour_classes": len(classes),
        "first_pass_wall_s": first_wall,
        "second_pass_wall_s": second_wall,
        "classes": per_class,
    }


@pytest.fixture(scope="module")
def measurements() -> dict:
    points = {
        point_key(*point): time_point(*point) for point in selected_points()
    }
    data = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "rounds": ROUNDS,
        "python": platform.python_version(),
        "points": points,
        "total_wall_s": sum(p["wall_s"] for p in points.values()),
    }
    campaign = time_campaign()
    if campaign is not None:
        data["campaign"] = campaign
    capture = time_capture_phase()
    if capture is not None:
        data["capture"] = capture
    return data


def test_emit_bench_json(measurements):
    """Persist the measurement artifact (and optionally the baseline)."""
    out = Path(
        os.environ.get("BENCH_ENGINE_JSON", Path(__file__).parent / "BENCH_engine.json")
    )
    out.write_text(json.dumps(measurements, indent=1, sort_keys=True) + "\n")
    if os.environ.get("BENCH_UPDATE_BASELINE"):
        BASELINE_PATH.write_text(
            json.dumps(measurements, indent=1, sort_keys=True) + "\n"
        )
    assert out.exists()


def test_wallclock_regression_gate(measurements):
    """No measured point may regress >50 % against the committed baseline."""
    if not BASELINE_PATH.exists():
        pytest.skip("no committed baseline (regenerate with BENCH_UPDATE_BASELINE=1)")
    baseline = json.loads(BASELINE_PATH.read_text())
    regressions = []
    for key, point in measurements["points"].items():
        reference = baseline["points"].get(key)
        if reference is None:
            continue
        ratio = point["wall_s"] / reference["wall_s"]
        if ratio > REGRESSION_LIMIT:
            regressions.append(f"{key}: {ratio:.2f}x baseline")
    assert not regressions, "; ".join(regressions)


def test_campaign_trace_reuse_speedup(measurements):
    """Trace reuse must at least halve the campaign's wall clock.

    Only gated on the full default grid — a shrunk ``BENCH_CAMPAIGN``
    (the CI smoke) has too few replays per capture for a stable ratio,
    so there the fixture's value-identity assertions are the test.
    """
    campaign = measurements.get("campaign")
    if campaign is None:
        pytest.skip("campaign benchmark disabled (BENCH_CAMPAIGN=off)")
    if os.environ.get("BENCH_CAMPAIGN", "").strip():
        return  # shrunk grid: identity checked, ratio not meaningful
    assert campaign["cold_speedup"] >= 2.0, campaign
    assert campaign["warm_speedup"] >= campaign["cold_speedup"], campaign


def test_campaign_beats_pr4_serial_baseline(measurements):
    """The PR-8 acceptance gate, phrased against the *committed* PR-4
    numbers rather than this run's direct pass: the pooled fast-replay
    campaign must finish the cold pass in ≤ half and the warm pass in
    ≤ a third of what the serial DES-replay engine took on this grid.
    Full default grid only — a shrunk grid has different constants.

    The halving gates assume a ≥ 4-worker pool; on hosts with fewer
    cores the parallel half of the win does not exist (a process pool
    only adds IPC cost, so ``bench_workers`` correctly degrades), and
    the absolute comparison is meaningless — skip with the reason, and
    let ``test_warm_replay_speedup_floor`` hold the serial replay
    contribution as a same-run ratio instead."""
    campaign = measurements.get("campaign")
    if campaign is None:
        pytest.skip("campaign benchmark disabled (BENCH_CAMPAIGN=off)")
    if os.environ.get("BENCH_CAMPAIGN", "").strip():
        pytest.skip("PR-4 reference numbers only apply to the full grid")
    cores = os.cpu_count() or 1
    if cores < 4 or campaign["workers"] < 4:
        pytest.skip(
            f"pooled halving gates need a 4-worker pool (host has "
            f"{cores} core(s), pool ran {campaign['workers']} wide); "
            f"serial ratio gates cover this host"
        )
    assert campaign["traced_cold_wall_s"] <= PR4_COLD_WALL_S / 2, campaign
    assert campaign["traced_warm_wall_s"] <= PR4_WARM_WALL_S / 3, campaign


def test_warm_replay_speedup_floor(measurements):
    """Same-run ratio gate — robust to host speed and timer noise, so it
    runs whatever the core count.  Replay must keep the warm campaign
    roughly an order of magnitude ahead of direct simulation.  (The warm
    floor is deliberately below PR-4's shipped 11.08×: the PR-9
    collector and teardown work sped the *direct* denominator up ~1.6×,
    which compresses the ratio even though warm replay itself also got
    faster.)"""
    campaign = measurements.get("campaign")
    if campaign is None:
        pytest.skip("campaign benchmark disabled (BENCH_CAMPAIGN=off)")
    if os.environ.get("BENCH_CAMPAIGN", "").strip():
        return  # shrunk grid: too few replays for a stable ratio
    assert campaign["warm_speedup"] >= 8.0, campaign


def test_cold_campaign_beats_pr8_baseline(measurements):
    """The PR-9 acceptance gate: shared dataset artifacts + vectorized
    kernels + batched DES dispatch must make the cold campaign ≥ 1.8×
    faster than the committed PR-8 wall clock (5.374 s → ≤ ~2.99 s),
    with the fixture's value-identity assertions guaranteeing the win
    is bit-identical.  Full default grid only — the committed number
    does not transfer to a shrunk grid."""
    campaign = measurements.get("campaign")
    if campaign is None:
        pytest.skip("campaign benchmark disabled (BENCH_CAMPAIGN=off)")
    if os.environ.get("BENCH_CAMPAIGN", "").strip():
        pytest.skip("PR-8 reference numbers only apply to the full grid")
    limit = PR8_COLD_WALL_S / PR9_COLD_SPEEDUP
    assert campaign["traced_cold_wall_s"] <= limit, campaign


def test_second_pass_capture_hits_dataset_cache(measurements):
    """Every behaviour class's second capture must be served entirely
    from dataset artifacts: at least one hit, zero misses.  Runs under
    the shrunk CI-smoke grid too — hit accounting is exact whatever
    the grid size."""
    capture = measurements.get("capture")
    if capture is None:
        pytest.skip("campaign benchmark disabled (BENCH_CAMPAIGN=off)")
    for name, stats in capture["classes"].items():
        assert stats["hits"] > 0, (name, stats)
        assert stats["misses"] == 0, (name, stats)


def test_simulated_values_match_baseline(measurements):
    """Wall-clock may drift across hosts; simulated seconds must not."""
    if not BASELINE_PATH.exists():
        pytest.skip("no committed baseline")
    baseline = json.loads(BASELINE_PATH.read_text())
    for key, point in measurements["points"].items():
        reference = baseline["points"].get(key)
        if reference is None:
            continue
        assert point["simulated_s"] == pytest.approx(
            reference["simulated_s"], rel=1e-12
        ), key
        assert point["events"] == reference["events"], key
