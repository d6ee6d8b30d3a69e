"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python benchmarks/perf/bench.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--json OUT] [--smoke] [--history]

Each workload runs in fresh interpreters (``runner.py``) under the
product defaults: campaigns through ``repro.api.campaign`` with default
``RunOptions`` (serial), ``repro serve`` with its one worker thread.
Without ``--trace`` the end-to-end metrics are measured; with it, one
untraced and one traced run of ``S/2`` seconds each give the per-layer
metrics and the tracing overhead.  Every metric is printed as ``name
value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs are checked on every
run (see README.md); a mismatch makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import typing as t
from contextlib import contextmanager
from pathlib import Path

import probe
from procs import read_line

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for runs and traced-run Chrome traces (gitignored).
RUNS = ROOT / ".perf_runs"
DIGESTS = HERE / "digests.json"
HISTORY = HERE / "history.jsonl"

WORKLOADS = ("fig2-cold", "fig3-warm", "faults-direct", "service-mix", "service-uniform")
#: Workloads that drive a ``repro serve`` (their job streams: inputs.SERVICE_MIXES).
SERVICE_WORKLOADS = ("service-mix", "service-uniform")

#: Passes a run makes at least, whatever ``--seconds`` says (smoke and
#: traced runs: 2), and the ops in one full-size pass.
MIN_PASSES = {"fig2-cold": 3, "fig3-warm": 4, "faults-direct": 4, "service-mix": 2,
              "service-uniform": 2}
OPS_PER_PASS = {"fig2-cold": 84, "fig3-warm": 280, "faults-direct": 28, "service-mix": 600,
                "service-uniform": 240}

#: Fresh interpreters set up per campaign run; setup_s is their median.
#: The service workloads take the median over their per-pass server
#: starts instead.
SETUP_REPEATS = 3

#: A child that takes longer is killed with everything it started.
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "latency_tail_ms": "ms",
}

#: Layer self times are seconds per pass unless the unit says otherwise.
PER_LAYER = {
    "workloads.datagen_s": "s",
    "workloads.datacache_s": "s",
    "workloads.datacache_hits": "count",
    "workloads.datacache_misses": "count",
    "spark.rdd_compute_s": "s",
    "spark.run_job_s": "s",
    "spark.shuffle_s": "s",
    "sim.run_s": "s",
    "memory.model_s": "s",
    "memory.calls": "count",
    "trace.capture_s": "s",
    "trace.store_save_s": "s",
    "trace.fastreplay_s": "s",
    "trace.store_load_s": "s",
    "trace.des_replay_s": "s",
    "trace.replay_frac": "ratio",
    "runner.self_s": "s",
    "runner.result_cache_s": "s",
    "core.experiment_s": "s",
    "service.submit_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p90_ms": "ms",
    "service.exec_p50_ms": "ms",
    "service.exec_p90_ms": "ms",
    "service.protocol_p50_ms": "ms",
    "service.result_encode_s": "s",
    "client.result_decode_s": "s",
    "service.dedup_frac": "ratio",
    "service.status.cached": "count",
    "service.status.coalesced": "count",
    "service.status.replayed": "count",
    "service.status.captured": "count",
    "service.status.executed": "count",
    "service.held_jobs": "count",
    "python.gc_s": "s",
    "python.gc_collections": "count",
    "spark.task_failures": "count",
    "spark.speculative_launched": "count",
    "harness.self_s": "s",
    "harness.pass_wall_s": "s",
    "harness.accounting_error": "ratio",
    "trace_overhead_frac": "ratio",
    "fail_frac": "ratio",
    "scrape_fail_frac": "ratio",
}

#: Span layer (layers.TARGETS) behind each self-time metric.
SELF_TIME_LAYERS = {
    "workloads.datagen_s": "workloads.datagen",
    "workloads.datacache_s": "workloads.datacache",
    "spark.rdd_compute_s": "spark.rdd_compute",
    "spark.run_job_s": "spark.run_job",
    "spark.shuffle_s": "spark.shuffle",
    "sim.run_s": "sim.run",
    "memory.model_s": "memory.model",
    "trace.capture_s": "trace.capture",
    "trace.store_save_s": "trace.store_save",
    "trace.fastreplay_s": "trace.fastreplay",
    "trace.store_load_s": "trace.store_load",
    "trace.des_replay_s": "trace.des_replay",
    "runner.self_s": "runner.self",
    "runner.result_cache_s": "runner.result_cache",
    "core.experiment_s": "core.experiment",
    "service.result_encode_s": "service.result_encode",
    "client.result_decode_s": "client.result_decode",
    "python.gc_s": "python.gc",
    "harness.self_s": "harness",
}

#: Workloads whose seed only orders the points: their results, and so
#: the committed seed-0 digest, are the same for every seed.
SEED_FREE_RESULTS = ("fig2-cold", "fig3-warm")

#: Largest tolerated gap between a traced pass's wall time and its layer
#: self times plus the harness remainder.
ACCOUNTING_TOLERANCE = 0.05


# -- statistics ------------------------------------------------------------------
_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten of ``samples`` beyond it."""
    for pct in _LADDER:
        if samples * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    raise ValueError(f"{samples} samples support no percentile")


def percentile(values: t.Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples
    beyond it (so p99 needs 1000 samples)."""
    if len(values) * (100.0 - pct) / 100.0 < 10.0 - 1e-9:
        raise ValueError(f"p{pct:g} needs more than {len(values)} samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_mean(values: t.Sequence[float], pct: float) -> float:
    """Mean of the samples from the ``pct`` percentile up: at least ten,
    and steadier between runs than the one sample at the percentile."""
    cut = percentile(values, pct)
    return statistics.fmean(v for v in values if v >= cut)


def _or_none(
    statistic: t.Callable[[t.Sequence[float], float], float],
    values: t.Sequence[float],
    pct: float,
) -> float | None:
    try:
        return statistic(values, pct)
    except ValueError:
        return None


#: The latency tail each workload reports: the highest percentile its
#: minimum sample count supports, except fig3-warm, whose mean beyond p99
#: (11 or more samples) spread 6-11 % between seeds against 4-5 % for p95.
TAIL_PERCENTILE = {
    w: tail_percentile(MIN_PASSES[w] * OPS_PER_PASS[w]) for w in WORKLOADS
} | {"fig3-warm": 95.0}


# -- children --------------------------------------------------------------------
_LIVE: set[subprocess.Popen] = set()


def _kill(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and everything in its session."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _kill_live(*_: t.Any) -> None:
    for proc in list(_LIVE):
        _kill(proc)
    raise SystemExit(1)


def run_child(args: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Run ``runner.py`` with ``args``; returns its (spawn, ready) times.

    The child gets its own session so a timeout kills it together with
    any ``repro serve`` it started.  Being in another session, it does
    not see the terminal's Ctrl-C, so an interrupt kills it too.
    """
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "runner.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, start_new_session=True,
    )
    _LIVE.add(proc)
    try:
        if read_line(proc.stdout, CHILD_TIMEOUT_S) != "ready":
            raise RuntimeError("runner did not report ready")
        ready = time.perf_counter()
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        _kill(proc)
        raise
    finally:
        _LIVE.discard(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"runner {' '.join(args[:2])} exited with {proc.returncode}")
    return spawned, ready


@contextmanager
def host_probe(path: Path, cpu: int, env: dict[str, str]) -> t.Iterator[None]:
    """Run ``probe.py`` on ``cpu`` for the duration of the block."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(path), str(cpu)],
        env=env, start_new_session=True,
    )
    _LIVE.add(proc)
    try:
        time.sleep(2 * probe.PAD_S)
        yield
        time.sleep(probe.PAD_S)
    finally:
        proc.terminate()
        proc.wait(timeout=CHILD_TIMEOUT_S)
        _LIVE.discard(proc)


def child_env(run_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_LOG_PATH", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    tmp = run_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    # Steadier timings: no hash randomisation, no BLAS thread spinning.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
    run_dir: Path, cpu: int, load_cpu: int,
) -> dict[str, t.Any]:
    """Run one workload's children and return their raw measurements.

    The caller runs on ``cpu``, and so do the children and ``repro
    serve``; the probe shares it, and the service load generator moves to
    ``load_cpu``.
    """
    env = child_env(run_dir)
    min_passes = 2 if smoke or trace else MIN_PASSES[workload]
    base = ["--workload", workload, "--seed", str(seed), "--min-passes", str(min_passes)]
    base += ["--smoke"] if smoke else []
    base += ["--load-cpu", str(load_cpu)] if workload in SERVICE_WORKLOADS else []

    def child(tag: str, *extra: str) -> tuple[tuple[float, float], dict[str, t.Any]]:
        out = run_dir / f"{tag}.json"
        window = run_child(
            base + ["--dir", str(run_dir / tag), "--out", str(out), *extra], env
        )
        return window, json.loads(out.read_text())

    samples = run_dir / "probe.txt"
    with host_probe(samples, cpu, env):
        if trace:
            RUNS.joinpath("traces").mkdir(parents=True, exist_ok=True)
            chrome = RUNS / "traces" / f"{workload}-seed{seed}.trace.json"
            _, plain = child("plain", "--seconds", str(seconds / 2))
            _, traced = child("traced", "--trace", "--seconds", str(seconds / 2),
                              "--chrome", str(chrome))
            runs = {"plain": plain, "traced": traced, "chrome": str(chrome)}
        else:
            setups = [
                run_child(base + ["--setup-only", "--dir", str(run_dir / f"setup-{k}")], env)
                for k in range(0 if workload in SERVICE_WORKLOADS else SETUP_REPEATS - 1)
            ]
            window, plain = child("plain", "--seconds", str(seconds))
            if workload not in SERVICE_WORKLOADS:
                plain["setup_windows"] = setups + [window]
            runs = {"plain": plain}
    runs["speed"] = probe.HostSpeed.read(samples)
    return runs


# -- metrics ---------------------------------------------------------------------
def _median(values: t.Iterable[float]) -> float:
    return statistics.median(list(values))


def _pass_factor(p: dict[str, t.Any], speed: probe.HostSpeed) -> float:
    """Reference seconds per CPU second over a pass."""
    return speed.factor(p["start"], p["start"] + p["wall_s"])


def _pass_scale(p: dict[str, t.Any], speed: probe.HostSpeed) -> float:
    """Reference seconds per wall second over a pass."""
    return speed.seconds(p["start"], p["wall_s"]) / p["wall_s"]


def ops_per_s(passes: list[dict[str, t.Any]], speed: probe.HostSpeed) -> float:
    return _median(p["ops"] / speed.seconds(p["start"], p["wall_s"]) for p in passes)


def end_to_end(
    workload: str, data: dict[str, t.Any], speed: probe.HostSpeed
) -> dict[str, float | None]:
    passes = data["passes"]
    latencies = [
        speed.seconds(start, seconds) * 1e3
        for p in passes for start, seconds in p["latencies"]
    ]
    if workload in SERVICE_WORKLOADS:
        setups = [p["setup_window"] for p in passes]
        rss = _median(p["peak_rss_mb"] for p in passes)
    else:
        setups = data["setup_windows"]
        rss = data["peak_rss_mb"]
    return {
        "setup_s": _median(speed.seconds(a, b - a) for a, b in setups),
        "ops_per_s": ops_per_s(passes, speed),
        "cpu_ms_per_op": _median(
            p["cpu_s"] * _pass_factor(p, speed) * 1e3 / p["ops"] for p in passes
        ),
        "peak_rss_mb": rss,
        "latency_tail_ms": _or_none(tail_mean, latencies, TAIL_PERCENTILE[workload]),
        # Printed, not bounded (see README.md).
        "latency_pct_ms": _or_none(percentile, latencies, TAIL_PERCENTILE[workload]),
        "latency_p50_ms": _or_none(percentile, latencies, 50.0),
    }


def per_layer(
    traced: dict[str, t.Any], plain: dict[str, t.Any], speed: probe.HostSpeed
) -> dict[str, float | None]:
    """Per-pass means of the traced run's layer numbers, in reference time."""
    passes = traced["passes"]
    count = len(passes)
    service = "scrapes" in passes[0]

    def mean(fn: t.Callable[[dict[str, t.Any]], float]) -> float:
        return sum(fn(p) for p in passes) / count

    def breakdowns(p: dict[str, t.Any]) -> list[dict[str, t.Any]]:
        return [p["breakdown"]] + ([p["server"]["breakdown"]] if "server" in p else [])

    def self_s(layer: str) -> t.Callable[[dict[str, t.Any]], float]:
        return lambda p: _pass_scale(p, speed) * sum(
            b["self_s"].get(layer, 0.0) for b in breakdowns(p)
        )

    def calls(layer: str) -> t.Callable[[dict[str, t.Any]], float]:
        return lambda p: sum(b["calls"].get(layer, 0) for b in breakdowns(p))

    def datacache(p: dict[str, t.Any]) -> dict[str, int]:
        return p["server"]["datacache"] if "server" in p else p["datacache"]

    def status(p: dict[str, t.Any], name: str) -> int:
        return p["statuses"].get(name, 0)

    def pooled(key: str, pct: float) -> float | None:
        if not service:
            return 0.0
        values = [x * _pass_scale(p, speed) for p in passes for x in p[key]]
        return _or_none(percentile, values, pct)

    metrics: dict[str, float | None] = {
        name: mean(self_s(layer)) for name, layer in SELF_TIME_LAYERS.items()
    }
    submits = sum(calls("service.submit")(p) for p in passes)
    metrics.update(
        {
            "workloads.datacache_hits": mean(lambda p: datacache(p)["hits"]),
            "workloads.datacache_misses": mean(lambda p: datacache(p)["misses"]),
            "memory.calls": mean(calls("memory.model")),
            "python.gc_collections": mean(calls("python.gc")),
            "trace.replay_frac": mean(lambda p: status(p, "replayed") / p["ops"]),
            "service.submit_ms": (
                sum(self_s("service.submit")(p) for p in passes) * 1e3 / submits
                if submits else 0.0
            ),
            "service.queue_wait_p50_ms": pooled("queue_wait_ms", 50.0),
            "service.queue_wait_p90_ms": pooled("queue_wait_ms", 90.0),
            "service.exec_p50_ms": pooled("exec_ms", 50.0),
            "service.exec_p90_ms": pooled("exec_ms", 90.0),
            "service.protocol_p50_ms": pooled("protocol_ms", 50.0),
            "service.dedup_frac": mean(
                lambda p: (status(p, "cached") + status(p, "coalesced")) / p["ops"]
            ) if service else 0.0,
            "service.held_jobs": mean(lambda p: p.get("held_jobs", 0)),
            "spark.task_failures": mean(lambda p: p["mitigation"]["task_failures"]),
            "spark.speculative_launched": mean(
                lambda p: p["mitigation"]["speculative_launched"]
            ),
            "harness.pass_wall_s": mean(
                lambda p: p["breakdown"]["wall_s"] * _pass_scale(p, speed)
            ),
            "harness.accounting_error": max(
                b["max_deviation"] for p in passes for b in breakdowns(p)
            ),
            "trace_overhead_frac": (
                ops_per_s(passes, speed) / ops_per_s(plain["passes"], speed) - 1.0
            ),
        }
    )
    for name in ("cached", "coalesced", "replayed", "captured", "executed"):
        metrics[f"service.status.{name}"] = (
            mean(lambda p: status(p, name)) if service else 0.0
        )
    return metrics


def failures(
    workload: str, seed: int, smoke: bool, runs: dict[str, t.Any]
) -> tuple[int, int, dict[str, t.Any], list[str]]:
    """(attempted, failed, facts, problems) over every child of a run.

    A pass whose outputs mismatch counts all its ops as failed.
    """
    committed = None
    if seed == 0 or workload in SEED_FREE_RESULTS:
        table = json.loads(DIGESTS.read_text())
        committed = table["smoke" if smoke else "full"].get(workload)
    reference = committed or runs["plain"]["passes"][0]["digest"]
    attempted = failed = 0
    scrapes = {"ok": 0, "failed": 0}
    problems: list[str] = []
    digests: dict[str, list[str]] = {}
    for tag in ("plain", "traced"):
        for index, p in enumerate(runs.get(tag, {}).get("passes", ())):
            digests.setdefault(tag, []).append(p["digest"])
            bad = list(p["mismatches"])
            if p["digest"] != reference:
                bad.append(f"digest {p['digest'][:16]} != {reference[:16]}")
            for b in (p.get("breakdown"), p.get("server", {}).get("breakdown")):
                if b is not None and b["max_deviation"] > ACCOUNTING_TOLERANCE:
                    bad.append(f"layer times off wall time by {b['max_deviation']:.1%}")
            problems += [f"{tag} pass {index}: {m}" for m in bad + p["errors"]]
            attempted += p["ops"]
            failed += p["ops"] if bad else p["failed_ops"]
            for key in scrapes:
                scrapes[key] += p.get("scrapes", {}).get(key, 0)
    tried = scrapes["ok"] + scrapes["failed"]
    facts = {
        "fail_frac": failed / attempted,
        "scrape_fail_frac": scrapes["failed"] / tried if tried else 0.0,
        "scrapes": tried,
        "digests": digests,
        "digest_committed": committed is not None,
    }
    return attempted, failed, facts, problems


def evaluate(
    workload: str, seed: int, trace: bool, smoke: bool, runs: dict[str, t.Any]
) -> dict[str, t.Any]:
    attempted, failed, facts, problems = failures(workload, seed, smoke, runs)
    plain = runs["plain"]
    if trace:
        values = per_layer(runs["traced"], plain, runs["speed"])
        values["fail_frac"] = facts["fail_frac"]
        values["scrape_fail_frac"] = facts["scrape_fail_frac"]
        units = PER_LAYER
    else:
        values = end_to_end(workload, plain, runs["speed"])
        for name in ("latency_pct_ms", "latency_p50_ms"):
            facts[name] = values[name]
        facts["unscaled"] = end_to_end(workload, plain, probe.Unscaled())
        units = END_TO_END
    samples = sum(len(p["latencies"]) for p in plain["passes"])
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "facts": {
            **facts,
            "passes": len(plain["passes"]),
            "latency_samples": samples,
            "latency_tail_percentile": TAIL_PERCENTILE[workload],
            **({"chrome_trace": runs["chrome"]} if trace else {}),
        },
        "problems": problems,
    }


# -- reporting -------------------------------------------------------------------
def host_fingerprint() -> dict[str, t.Any]:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def commit() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def print_report(workload: str, seed: int, report: dict[str, t.Any]) -> None:
    facts = report["facts"]
    print(f"# {workload} seed={seed} passes={facts['passes']} "
          f"ops={report['attempted']} failed={report['failed']}")
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {metric['unit']}")
    if "unscaled" in facts:
        print("# as measured in host seconds: " + ", ".join(
            f"{name} {value:.6g}" for name, value in facts["unscaled"].items()
            if value is not None
        ))
        pct = f"p{facts['latency_tail_percentile']:g}"
        print(f"# latency samples {facts['latency_samples']}, "
              f"tail = mean from {pct} up, "
              f"{pct} = {facts['latency_pct_ms'] or float('nan'):.6g} ms, "
              f"p50 = {facts['latency_p50_ms'] or float('nan'):.6g} ms")
        print(f"fail_frac {facts['fail_frac']:.6g} ratio")
        if workload in SERVICE_WORKLOADS:
            print(f"scrape_fail_frac {facts['scrape_fail_frac']:.6g} ratio "
                  f"({facts['scrapes']} scrapes)")
    if "chrome_trace" in facts:
        print(f"# spans written to {facts['chrome_trace']}")
    for problem in report["problems"]:
        print(f"# MISMATCH {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
        epilog="See benchmarks/perf/README.md for the workloads and metrics.",
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per workload (default 15)")
    # Takes an optional 0/1 so that callers can pass ``--trace 0``
    # explicitly; a bare ``--trace`` means 1.
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics from a traced run")
    parser.add_argument("--json", metavar="OUT", help="also write every result here")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs for the self-tests")
    parser.add_argument("--history", action="store_true",
                        help="append this run set to history.jsonl")
    args = parser.parse_args(argv)
    if args.history and args.trace:
        parser.error("--history records end-to-end metrics; drop --trace")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _kill_live)
    # Everything measured runs on the first CPU, so that the probe, which
    # shares it, sees the steal time and CPU speed the workload sees.  The
    # service load generator gets the last CPU (with one CPU, the first).
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    workloads = args.workload or list(WORKLOADS)
    RUNS.mkdir(exist_ok=True)
    reports: dict[str, dict[str, t.Any]] = {}
    for workload in workloads:
        run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
        try:
            runs = measure(workload, args.seed, args.seconds, bool(args.trace),
                           args.smoke, run_dir, cpus[0], cpus[-1])
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        reports[workload] = evaluate(workload, args.seed, bool(args.trace), args.smoke, runs)
        print_report(workload, args.seed, reports[workload])

    correct = all(r["correct"] for r in reports.values())
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "smoke": args.smoke, "host": host_fingerprint(), "workloads": reports},
            indent=1,
        ))
    if args.history:
        row = {
            "commit": commit(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host": host_fingerprint(),
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {
                w: {n: m["value"] for n, m in r["metrics"].items()}
                for w, r in reports.items()
            },
        }
        with HISTORY.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")
    if len(reports) == 1:
        (report,) = reports.values()
        metrics = report["metrics"]
    else:
        metrics = {
            f"{w}/{name}": metric
            for w, r in reports.items() for name, metric in r["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
