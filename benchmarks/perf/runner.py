"""Run one benchmark workload in this (fresh) interpreter.

``bench.py`` starts this script once per workload and times it from
spawn to the ``ready`` line it prints after set-up: imports, the exact-
kernel self-check and one untimed tiny point (plus, for ``fig3-warm``,
the trace captures).  It then runs passes until ``--seconds`` have gone
by and at least ``--min-passes`` are done, and writes every raw
measurement to ``--out`` as JSON.

Each campaign pass starts as a new interpreter would, with no memoised
datasets and no decoded traces; the service workloads start a new
``repro serve`` per pass.  After each pass, outside the timed region, every
result is checked ``verified``, hashed, and two points are re-simulated
with ``run_experiment`` and must match exactly.

With ``--trace`` the layer wrappers of :mod:`layers` are installed after
the imports; the service workloads then start their servers through
``serve_traced.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import typing as t
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import inputs
import layers
from bench import SERVICE_WORKLOADS, WORKLOADS
from procs import proc_cpu_s, read_line, reap
from repro import api
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.options import RunOptions
from repro.runner.hashing import config_hash
from repro.service import ServiceClient, ServiceError
from repro.trace import store as trace_store
from repro.workloads import datacache, datagen
from repro.workloads._exact import replicas_match

HERE = Path(__file__).resolve().parent

#: Seconds a ``repro serve`` may take to print its address or to exit.
SERVER_TIMEOUT_S = 60.0


def fresh_process_caches() -> None:
    """Drop what a new interpreter would not have: datagen's memo, the
    decoded-dataset LRU and the decoded-trace LRU."""
    datagen.clear_cache()
    trace_store._LOAD_CACHE.clear()


def digest(rows: dict[str, dict]) -> str:
    """sha256 over ``result_to_dict`` rows sorted by config hash."""
    ordered = [rows[key] for key in sorted(rows)]
    return hashlib.sha256(
        json.dumps(ordered, sort_keys=True).encode()
    ).hexdigest()


def check_results(
    pairs: list[tuple[ExperimentConfig, ExperimentResult]],
    seed: int,
    pass_index: int,
) -> tuple[str, list[str]]:
    """Digest of a pass's results and every mismatch found."""
    errors: list[str] = []
    rows: dict[str, dict] = {}
    for config, result in pairs:
        if not result.verified:
            errors.append(f"{config.describe()}: result not verified")
        key = config_hash(config)
        row = result_to_dict(result)
        if rows.setdefault(key, row) != row:
            errors.append(f"{config.describe()}: repeated config, other result")
    by_key = {config_hash(c): c for c, _ in pairs}
    picks = inputs.verify_picks(sorted(by_key), seed, pass_index)
    for key in picks:
        if result_to_dict(run_experiment(by_key[key])) != rows[key]:
            errors.append(f"{by_key[key].describe()}: differs from run_experiment")
    return digest(rows), errors


def mitigation(pairs: list[tuple[ExperimentConfig, ExperimentResult]]) -> dict[str, float]:
    unique = {config_hash(c): r for c, r in pairs}
    return {
        key: sum(r.mitigation.get(key, 0.0) for r in unique.values())
        for key in ("task_failures", "speculative_launched")
    }


# -- campaigns -----------------------------------------------------------------
class Campaign:
    """One of the three ``repro.api.campaign`` workloads."""

    def __init__(self, workload: str, seed: int, smoke: bool, work_dir: Path) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.options: RunOptions | None = None
        self.captures: list[ExperimentConfig] = []
        if workload == "fig2-cold":
            self.configs = inputs.fig2_grid(seed, smoke)
        elif workload == "fig3-warm":
            self.configs = inputs.fig3_grid(seed, smoke)
            self.captures = inputs.fig3_captures(smoke)
            self.options = RunOptions(
                trace_dir=work_dir / "traces", dataset_dir=work_dir / "datasets"
            )
        else:
            self.configs = inputs.faults_grid(seed, smoke)
            self.options = RunOptions()

    def set_up(self) -> None:
        if self.captures:
            api.campaign(self.captures, options=self.options).raise_on_failure()

    def run_pass(
        self, index: int, recorder: layers.Recorder | None
    ) -> dict[str, t.Any]:
        options = self.options
        cache_dir = None
        if options is None:
            # A user's first run: fresh result-cache, trace and dataset dirs.
            cache_dir = self.work_dir / f"cache-{index}"
            options = RunOptions(cache_dir=cache_dir)
        fresh_process_caches()
        stamps: list[float] = []
        stats = datacache.stats()
        with recorder.span(layers.HARNESS, "pass") if recorder else nullcontext():
            cpu0 = time.process_time()
            start = time.perf_counter()
            report = api.campaign(
                self.configs,
                options=options,
                progress=lambda _: stamps.append(time.perf_counter()),
            )
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
        after = datacache.stats()
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        pairs = [(p.config, p.result) for p in report.points if p.result is not None]
        errors = [f"{p.config.describe()}: {p.error}" for p in report.failures]
        return {
            "start": start,
            "wall_s": wall,
            "cpu_s": cpu,
            "ops": len(report.points),
            "failed_ops": len(report.failures),
            # The runner reports progress once before the first point.
            "latencies": [[a, b - a] for a, b in zip(stamps, stamps[1:])],
            "statuses": dict(Counter(p.status for p in report.points)),
            "mitigation": mitigation(pairs),
            "datacache": {k: after[k] - stats[k] for k in ("hits", "misses")},
            "pairs": pairs,
            "errors": errors,
        }


# -- service ---------------------------------------------------------------------
async def _client_loop(
    host: str,
    port: int,
    name: str,
    requests: list[ExperimentConfig | None],
    jobs: list[dict[str, t.Any]],
    scrapes: Counter,
) -> None:
    client = await ServiceClient(host, port, client=name).connect()
    try:
        for config in requests:
            if config is None:
                try:
                    await client.metrics()
                    scrapes["ok"] += 1
                except (ValueError, ServiceError):
                    # An oversized reply leaves the stream mid-line, so
                    # the connection is replaced, as `repro top` would.
                    scrapes["failed"] += 1
                    await client.close()
                    client = await ServiceClient(host, port, client=name).connect()
                continue
            job: dict[str, t.Any] = {"config": config, "held": False}

            def on_event(event: dict[str, t.Any], job: dict = job) -> None:
                kind = event.get("event")
                if kind == "started":
                    job["queue_wait_s"] = event["queue_wait_s"]
                elif kind == "progress" and event.get("phase") == "awaiting-capture":
                    job["held"] = True
                elif kind == "done":
                    job["status"] = event["status"]
                    job["server_latency_s"] = event["latency_s"]

            job["start"] = time.perf_counter()
            try:
                job["result"] = await client.run(config, on_event=on_event)
            except ServiceError as exc:
                job["error"] = f"{type(exc).__name__}: {exc}"
            job["latency_s"] = time.perf_counter() - job["start"]
            jobs.append(job)
    finally:
        await client.close()


async def _drive(
    host: str, port: int, streams: list[list[ExperimentConfig | None]], pid: int
) -> tuple[float, float, float, list[dict[str, t.Any]], Counter]:
    jobs: list[dict[str, t.Any]] = []
    scrapes: Counter = Counter()
    cpu0 = proc_cpu_s(pid)
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _client_loop(host, port, f"client-{i}", requests, jobs, scrapes)
            for i, requests in enumerate(streams)
        )
    )
    wall = time.perf_counter() - start
    cpu = proc_cpu_s(pid) - cpu0
    async with ServiceClient(host, port, client="bench") as client:
        await client.shutdown_server()
    return start, wall, cpu, jobs, scrapes


class Service:
    """A service workload: a fresh ``repro serve`` per pass, two clients."""

    def __init__(
        self, workload: str, seed: int, smoke: bool, work_dir: Path, traced: bool
    ) -> None:
        self.streams = inputs.job_stream(workload, seed, smoke)
        self.work_dir = work_dir
        self.traced = traced
        #: The servers keep the CPUs this process started with.
        self.server_cpus = os.sched_getaffinity(0)
        self.server_snapshots: list[dict[str, t.Any]] = []

    def set_up(self) -> None:
        pass

    def run_pass(
        self, index: int, recorder: layers.Recorder | None
    ) -> dict[str, t.Any]:
        cache_dir = self.work_dir / f"serve-{index}"
        spans_file = self.work_dir / f"serve-{index}.spans.json"
        serve_args = ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        if self.traced:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), "--spans", str(spans_file)]
        else:
            cmd = [sys.executable, "-m", "repro"]
        with open(self.work_dir / f"serve-{index}.log", "wb") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                cmd + serve_args, stdout=subprocess.PIPE, stderr=log,
                preexec_fn=lambda: os.sched_setaffinity(0, self.server_cpus),
            )
            try:
                line = read_line(proc.stdout, SERVER_TIMEOUT_S)
                setup = time.perf_counter() - spawned
                host, _, port = line.removeprefix("serving on ").rpartition(":")
                begin = time.perf_counter()
                with recorder.span(layers.HARNESS, "pass") if recorder else nullcontext():
                    start, wall, cpu, jobs, scrapes = asyncio.run(
                        _drive(host, int(port), self.streams, proc.pid)
                    )
                window = (begin, time.perf_counter())
                usage = reap(proc, SERVER_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"repro serve exited with {proc.returncode}")
        shutil.rmtree(cache_dir)
        result: dict[str, t.Any] = {}
        if self.traced:
            server = json.loads(spans_file.read_text())
            spans_file.unlink()
            self.server_snapshots.append(server["snapshot"])
            # perf_counter is CLOCK_MONOTONIC, shared by both processes.
            result["server"] = {
                "breakdown": layers.breakdown(server["snapshot"], window),
                "datacache": server["datacache"],
            }
        pairs = [(j["config"], j["result"]) for j in jobs if "result" in j]
        started = [j for j in jobs if "queue_wait_s" in j and "result" in j]
        result.update(
            {
                "start": start,
                "wall_s": wall,
                "cpu_s": cpu,
                "setup_window": [spawned, spawned + setup],
                "peak_rss_mb": usage.ru_maxrss / 1024,
                "ops": len(jobs),
                "failed_ops": sum("error" in j for j in jobs),
                "latencies": [[j["start"], j["latency_s"]] for j in jobs],
                "queue_wait_ms": [j["queue_wait_s"] * 1e3 for j in started],
                "exec_ms": [(j["server_latency_s"] - j["queue_wait_s"]) * 1e3 for j in started],
                "protocol_ms": [
                    (j["latency_s"] - j["server_latency_s"]) * 1e3
                    for j in jobs if "result" in j
                ],
                "statuses": dict(Counter(j.get("status", "failed") for j in jobs)),
                "held_jobs": sum(j["held"] for j in jobs),
                "scrapes": {"ok": scrapes["ok"], "failed": scrapes["failed"]},
                "mitigation": mitigation(pairs),
                "pairs": pairs,
                "errors": [f"{j['config'].describe()}: {j['error']}" for j in jobs if "error" in j],
            }
        )
        return result


# -- main --------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--dir", required=True, help="scratch directory (created)")
    parser.add_argument("--out", help="write measurements here as JSON")
    parser.add_argument("--chrome", help="traced runs: write spans here")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--load-cpu", type=int,
                        help="service workloads: run the clients on this CPU")
    args = parser.parse_args(argv)

    work_dir = Path(args.dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = layers.Recorder().install() if args.trace else None
    if args.workload in SERVICE_WORKLOADS:
        workload: Campaign | Service = Service(
            args.workload, args.seed, args.smoke, work_dir, args.trace
        )
        if args.load_cpu is not None:
            os.sched_setaffinity(0, {args.load_cpu})
    else:
        workload = Campaign(args.workload, args.seed, args.smoke, work_dir)
    replicas_match()
    api.run("sort", size="tiny")
    workload.set_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    begin = time.perf_counter()
    passes: list[dict[str, t.Any]] = []
    while len(passes) < args.min_passes or time.perf_counter() - begin < args.seconds:
        index = len(passes)
        outcome = workload.run_pass(index, recorder)
        outcome["digest"], outcome["mismatches"] = check_results(
            outcome.pop("pairs"), args.seed, index
        )
        passes.append(outcome)

    if recorder is not None:
        recorder.uninstall()
        snapshot = recorder.snapshot()
        windows = layers.pass_windows(snapshot, "pass")
        for outcome, window in zip(passes, windows):
            outcome["breakdown"] = layers.breakdown(snapshot, window)
        if args.chrome:
            snapshots = [snapshot] + getattr(workload, "server_snapshots", [])
            layers.write_chrome_trace(snapshots, args.chrome)
    if args.out:
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passes": passes,
        }
        Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
