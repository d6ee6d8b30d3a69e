#!/usr/bin/env python
"""The live monitoring plane: scrape, correlate, post-mortem.

One script exercises every surface a production operator would touch
(docs/OBSERVABILITY.md, "Live monitoring"):

- an :class:`~repro.service.ExperimentService` runs a small mixed
  workload while its registry fills with counters, gauges, and
  streaming **quantile sketches** (p50/p90/p99 with bounded memory);
- the registry renders as **Prometheus text exposition** — the exact
  bytes the HTTP ``/metrics`` listener and the JSON-lines ``metrics``
  op serve — and is re-validated with the strict parser;
- per-tier **labelled device counters** (``device.media_reads{tier=...,
  device=...}``) appear from the jobs' telemetry, so one scrape
  distinguishes DRAM from Optane traffic;
- a **structured JSON log** correlates every line with its job id;
- an injected failure triggers the **flight recorder**: the failed
  job's recent events + a metrics snapshot + the log tail land in one
  loadable post-mortem artifact;
- the same scrape drives :func:`repro.obs.format_top` — one frame of
  the ``repro top`` dashboard, no terminal required.

Run:  python examples/live_monitoring.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro import RunOptions, api
from repro.obs import format_top, load_flight_dump, parse_prometheus, read_log
from repro.obs.log import configure
from repro.service import ExperimentService

POINTS = [
    api.config("sort", size="tiny", tier=tier) for tier in (0, 2)
] + [api.config("pagerank", size="tiny", tier=1)]


def boom(config, trace_root, obs_dir, dataset_root):
    raise RuntimeError("injected failure for the flight recorder")


async def monitored_session(workdir: Path):
    configure(workdir / "service-log.jsonl")

    # A healthy service running real points...
    service = ExperimentService(
        RunOptions(reuse_traces=False), heartbeat=0, flight_dir=workdir
    )
    async with service:
        for point in POINTS:
            await service.run(point, client="demo")
        scrape = service.render_prometheus()
        frame = format_top(
            service.summary(),
            service.flat_summary(),
            clients=service.client_inflight(),
        )

    # ...and one with an injected failure, to trip the flight recorder.
    faulty = ExperimentService(
        RunOptions(reuse_traces=False),
        heartbeat=0,
        execute=boom,
        flight_dir=workdir,
    )
    async with faulty:
        job = await faulty.submit(POINTS[0], client="demo")
        try:
            await job.result()
        except RuntimeError:
            pass
    return scrape, frame, job


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-live-") as tmp:
        workdir = Path(tmp)
        scrape, frame, failed_job = asyncio.run(monitored_session(workdir))

        series = parse_prometheus(scrape)  # strict: raises if malformed
        print(f"scrape parses: {len(series)} series, all well-formed")
        tiers = sorted(
            {
                pair.split("=", 1)[1].strip('"')
                for name, labels in series
                if name == "repro_device_media_reads_total"
                for pair in labels.split(",")
                if pair.startswith("tier=")
            }
        )
        print(f"per-tier device series for tiers: {', '.join(tiers)}")
        p50 = next(
            value
            for (name, labels), value in series.items()
            if name == "repro_jobs_execution_time_s_bucket"
        )
        assert p50 >= 0.0

        print()
        print(frame)
        print()

        log_records = read_log(workdir / "service-log.jsonl")
        job_ids = {r.get("job") for r in log_records if "job" in r}
        print(
            f"structured log: {len(log_records)} records correlating "
            f"{len(job_ids)} jobs"
        )

        dump = load_flight_dump(workdir / f"flight-job-{failed_job.id}.json")
        kinds = [event["event"] for event in dump["events"]]
        print(
            f"flight recorder: job {failed_job.id} failed "
            f"({dump['reason']}); post-mortem holds {kinds} "
            f"+ metrics snapshot + {len(dump['log_tail'])} log lines"
        )
        configure(None)


if __name__ == "__main__":
    main()
