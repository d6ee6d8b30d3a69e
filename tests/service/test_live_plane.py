"""The live monitoring plane end to end.

Covers the ``metrics`` protocol op, the plain-HTTP ``/metrics``
listener, structured-log correlation through job dispatch, flight
recorder post-mortems on failure/cancellation, event-stream
backpressure accounting, graceful signal-driven drain, and the
``repro top`` renderer.
"""

import asyncio
import json
import os
import signal

import pytest

from repro import api
from repro.obs import (
    format_top,
    load_flight_dump,
    parse_prometheus,
)
from repro.obs.log import reset as reset_log
from repro.options import RunOptions
from repro.service import (
    ExperimentService,
    ServiceClient,
    ServiceServer,
    serve,
)

TINY = api.config("sort", size="tiny", tier=1)


@pytest.fixture(autouse=True)
def _fresh_global_log(monkeypatch):
    monkeypatch.delenv("REPRO_LOG_PATH", raising=False)
    reset_log()
    yield
    reset_log()


def make_server(**service_kwargs) -> ServiceServer:
    service_kwargs.setdefault("heartbeat", 0)
    options = service_kwargs.pop("options", RunOptions(reuse_traces=False))
    metrics_port = service_kwargs.pop("metrics_port", None)
    return ServiceServer(
        ExperimentService(options, **service_kwargs),
        metrics_port=metrics_port,
    )


def test_metrics_op_serves_parseable_exposition_with_tier_labels():
    async def go():
        server = make_server()
        host, port = await server.start()
        async with ServiceClient(host, port, client="scraper") as client:
            await client.run(TINY)
            scrape = await client.metrics()
        await server.close()
        return scrape

    scrape = asyncio.run(go())
    assert scrape["ok"] is True
    series = parse_prometheus(scrape["prometheus"])
    assert series[("repro_service_submitted_total", "")] == 1.0
    assert series[("repro_service_completed_total", "")] == 1.0
    # Per-tier device counters, labelled by tier/socket/workload/device.
    device_series = [
        key
        for key in series
        if key[0] == "repro_device_media_reads_total" and 'tier="1"' in key[1]
    ]
    assert device_series, "expected at least one labelled per-tier series"
    assert 'workload="sort"' in device_series[0][1]
    # Latency histogram renders as a native Prometheus histogram.
    assert series[("repro_jobs_execution_time_s_count", "")] == 1.0
    # Flat summary carries streaming quantiles for the dashboard.
    assert scrape["summary"]["service.submitted"] == 1.0
    assert "service.latency_s.p50" in scrape["summary"]
    assert scrape["clients"] == {}


def test_replies_past_the_default_line_limit_keep_the_connection_usable():
    """A busy server's ``metrics``/``status`` replies outgrow asyncio's
    64 KiB default line limit; the client must still read them whole and
    stay in step for the next request on the same connection."""
    configs = [
        api.config(workload, size="tiny", tier=tier)
        for workload in ("sort", "repartition", "wordcount", "bayes")
        for tier in range(4)
    ]

    async def go():
        server = make_server()
        host, port = await server.start()
        async with ServiceClient(host, port, client="scraper") as client:
            for config in configs:
                await client.run(config)
            scrape = await client.metrics()
            status = await client.status()
            result = await client.run(TINY.with_options(mba_percent=50))
        await server.close()
        return scrape, status, result

    scrape, status, result = asyncio.run(go())
    for reply in (scrape, status):
        assert reply["ok"] is True
        assert len(json.dumps(reply)) > 64 * 1024
    assert scrape["summary"]["service.completed"] == len(configs)
    assert status["summary"]["completed"] == len(configs)
    assert result.verified and result.execution_time > 0


def test_http_metrics_listener_end_to_end():
    async def http_get(host, port, path):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.decode().partition("\r\n\r\n")
        return head, body

    async def go():
        server = make_server(metrics_port=0)
        host, port = await server.start()
        assert server.metrics_address is not None
        mhost, mport = server.metrics_address
        assert mport != port
        async with ServiceClient(host, port) as client:
            await client.run(TINY)
        scraped_head, scraped = await http_get(mhost, mport, "/metrics")
        health_head, health = await http_get(mhost, mport, "/healthz")
        missing_head, _ = await http_get(mhost, mport, "/nope")
        await server.close()
        return scraped_head, scraped, health_head, health, missing_head

    scraped_head, scraped, health_head, health, missing_head = asyncio.run(go())
    assert "200" in scraped_head.splitlines()[0]
    assert "version=0.0.4" in scraped_head
    series = parse_prometheus(scraped)
    assert series[("repro_service_completed_total", "")] == 1.0
    assert "200" in health_head.splitlines()[0] and health == "ok\n"
    assert "404" in missing_head.splitlines()[0]


def test_failed_job_dumps_reconcilable_flight_artifact(tmp_path):
    def explode(config, trace_root, obs_dir, dataset_root):
        raise RuntimeError("kaboom")

    async def go():
        service = ExperimentService(
            RunOptions(reuse_traces=False),
            heartbeat=0,
            execute=explode,
            flight_dir=tmp_path,
        )
        async with service:
            job = await service.submit(TINY, client="victim")
            with pytest.raises(RuntimeError, match="kaboom"):
                await job.result()
        return job

    job = asyncio.run(go())
    path = tmp_path / f"flight-job-{job.id}.json"
    assert path.exists()
    payload = load_flight_dump(path)
    assert payload["reason"] == "failed"
    assert payload["label"] == TINY.describe()
    # The dump's ring reconciles with the job's own event stream.
    assert payload["events"] == [e.to_dict() for e in job.event_log]
    assert [e["event"] for e in payload["events"]][-1] == "failed"
    # Context rides along: a metrics snapshot and the log tail.
    assert payload["metrics"]["counters"]["service.failed"] == 1.0
    tail_events = [rec["event"] for rec in payload["log_tail"]]
    assert "job.failed" in tail_events
    failed_line = next(
        rec for rec in payload["log_tail"] if rec["event"] == "job.failed"
    )
    assert failed_line["job"] == job.id
    assert failed_line["client"] == "victim"
    assert failed_line["level"] == "error"


def test_failed_job_dump_includes_its_span_when_observing(tmp_path):
    def explode(config, trace_root, obs_dir, dataset_root):
        raise RuntimeError("kaboom")

    async def go():
        service = ExperimentService(
            RunOptions(reuse_traces=False, observe=True),
            heartbeat=0,
            execute=explode,
            flight_dir=tmp_path,
        )
        async with service:
            job = await service.submit(TINY)
            with pytest.raises(RuntimeError):
                await job.result()
        return job

    job = asyncio.run(go())
    payload = load_flight_dump(tmp_path / f"flight-job-{job.id}.json")
    names = [span["name"] for span in payload["spans"]]
    assert TINY.describe() in names


def test_successful_job_leaves_no_flight_artifact(tmp_path):
    async def go():
        service = ExperimentService(
            RunOptions(reuse_traces=False), heartbeat=0, flight_dir=tmp_path
        )
        async with service:
            await service.run(TINY)
            return service.flight.keys

    keys = asyncio.run(go())
    assert keys == []  # done jobs discard their ring
    assert list(tmp_path.glob("flight-*.json")) == []


def test_cancelled_job_dumps_flight_artifact(tmp_path):
    import threading

    gate = threading.Event()

    def blocked(config, trace_root, obs_dir, dataset_root):
        from repro.core.experiment import run_experiment

        gate.wait(timeout=30)
        return run_experiment(config), "executed"

    async def go():
        service = ExperimentService(
            RunOptions(reuse_traces=False),
            heartbeat=0,
            execute=blocked,
            flight_dir=tmp_path,
        )
        async with service:
            running = await service.submit(TINY)
            await asyncio.sleep(0.05)
            queued = await service.submit(
                TINY.with_options(mba_percent=50)
            )
            assert queued.cancel()
            gate.set()
            await running.result()
        return queued

    queued = asyncio.run(go())
    payload = load_flight_dump(tmp_path / f"flight-job-{queued.id}.json")
    assert payload["reason"] == "cancelled"
    assert payload["events"][-1]["event"] == "cancelled"


def test_event_history_bounds_drop_only_progress_and_count_drops():
    import threading

    gate = threading.Event()

    def blocked(config, trace_root, obs_dir, dataset_root):
        from repro.core.experiment import run_experiment

        gate.wait(timeout=30)
        return run_experiment(config), "executed"

    async def go():
        service = ExperimentService(
            RunOptions(reuse_traces=False),
            heartbeat=0,
            execute=blocked,
            event_history=8,
        )
        async with service:
            job = await service.submit(TINY)
            await asyncio.sleep(0.05)
            # A slow subscriber: subscribed but never consuming.
            stream = job.events()
            first = await stream.__anext__()
            assert first.kind == "queued"
            for _ in range(30):
                job._emit("progress", phase="spam")
            gate.set()
            await job.result()
            # The stream still terminates at the terminal event even
            # though its queue overflowed mid-run.
            kinds = [first.kind]
            async for event in stream:
                kinds.append(event.kind)
            return service, job, kinds

    service, job, kinds = asyncio.run(go())
    assert len(job.event_log) <= job.history
    log_kinds = [e.kind for e in job.event_log]
    # Lifecycle events survive the trim; only progress spam is evicted.
    assert "queued" in log_kinds and "started" in log_kinds
    assert log_kinds[-1] == "done"
    assert job.events_dropped > 0
    assert kinds[-1] == "done"
    assert (
        service.metrics.counter("service.events_dropped")
        == job.events_dropped
    )
    assert service.summary()["events_dropped"] == job.events_dropped


def test_sigint_drains_gracefully_and_flushes_artifacts(tmp_path):
    """SIGINT mid-run: admissions stop at once, the in-flight job still
    completes, and the final metrics snapshot is flushed on the way out."""
    import threading

    from repro.obs import ObsConfig
    from repro.service import ServiceClosedError

    gate = threading.Event()

    def blocked(config, trace_root, obs_dir, dataset_root):
        from repro.core.experiment import run_experiment

        gate.wait(timeout=30)
        return run_experiment(config), "executed"

    metrics_path = tmp_path / "metrics.json"
    options = RunOptions(
        reuse_traces=False,
        observe=ObsConfig(metrics_path=str(metrics_path)),
    )

    async def go():
        service = ExperimentService(options, heartbeat=0, execute=blocked)
        ready = asyncio.get_running_loop().create_future()
        serve_task = asyncio.ensure_future(
            serve(
                service,
                ready=lambda host, port: ready.set_result((host, port)),
            )
        )
        host, port = await ready
        async with ServiceClient(host, port) as client:
            job_task = asyncio.ensure_future(client.run(TINY))
            await asyncio.sleep(0.1)  # running and holding the slot
            os.kill(os.getpid(), signal.SIGINT)
            await asyncio.sleep(0.05)
            # Draining: new admissions are rejected immediately...
            with pytest.raises(ServiceClosedError):
                await service.submit(TINY.with_options(mba_percent=50))
            # ...but the in-flight job runs to completion.
            gate.set()
            result = await job_task
        await asyncio.wait_for(serve_task, timeout=30)
        return service, result

    service, result = asyncio.run(go())
    assert service.closed
    assert result.execution_time > 0
    # The final snapshot was flushed on the way out.
    from repro.obs import load_metrics_json

    registry = load_metrics_json(metrics_path)
    assert registry.counter("service.completed") == 1.0


def test_request_shutdown_stops_serve_loop():
    async def go():
        server = make_server()
        await server.start()
        serve_task = asyncio.ensure_future(server.serve_until_shutdown())
        await asyncio.sleep(0.05)
        server.request_shutdown()
        await asyncio.wait_for(serve_task, timeout=10)
        return server.service

    service = asyncio.run(go())
    assert service.closed


def test_format_top_renders_the_scrape():
    status = {"queued": 0, "running": 0}
    summary = {
        "service.queue_depth": 2.0,
        "service.running": 1.0,
        "service.submitted": 10.0,
        "service.completed": 6.0,
        "service.failed": 1.0,
        "service.cancelled": 0.0,
        "service.coalesce_hits": 3.0,
        "service.cache_hits": 2.0,
        "service.rejected": 1.0,
        "service.events_dropped": 4.0,
        "jobs.execution_time_s.p50": 0.5,
        "jobs.execution_time_s.p90": 0.9,
        "jobs.execution_time_s.p99": 1.2,
    }
    frame = format_top(status, summary, clients={"cli": 2, "nb": 1})
    assert "repro top" in frame
    assert "queued=2" in frame and "running=1" in frame
    assert "done=6" in frame and "failed=1" in frame
    assert "coalesced=3" in frame and "(30.0%)" in frame
    assert "rejected=1" in frame
    assert "dropped=4" in frame
    assert "p50=0.5000s" in frame and "p99=1.2000s" in frame
    assert "cli" in frame and "nb" in frame


def test_structured_log_correlates_job_lifecycle(tmp_path):
    from repro.obs.log import configure, get_log
    from repro.obs import read_log

    log_path = tmp_path / "service.jsonl"
    configure(log_path)

    async def go():
        service = ExperimentService(
            RunOptions(reuse_traces=False), heartbeat=0
        )
        async with service:
            job = await service.submit(TINY, client="nb")
            await job.result()
        return job

    job = asyncio.run(go())
    get_log().close()
    configure(None)  # drop the env-exported path for later tests
    records = read_log(log_path)
    job_lines = [r for r in records if r.get("job") == job.id]
    kinds = [r["event"] for r in job_lines]
    assert "job.queued" in kinds
    assert "job.started" in kinds
    assert "job.done" in kinds
    assert all(r["component"] == "service" for r in job_lines)
    assert all(r["client"] == "nb" for r in job_lines)
    shutdown_lines = [r for r in records if r["event"] == "service.shutdown"]
    assert shutdown_lines and shutdown_lines[0]["completed"] == 1.0
