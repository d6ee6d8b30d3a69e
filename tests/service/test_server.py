"""TCP round-trips through ServiceServer/ServiceClient.

Each test binds an ephemeral port, talks the JSON-lines protocol end to
end, and shuts the service down cleanly — the same path ``repro serve``
and ``repro submit`` use.
"""

import asyncio
import json

import pytest

from repro import api
from repro.options import RunOptions
from repro.service import (
    PROTOCOL_VERSION,
    ExperimentService,
    QueueFullError,
    RemoteJobFailed,
    ServiceClient,
    ServiceServer,
)

TINY = api.config("sort", size="tiny", tier=1)


def make_server(**service_kwargs) -> ServiceServer:
    service_kwargs.setdefault("heartbeat", 0)
    options = service_kwargs.pop("options", RunOptions(reuse_traces=False))
    return ServiceServer(ExperimentService(options, **service_kwargs))


def test_submit_round_trip_matches_local_run(tmp_path):
    direct = api.run(TINY)

    async def go():
        server = make_server(options=RunOptions(cache_dir=str(tmp_path)))
        host, port = await server.start()
        events = []
        async with ServiceClient(host, port, client="t") as client:
            hello = await client.hello()
            result = await client.run(TINY, on_event=events.append)
            cached = await client.run(TINY)
            status = await client.status()
        await server.close()
        return hello, events, result, cached, status

    hello, events, result, cached, status = asyncio.run(go())
    assert hello["protocol"] == PROTOCOL_VERSION
    assert [e["event"] for e in events] == ["queued", "started", "done"]
    # the wire result deserializes to the same simulated values
    assert result.execution_time == direct.execution_time
    assert result.records_processed == direct.records_processed
    assert cached.execution_time == direct.execution_time
    assert status["summary"]["completed"] == 2
    assert status["summary"]["cache_hits"] == 1
    assert status["metrics"]["counters"]["service.completed"] == 2


def test_concurrent_clients_coalesce_over_the_wire():
    config = TINY.with_options(tier=2)

    async def go():
        server = make_server()
        host, port = await server.start()

        async def one(name):
            async with ServiceClient(host, port, client=name) as client:
                return await client.run(config)

        results = await asyncio.gather(one("a"), one("b"), one("c"))
        async with ServiceClient(host, port) as client:
            status = await client.status()
        await server.close()
        return results, status

    results, status = asyncio.run(go())
    assert len({r.execution_time for r in results}) == 1
    assert status["summary"]["coalesce_hits"] >= 1
    assert (
        status["summary"]["coalesce_hits"]
        + status["metrics"]["counters"].get("service.status.captured", 0)
        + status["metrics"]["counters"].get("service.status.executed", 0)
        == 3
    )


def test_rejections_travel_as_typed_errors():
    """A queue-full rejection must surface client-side as the same
    exception type a local submitter gets, not a broken pipe."""
    import threading

    gate = threading.Event()

    def blocked(config, trace_root, obs_dir, dataset_root):
        from repro.core.experiment import run_experiment

        gate.wait(timeout=30)
        return run_experiment(config), "executed"

    async def go():
        server = make_server(execute=blocked, max_queue=1)
        host, port = await server.start()
        configs = [TINY.with_options(mba_percent=p) for p in (10, 50, 100)]
        async with ServiceClient(host, port, client="a") as first:
            task = asyncio.ensure_future(first.run(configs[0]))
            await asyncio.sleep(0.1)  # running and holding the slot
            async with ServiceClient(host, port, client="b") as second:
                queued = asyncio.ensure_future(second.run(configs[1]))
                await asyncio.sleep(0.1)
                async with ServiceClient(host, port, client="c") as third:
                    with pytest.raises(QueueFullError):
                        await third.run(configs[2])
                gate.set()
                await asyncio.gather(task, queued)
        await server.close()

    asyncio.run(go())


def test_remote_failure_raises_remote_job_failed():
    def explode(config, trace_root, obs_dir, dataset_root):
        raise RuntimeError("kaboom")

    async def go():
        server = make_server(execute=explode)
        host, port = await server.start()
        async with ServiceClient(host, port) as client:
            with pytest.raises(RemoteJobFailed, match="kaboom"):
                await client.run(TINY)
        await server.close()

    asyncio.run(go())


def test_malformed_requests_get_bad_request_not_disconnect():
    async def go():
        server = make_server()
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        responses = []
        for raw in (b"not json\n", b'{"op": "nope"}\n', b'{"op": "hello"}\n'):
            writer.write(raw)
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
        await server.close()
        return responses

    bad_json, bad_op, hello = asyncio.run(go())
    assert bad_json == {"ok": False, "error": bad_json["error"],
                        "kind": "bad_request"}
    assert bad_op["kind"] == "bad_request" and "nope" in bad_op["error"]
    assert hello["ok"] is True  # the connection survived both errors


def test_shutdown_op_drains_and_stops_the_server():
    async def go():
        server = make_server()
        host, port = await server.start()
        serve_task = asyncio.ensure_future(server.serve_until_shutdown())
        async with ServiceClient(host, port) as client:
            await client.run(TINY)
            reply = await client.shutdown_server()
        await asyncio.wait_for(serve_task, timeout=10)
        return reply, server.service

    reply, service = asyncio.run(go())
    assert reply == {"ok": True, "drained": True, "stopping": True}
    assert service.closed
    assert service.summary()["active"] == 0
