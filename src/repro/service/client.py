"""Client for the JSON-lines experiment service protocol.

:class:`ServiceClient` is the asyncio client (one TCP connection,
sequential requests; open several clients for concurrent streams).
:func:`submit_and_stream` is the sync convenience the CLI's ``repro
submit`` uses — connect, submit, stream events to a callback, return
the deserialized result.
"""

from __future__ import annotations

import asyncio
import json
import typing as t

from repro.analysis.resultstore import config_to_dict, result_from_dict
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.service.jobs import (
    ClientLimitError,
    JobCancelledError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)

_REJECTIONS: dict[str, type[ServiceError]] = {
    "queue_full": QueueFullError,
    "client_limit": ClientLimitError,
    "closed": ServiceClosedError,
}

#: Longest reply line the client reads.  ``metrics``/``status`` replies
#: grow with every labelled series a server has seen and pass asyncio's
#: 64 KiB default once a handful of (workload, tier) pairs have run.
_MAX_REPLY_BYTES = 1 << 30


class RemoteJobFailed(ServiceError):
    """The service reported a ``failed`` event for our submission."""


class ServiceClient:
    """One connection to a running :class:`ServiceServer`.

    Usage::

        async with ServiceClient(host, port, client="sweeper") as client:
            result = await client.run(config, priority=5)
    """

    def __init__(
        self, host: str, port: int, *, client: str = "remote"
    ) -> None:
        self.host = host
        self.port = port
        self.client = client
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_MAX_REPLY_BYTES
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc: t.Any) -> None:
        await self.close()

    # ---------------------------------------------------------------- protocol
    async def _request(self, **payload: t.Any) -> dict[str, t.Any]:
        response = await self._send(payload)
        if not response.get("ok", False):
            raise _REJECTIONS.get(response.get("kind", ""), ServiceError)(
                response.get("error", "request failed")
            )
        return response

    async def _send(self, payload: dict[str, t.Any]) -> dict[str, t.Any]:
        assert self._writer is not None and self._reader is not None, (
            "client is not connected"
        )
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self._writer.drain()
        return await self._read_line()

    async def _read_line(self) -> dict[str, t.Any]:
        assert self._reader is not None
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    # ---------------------------------------------------------------- ops
    async def hello(self) -> dict[str, t.Any]:
        return await self._request(op="hello")

    async def status(self) -> dict[str, t.Any]:
        return await self._request(op="status")

    async def metrics(self) -> dict[str, t.Any]:
        """The live monitoring scrape: ``prometheus`` exposition text,
        the flat ``summary`` map, and per-client in-flight counts."""
        return await self._request(op="metrics")

    async def drain(self) -> dict[str, t.Any]:
        return await self._request(op="drain")

    async def shutdown_server(self) -> dict[str, t.Any]:
        return await self._request(op="shutdown")

    async def run(
        self,
        config: ExperimentConfig,
        *,
        priority: int | None = None,
        on_event: t.Callable[[dict[str, t.Any]], None] | None = None,
    ) -> ExperimentResult:
        """Submit ``config`` and stream events until the result lands.

        Admission rejections raise the same exception types local
        callers get (:class:`QueueFullError`, ...); a remote failure
        raises :class:`RemoteJobFailed` with the service-side error.
        """
        accepted = await self._request(
            op="submit",
            config=config_to_dict(config),
            client=self.client,
            **({} if priority is None else {"priority": priority}),
        )
        del accepted  # job id lives in each event line
        while True:
            event = await self._read_line()
            if on_event is not None:
                on_event(event)
            kind = event.get("event")
            if kind == "done":
                return result_from_dict(event["result"])
            if kind == "failed":
                raise RemoteJobFailed(event.get("error", "job failed"))
            if kind == "cancelled":
                raise JobCancelledError("job was cancelled by the service")


def submit_and_stream(
    host: str,
    port: int,
    config: ExperimentConfig,
    *,
    client: str = "cli",
    priority: int | None = None,
    on_event: t.Callable[[dict[str, t.Any]], None] | None = None,
) -> ExperimentResult:
    """Blocking one-shot submission (the ``repro submit`` primitive)."""

    async def _go() -> ExperimentResult:
        async with ServiceClient(host, port, client=client) as remote:
            return await remote.run(
                config, priority=priority, on_event=on_event
            )

    return asyncio.run(_go())
