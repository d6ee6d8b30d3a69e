"""Jobs, job events and service error signalling.

A :class:`Job` is one submission's handle: an :class:`asyncio.Future`
for the result, an ordered event log (``queued`` → ``coalesced`` /
``started`` → ``progress``\\* → ``done`` / ``failed`` / ``cancelled``)
that late subscribers replay from the beginning, and the scheduling
metadata (client, priority, arrival sequence) the service's fair-share
picker reads.

Backpressure is *explicit*: an admission decision is an exception type
(:class:`QueueFullError`, :class:`ClientLimitError`,
:class:`ServiceClosedError`), never a silently dropped or silently
queued request — a client always knows whether its work was accepted.
"""

from __future__ import annotations

import asyncio
import time
import typing as t
from dataclasses import dataclass, field

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.experiment import ExperimentConfig, ExperimentResult

# -- job lifecycle states -----------------------------------------------------
QUEUED = "queued"
COALESCED = "coalesced"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States in which a job no longer occupies the service.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Event kinds, in the order a job can emit them.
EVENT_KINDS = ("queued", "coalesced", "started", "progress",
               "done", "failed", "cancelled")

#: Event kinds that end a job's stream.
TERMINAL_EVENTS = ("done", "failed", "cancelled")

#: Event kinds the bounded history may drop under pressure.  Lifecycle
#: events (admission, dispatch, terminal) are never dropped — only the
#: unbounded ``progress`` heartbeats are.
DROPPABLE_EVENTS = ("progress",)

#: Default per-job event-history cap (and subscriber queue bound).
DEFAULT_EVENT_HISTORY = 256

#: Floor for the configured cap: lifecycle events must always fit.
MIN_EVENT_HISTORY = 8


class ServiceError(RuntimeError):
    """Base class for every service-level signal."""


class QueueFullError(ServiceError):
    """Admission control: the global ready queue is at ``max_queue``."""


class ClientLimitError(ServiceError):
    """Admission control: this client is at ``max_inflight_per_client``."""


class ServiceClosedError(ServiceError):
    """The service is draining or shut down; no new submissions."""


class JobCancelledError(ServiceError):
    """Awaited a job that was cancelled before it produced a result."""


@dataclass(frozen=True)
class JobEvent:
    """One entry of a job's event stream.

    ``time`` is a wall-clock UNIX timestamp (events describe *service*
    progress, not simulated time).  ``payload`` is kind-specific — see
    the event-stream schema in docs/SERVICE.md.
    """

    kind: str
    job_id: int
    time: float
    payload: dict[str, t.Any] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_EVENTS

    def to_dict(self) -> dict[str, t.Any]:
        """The wire form (one JSON object per line on the TCP server)."""
        return {"event": self.kind, "job": self.job_id,
                "time": self.time, **self.payload}


class Job:
    """Handle for one submitted experiment.

    Created by :meth:`repro.service.ExperimentService.submit`; callers
    await :meth:`result`, iterate :meth:`events`, or :meth:`cancel`.
    All attributes are owned by the service's event loop — a job is not
    thread-safe and never needs to be (submissions happen on the loop).
    """

    def __init__(
        self,
        job_id: int,
        config: "ExperimentConfig",
        key: str,
        client: str,
        priority: int,
        seq: int,
        service: "t.Any",
        history: int = DEFAULT_EVENT_HISTORY,
    ) -> None:
        self.id = job_id
        self.config = config
        #: ``runner.hashing.config_hash`` — the coalescing identity.
        self.key = key
        #: ``trace.store.trace_key`` of a queued job that captures or
        #: replays, set once at admission; ``None`` otherwise.
        self.trace_key: str | None = None
        self.client = client
        self.priority = priority
        #: Arrival order; the FIFO tiebreak within (client, priority).
        self.seq = seq
        self.state = QUEUED
        #: How the result was produced once terminal: ``executed`` /
        #: ``captured`` / ``replayed`` / ``cached`` / ``coalesced``.
        self.status: str | None = None
        self.error: str | None = None
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: The in-flight job this submission coalesced onto (if any).
        self.primary: "Job | None" = None
        #: Submissions coalesced onto this job (resolved with the same
        #: result object the moment this job completes).
        self.followers: list["Job"] = []
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        # A failed/cancelled job nobody awaits must not spam
        # "exception was never retrieved" at interpreter exit.
        self.future.add_done_callback(Job._consume_exception)
        self._service = service
        #: Event-history cap; see docs/SERVICE.md "Event backpressure".
        self.history = max(MIN_EVENT_HISTORY, history)
        #: Events evicted from history or subscriber queues under
        #: pressure (surfaced as the ``service.events_dropped`` metric).
        self.events_dropped = 0
        self._log: list[JobEvent] = []
        self._subscribers: list[asyncio.Queue] = []

    # -- caller surface --------------------------------------------------------
    async def result(self) -> "ExperimentResult":
        """Await the experiment result (raises the job's failure or
        :class:`JobCancelledError`)."""
        return await asyncio.shield(self.future)

    async def events(self) -> t.AsyncIterator[JobEvent]:
        """Stream this job's events; replays history, ends at a terminal
        event.  Any number of concurrent subscribers is fine.

        Both the history and each subscriber queue are bounded at
        ``self.history`` entries: a slow consumer loses ``progress``
        heartbeats (counted in :attr:`events_dropped`, surfaced as the
        ``service.events_dropped`` metric) but is always delivered the
        terminal event.
        """
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.history + 1)
        for event in self._log:
            queue.put_nowait(event)
        if not self.done:
            self._subscribers.append(queue)
        try:
            while True:
                event = await queue.get()
                yield event
                if event.terminal:
                    return
        finally:
            if queue in self._subscribers:
                self._subscribers.remove(queue)

    def cancel(self) -> bool:
        """Cancel a queued (or coalesced) job; running jobs are not
        interruptible and return ``False``.  Idempotent."""
        return self._service._cancel_job(self)

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def event_log(self) -> list[JobEvent]:
        """Everything emitted so far (copy)."""
        return list(self._log)

    # -- timings ---------------------------------------------------------------
    @property
    def queue_wait(self) -> float | None:
        """Seconds between admission and dispatch (None until started)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float | None:
        """Seconds between admission and completion (None until done)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    # -- service-side plumbing -------------------------------------------------
    def _emit(self, kind: str, **payload: t.Any) -> JobEvent:
        event = JobEvent(
            kind=kind, job_id=self.id, time=time.time(), payload=payload
        )
        self._log.append(event)
        if len(self._log) > self.history:
            self._trim_history()
        for queue in list(self._subscribers):
            self._offer(queue, event)
        if event.terminal:
            self._subscribers.clear()
        notify = getattr(self._service, "_on_job_event", None)
        if notify is not None:
            notify(self, event)
        return event

    def _trim_history(self) -> None:
        """Evict the oldest droppable (``progress``) event from history.

        Lifecycle events are never evicted; with ``history`` at least
        :data:`MIN_EVENT_HISTORY` they always fit, so a full history of
        undroppable events (impossible in practice) is left intact.
        """
        for i, event in enumerate(self._log):
            if event.kind in DROPPABLE_EVENTS:
                del self._log[i]
                self.events_dropped += 1
                return

    def _offer(self, queue: asyncio.Queue, event: JobEvent) -> None:
        """Deliver to one subscriber; on a full queue drop the event
        (terminal events instead evict the queue head so the stream
        always terminates).  Every loss increments ``events_dropped``."""
        try:
            queue.put_nowait(event)
            return
        except asyncio.QueueFull:
            self.events_dropped += 1
        if event.terminal:
            try:
                queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - racy full→empty
                pass
            queue.put_nowait(event)

    @staticmethod
    def _consume_exception(future: asyncio.Future) -> None:
        if not future.cancelled():
            future.exception()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Job(id={self.id}, {self.config.describe()!r}, "
            f"client={self.client!r}, priority={self.priority}, "
            f"state={self.state!r})"
        )
