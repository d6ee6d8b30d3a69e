"""The asyncio experiment service.

One :class:`ExperimentService` multiplexes many concurrent submitters
onto one shared worker pool.  It is the only pooled scheduler: a
campaign runner with ``workers > 1`` submits its uncached points to an
in-process service.  The service makes its decisions *online*, per
submission:

- **admission** — a bounded ready queue (``max_queue``) and a
  per-client in-flight cap (``max_inflight_per_client``); a rejected
  submission raises :class:`QueueFullError` / :class:`ClientLimitError`
  immediately instead of queueing unboundedly;
- **coalescing** — a submission whose
  :func:`~repro.runner.hashing.config_hash` matches an in-flight job
  attaches to that job's future; one whose hash is in the result cache
  resolves instantly;
- **scheduling** — strict priority first, then fair share (the queued
  client served least recently wins), then arrival order; replay-aware:
  the first job of a behaviour class *captures* its trace while later
  jobs of the class are held and then *replay* it through the
  micro-kernel re-timer.  Each job's trace key is computed once, at
  admission.  A dispatched job carries only its config and the
  directory roots; each pool worker reads the artifact through its own
  :class:`~repro.trace.store.TraceStore` LRU, decoding a class once;
- **worker supervision** — a process pool keeps
  :data:`INFLIGHT_PER_WORKER` jobs in flight per worker, so a worker
  starts its next job without waiting on the loop.  When a worker dies
  (OOM kill, signal) the pool is replaced by a fresh one of the same
  width: only the jobs in flight on the dead pool fail — at most
  ``INFLIGHT_PER_WORKER × workers`` — and later jobs run on the new
  one (counted in ``service.pool_restarts``);
- **events & observability** — every job streams
  ``queued → coalesced/started → progress → done/failed`` events, and
  the service keeps a :class:`~repro.obs.MetricsRegistry` (queue depth,
  coalesce hits, wait/latency histograms) plus per-job spans on an
  optional :class:`~repro.obs.Observer`.

Results are bit-identical to ``api.run`` for the same config: jobs
execute through the same worker entry point as campaign points
(:func:`repro.runner.campaign._execute_point`), and the scheduler only
ever changes *when* work runs, never what it computes.
"""

from __future__ import annotations

import asyncio
import heapq
import time
import typing as t
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from itertools import count
from pathlib import Path

from repro.core.experiment import ExperimentConfig
from repro.obs.registry import labeled_name
from repro.options import RunOptions
from repro.runner.campaign import (
    RunResources,
    _coerce_obs_config,
    _execute_point,
)
from repro.runner.hashing import config_hash
from repro.service.jobs import (
    CANCELLED,
    COALESCED,
    DEFAULT_EVENT_HISTORY,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    ClientLimitError,
    Job,
    JobCancelledError,
    JobEvent,
    QueueFullError,
    ServiceClosedError,
)

#: A client name used when submitters do not identify themselves.
DEFAULT_CLIENT = "default"

#: Jobs a process pool keeps in flight per worker: one running and
#: three waiting in the pool, so a worker finishing short replays does
#: not wait for the loop to hand it the next job.  A dead worker breaks
#: the pool and fails every job in flight on it, so one death fails at
#: most this many jobs per worker.
INFLIGHT_PER_WORKER = 4

#: Label names of the ``device.*`` series, in the order of the identity
#: tuple ``_fold_result_metrics`` builds per DIMM.
_DEVICE_LABELS = ("tier", "socket", "workload", "client", "device")
#: The per-DIMM counters each resolved job adds to.
_DEVICE_COUNTERS = (
    "device.media_reads",
    "device.media_writes",
    "device.bytes_read",
    "device.bytes_written",
)


class ExperimentService:
    """Long-lived async front end over one shared experiment pool.

    Parameters
    ----------
    options:
        The :class:`repro.RunOptions` every job executes under —
        ``workers`` sizes the shared pool, ``cache_dir`` backs instant
        answers for already-computed points, ``reuse_traces`` /
        ``trace_dir`` enable capture-lead/replay-follow scheduling,
        ``observe`` adds per-job spans and artifact export, and
        ``priority`` is the default submission priority.
    max_queue:
        Backpressure bound on jobs admitted but not yet running.
        Submissions beyond it raise :class:`QueueFullError`.
    max_inflight_per_client:
        Per-client bound on non-terminal jobs (queued, running *and*
        coalesced); beyond it submissions raise
        :class:`ClientLimitError`.
    heartbeat:
        Seconds between ``progress`` events for running jobs
        (``0`` disables the heartbeat task).
    execute:
        Worker entry point override for tests: a callable
        ``(config, trace_root, obs_dir, dataset_root) -> (result,
        status)``, the arguments of the default, the campaign runner's
        ``_execute_point`` — the bit-identity guarantee.  Overrides
        require a serial/thread pool unless picklable.
    event_history:
        Per-job event-history cap (and subscriber queue bound): a slow
        ``events()`` consumer loses ``progress`` heartbeats past this
        depth — counted in the ``service.events_dropped`` metric —
        instead of growing memory without bound.
    flight_dir:
        Directory for flight-recorder post-mortem dumps.  Every job's
        recent events are ring-buffered regardless; with a directory
        configured (here or via ``ObsConfig.flight_dir``) a failed or
        cancelled job additionally writes a loadable
        ``flight-job-<id>.json`` artifact (events + metrics snapshot +
        spans + structured-log tail).

    Lifecycle: ``await service.start()`` … ``await service.shutdown()``,
    or ``async with ExperimentService(...) as service:`` which drains
    gracefully on exit.
    """

    def __init__(
        self,
        options: RunOptions | None = None,
        *,
        max_queue: int = 64,
        max_inflight_per_client: int = 16,
        heartbeat: float = 0.5,
        execute: t.Callable[..., t.Any] | None = None,
        event_history: int = DEFAULT_EVENT_HISTORY,
        flight_dir: "str | Path | None" = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_inflight_per_client < 1:
            raise ValueError("max_inflight_per_client must be >= 1")
        if event_history < 1:
            raise ValueError("event_history must be >= 1")
        self.options = options if options is not None else RunOptions()
        self.max_queue = max_queue
        self.max_inflight_per_client = max_inflight_per_client
        self.heartbeat = heartbeat
        self._execute = execute if execute is not None else _execute_point
        #: Span timestamps are offsets from service construction, so
        #: exported traces start near zero.
        self._t0 = time.monotonic()
        self._started = False
        self._closed = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: Executor | None = None
        workers = self.options.workers or 0
        self._slots = INFLIGHT_PER_WORKER * workers if workers > 1 else 1
        self._job_ids = count(1)
        self._seq = count()
        self._dispatch_seq = count()
        # Scheduling state -----------------------------------------------------
        #: client → heap of (-priority, seq, job) — best job first.
        self._ready: dict[str, list[tuple[int, int, Job]]] = {}
        #: client → dispatch counter of its most recent dispatch.
        self._last_served: dict[str, int] = {}
        self._running: set[Job] = set()
        #: config_hash → in-flight primary (coalescing identity map).
        self._primary: dict[str, Job] = {}
        #: trace_key → job currently capturing that behaviour class.
        self._capturing: dict[str, Job] = {}
        #: trace_key → jobs held until the capture lands.
        self._held: dict[str, list[Job]] = {}
        #: trace keys whose artifact was found on disk: their jobs
        #: dispatch without another ``stat``.
        self._traced: set[str] = set()
        #: id → every non-terminal job (drain waits for this to empty);
        #: a job leaves it as it resolves, fails or is cancelled.
        self.jobs: dict[int, Job] = {}
        #: client → its non-terminal jobs, and the active jobs in state
        #: QUEUED: running counts kept by ``_activate``/``_retire`` and
        #: the QUEUED transitions, so admission reads them in O(1).
        self._inflight: dict[str, int] = {}
        self._queued = 0
        self._state_changed: asyncio.Event | None = None
        self._heartbeat_task: asyncio.Task | None = None
        # Execution resources --------------------------------------------------
        #: Roots, result cache and dataset cache: made by :meth:`start`
        #: and closed by :meth:`shutdown`, unless a campaign runner
        #: handed its own over before :meth:`start`.
        self._resources: RunResources | None = None
        self._own_resources = False
        # Observability --------------------------------------------------------
        from repro.obs import FlightRecorder, MetricsRegistry, Observer
        from repro.obs.log import get_log

        obs_config = _coerce_obs_config(self.options.observe)
        self.observer: "Observer | None" = (
            Observer(obs_config) if obs_config is not None else None
        )
        #: Always-on service metrics (the observer's registry when
        #: observation is enabled, a private one otherwise).
        self.metrics: MetricsRegistry = (
            self.observer.registry if self.observer else MetricsRegistry()
        )
        #: (tier, socket, workload, client, DIMM) → the four ``device.*``
        #: counter keys of that label set, built once.
        self._device_keys: dict[tuple[t.Any, ...], tuple[str, ...]] = {}
        self.event_history = event_history
        if flight_dir is None and obs_config is not None:
            flight_dir = obs_config.flight_dir
        depth = obs_config.flight_depth if obs_config is not None else None
        #: Always-on bounded ring of recent events per job; dumps
        #: post-mortems when ``flight_dir`` is configured.
        self.flight = FlightRecorder(
            flight_dir, depth=depth or max(event_history, 1)
        )
        #: Structured log bound with service-level correlation fields.
        self.log = get_log().bind(component="service")

    # ------------------------------------------------------------------ lifecycle
    async def start(self) -> "ExperimentService":
        """Bind to the running loop and stand up the shared resources."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._state_changed = asyncio.Event()
        self._executor = self._new_executor()
        if self._resources is None:
            self._resources = RunResources(
                self.options,
                self.observer.config if self.observer is not None else None,
                prefix="repro-service-",
            )
            self._own_resources = True
        if self.heartbeat > 0:
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        self._started = True
        self._closed = False
        self._set_gauges()
        return self

    def _new_executor(self) -> Executor:
        workers = self.options.workers or 0
        if workers > 1:
            return ProcessPoolExecutor(max_workers=workers)
        # Serial options still need the loop to stay responsive while an
        # experiment runs, so "serial" means one worker thread, not
        # in-loop execution.
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service"
        )

    def _replace_pool(self, broken: Executor) -> Executor:
        """Swap a pool that lost a worker for a fresh one of the same
        width (once per broken pool) and return the current pool."""
        if broken is self._executor:
            broken.shutdown(wait=False, cancel_futures=True)
            self._executor = self._new_executor()
            self.metrics.inc("service.pool_restarts")
            self.log.warning("service.pool_restart")
        assert self._executor is not None
        return self._executor

    async def drain(self) -> None:
        """Stop admitting; wait for every queued and running job.

        After a drain the service holds no pending futures — each
        admitted job has resolved (done, failed or cancelled) — and new
        submissions raise :class:`ServiceClosedError`.
        """
        self._closed = True
        if self.jobs:
            self.log.info("service.drain", active=len(self.jobs))
        assert self._state_changed is not None
        while self.jobs:
            await self._state_changed.wait()
            self._state_changed.clear()

    async def shutdown(
        self, *, drain: bool = True, cancel_queued: bool = False
    ) -> None:
        """Tear the service down.

        ``drain=True`` (default) finishes all admitted work first;
        ``cancel_queued=True`` cancels jobs that have not started
        instead of running them (running jobs always complete — a
        process-pool slot cannot be reclaimed mid-experiment).
        """
        self._closed = True
        if cancel_queued:
            for job in list(self.jobs.values()):
                if job.state in (QUEUED, COALESCED):
                    self._cancel_job(job)
        if drain:
            await self.drain()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._own_resources:
            self._resources.close()
            self._resources = None
            self._own_resources = False
        if self._started and self.observer is not None:
            # Final flush: whatever artifacts the ObsConfig asks for
            # (trace/metrics paths) are written exactly once, at the
            # end of the service's life — the graceful-drain snapshot.
            self.observer.export(run_info={"label": "service"})
        if self._started:
            self.log.info("service.shutdown", **self.summary())
        self._started = False

    async def __aenter__(self) -> "ExperimentService":
        return await self.start()

    async def __aexit__(self, *exc: t.Any) -> None:
        await self.shutdown(drain=True)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ submit
    async def submit(
        self,
        config: ExperimentConfig,
        *,
        client: str = DEFAULT_CLIENT,
        priority: int | None = None,
    ) -> Job:
        """Admit one experiment; returns its :class:`Job` handle.

        Raises :class:`ServiceClosedError` after :meth:`drain`,
        :class:`ClientLimitError` when ``client`` is at its in-flight
        cap, and :class:`QueueFullError` when the ready queue is at
        ``max_queue``.  A submission matching an in-flight config
        coalesces (consumes no queue slot); one matching the result
        cache resolves immediately.
        """
        if not self._started:
            await self.start()
        if self._closed:
            self.metrics.inc("service.rejected.closed")
            self.log.warning("service.reject", reason="closed", client=client)
            raise ServiceClosedError("service is draining; no new submissions")
        self.metrics.inc("service.submitted")
        if priority is None:
            priority = self.options.priority
        if self._inflight.get(client, 0) >= self.max_inflight_per_client:
            self.metrics.inc("service.rejected.client_limit")
            self.log.warning(
                "service.reject", reason="client_limit", client=client
            )
            raise ClientLimitError(
                f"client {client!r} already has "
                f"{self.max_inflight_per_client} jobs in flight"
            )
        key = config_hash(config)
        job = Job(
            job_id=next(self._job_ids),
            config=config,
            key=key,
            client=client,
            priority=priority,
            seq=next(self._seq),
            service=self,
            history=self.event_history,
        )
        primary = self._primary.get(key)
        if primary is not None:
            self._attach_follower(job, primary)
            return job
        cache = self._resources.cache
        cached = cache.get(config) if cache is not None else None
        if cached is not None:
            self.metrics.inc("service.cache_hits")
            job._emit("queued", client=client, priority=priority, key=key)
            self._resolve(job, cached, "cached")
            return job
        if self._queue_depth() >= self.max_queue:
            self.metrics.inc("service.rejected.queue_full")
            self.log.warning(
                "service.reject", reason="queue_full", client=client
            )
            raise QueueFullError(
                f"ready queue is at max_queue={self.max_queue}"
            )
        job.trace_key = self._trace_key(config)
        self._primary[key] = job
        self._activate(job)
        heapq.heappush(
            self._ready.setdefault(client, []), (-priority, job.seq, job)
        )
        job._emit(
            "queued",
            client=client,
            priority=priority,
            key=key,
            position=self._queue_depth(),
        )
        self._set_gauges()
        self._dispatch()
        return job

    async def run(
        self,
        config: ExperimentConfig,
        *,
        client: str = DEFAULT_CLIENT,
        priority: int | None = None,
    ) -> "t.Any":
        """Submit and await in one call (the blocking-client shape)."""
        job = await self.submit(config, client=client, priority=priority)
        return await job.result()

    # ------------------------------------------------------------------ queries
    def summary(self) -> dict[str, float]:
        """Point-in-time service counters (mirrors the metrics names)."""
        get = self.metrics.counter
        return {
            "submitted": get("service.submitted"),
            "completed": get("service.completed"),
            "failed": get("service.failed"),
            "cancelled": get("service.cancelled"),
            "coalesce_hits": get("service.coalesce_hits"),
            "cache_hits": get("service.cache_hits"),
            "rejected_queue_full": get("service.rejected.queue_full"),
            "rejected_client_limit": get("service.rejected.client_limit"),
            "events_dropped": get("service.events_dropped"),
            "queued": float(self._queue_depth()),
            "running": float(len(self._running)),
            "active": float(len(self.jobs)),
        }

    def flat_summary(self) -> dict[str, float]:
        """Every metric as one flat name→value map (the ``repro top``
        payload): counters and gauges verbatim (labelled keys included),
        plus ``<histogram>.p50/p90/p99`` streaming quantiles and an
        aggregated ``service.rejected``."""
        flat: dict[str, float] = dict(self.metrics.counters)
        flat.update(self.metrics.gauges)
        flat["service.rejected"] = (
            flat.get("service.rejected.queue_full", 0.0)
            + flat.get("service.rejected.client_limit", 0.0)
            + flat.get("service.rejected.closed", 0.0)
        )
        for name in list(self.metrics._histograms):
            for q, suffix in ((0.50, "p50"), (0.90, "p90"), (0.99, "p99")):
                flat[f"{name}.{suffix}"] = self.metrics.quantile(name, q)
        return flat

    def client_inflight(self) -> dict[str, int]:
        """Non-terminal job count per client (the ``repro top`` view)."""
        return dict(self._inflight)

    def render_prometheus(self) -> str:
        """The service registry in Prometheus text exposition format."""
        from repro.obs.prom import render_prometheus

        return render_prometheus(self.metrics)

    def export_metrics(self, path: str | Path) -> None:
        """Write the service metrics registry as flat JSON."""
        from repro.obs import export_metrics_json

        export_metrics_json(self.metrics, path, extra={"label": "service"})

    # ------------------------------------------------------------------ internals
    def _queue_depth(self) -> int:
        return self._queued

    def _activate(self, job: Job) -> None:
        """Admit ``job`` (QUEUED or COALESCED) to the non-terminal jobs."""
        self.jobs[job.id] = job
        self._inflight[job.client] = self._inflight.get(job.client, 0) + 1
        if job.state == QUEUED:
            self._queued += 1

    def _retire(self, job: Job, state: str) -> None:
        """Move ``job`` to the terminal ``state``, leaving the
        non-terminal jobs if it was admitted (a result-cache hit never
        was)."""
        if self.jobs.pop(job.id, None) is not None:
            left = self._inflight[job.client] - 1
            if left:
                self._inflight[job.client] = left
            else:
                del self._inflight[job.client]
            if job.state == QUEUED:
                self._queued -= 1
        job.state = state

    def _set_gauges(self) -> None:
        self.metrics.set_gauge("service.queue_depth", self._queue_depth())
        self.metrics.set_gauge("service.running", len(self._running))
        self.metrics.set_gauge("service.active", len(self.jobs))

    def _notify(self) -> None:
        if self._state_changed is not None:
            self._state_changed.set()

    # -- coalescing ------------------------------------------------------------
    def _attach_follower(self, job: Job, primary: Job) -> None:
        while primary.primary is not None:  # collapse chains defensively
            primary = primary.primary
        job.state = COALESCED
        job.primary = primary
        primary.followers.append(job)
        self._activate(job)
        self.metrics.inc("service.coalesce_hits")
        job._emit("queued", client=job.client, priority=job.priority,
                  key=job.key)
        job._emit("coalesced", onto=primary.id, key=job.key)
        self._set_gauges()

    # -- scheduling ------------------------------------------------------------
    def _dispatch(self) -> None:
        """Fill free pool slots with the best eligible queued jobs."""
        if self._executor is None:
            return
        while len(self._running) < self._slots:
            job = self._pick()
            if job is None:
                return
            self._start_job(job)

    def _pick(self) -> Job | None:
        """Highest priority; ties to the least-recently-served client;
        FIFO within a client.  Jobs whose behaviour class is mid-capture
        are held aside rather than occupying a slot to recompute work a
        landing trace is about to make replayable."""
        while True:
            best_client: str | None = None
            best_rank: tuple[int, int, int] | None = None
            for client, heap in self._ready.items():
                while heap and heap[0][2].state != QUEUED:
                    heapq.heappop(heap)  # lazily drop cancelled entries
                if not heap:
                    continue
                neg_priority, seq, _ = heap[0]
                rank = (neg_priority, self._last_served.get(client, -1), seq)
                if best_rank is None or rank < best_rank:
                    best_rank = rank
                    best_client = client
            if best_client is None:
                return None
            job = heapq.heappop(self._ready[best_client])[2]
            if not self._hold_for_capture(job):
                return job

    def _trace_key(self, config: ExperimentConfig) -> str | None:
        """The behaviour class a job captures or replays, or ``None``
        when it is simulated directly (no trace root, or timing-dependent
        behaviour such as faults or speculation)."""
        if self._resources.trace_root is None:
            return None
        from repro.trace import is_replayable_config, trace_key

        replayable, _ = is_replayable_config(config)
        return trace_key(config) if replayable else None

    def _hold_for_capture(self, job: Job) -> bool:
        """True if ``job`` must wait for an in-flight trace capture.

        The first job of a behaviour class captures while it runs; jobs
        of the same class arriving before the capture lands are parked
        and re-queued to replay it the moment it does.
        """
        tkey = job.trace_key
        if tkey is None or tkey in self._traced:
            return False
        capturing = self._capturing.get(tkey)
        if capturing is not None and capturing is not job:
            self._held.setdefault(tkey, []).append(job)
            job._emit("progress", phase="awaiting-capture",
                      capture_job=capturing.id)
            return True
        from repro.trace import TraceStore

        if TraceStore(self._resources.trace_root).exists(job.config):
            self._traced.add(tkey)
        else:
            self._capturing[tkey] = job
        return False

    def _release_capture(self, job: Job) -> None:
        """Re-queue jobs that were parked behind ``job``'s capture."""
        tkey = job.trace_key
        if tkey is None:
            return
        if self._capturing.get(tkey) is job:
            del self._capturing[tkey]
        for held in self._held.pop(tkey, []):
            if held.state == QUEUED:
                heapq.heappush(
                    self._ready.setdefault(held.client, []),
                    (-held.priority, held.seq, held),
                )

    def _start_job(self, job: Job) -> None:
        assert self._loop is not None and self._executor is not None
        job.state = RUNNING
        self._queued -= 1
        job.started_at = time.monotonic()
        self._running.add(job)
        self._last_served[job.client] = next(self._dispatch_seq)
        self.metrics.observe("service.queue_wait_s", job.queue_wait or 0.0)
        job._emit("started", client=job.client,
                  queue_wait_s=round(job.queue_wait or 0.0, 6))
        args = (job.config, *self._resources.roots)
        executor = self._executor
        try:
            future = executor.submit(self._execute, *args)
        except BrokenProcessPool:
            # A worker died since the pool last finished a job: run
            # this one on a fresh pool.
            executor = self._replace_pool(executor)
            future = executor.submit(self._execute, *args)
        # The pool's thread hands the finished future to the loop (unless
        # the loop was closed without a drain).
        loop = self._loop
        future.add_done_callback(
            lambda done: loop.is_closed()
            or loop.call_soon_threadsafe(self._finish, job, done, executor)
        )
        self._set_gauges()

    def _finish(self, job: Job, future: Future, executor: Executor) -> None:
        try:
            result, status = future.result()
        except Exception as exc:  # noqa: BLE001 - per-job isolation
            if isinstance(exc, BrokenProcessPool):
                # The job's worker died; later jobs get a fresh pool.
                self._replace_pool(executor)
            self._fail(job, exc)
        else:
            if self._resources.cache is not None:
                self._resources.cache.put(job.config, result)
            self._resolve(job, result, status)
        finally:
            self._running.discard(job)
            self._release_capture(job)
            self._set_gauges()
            self._dispatch()
            self._notify()

    # -- completion ------------------------------------------------------------
    def _resolve(self, job: Job, result: t.Any, status: str) -> None:
        self._retire(job, DONE)
        job.status = status
        job.finished_at = time.monotonic()
        self._primary.pop(job.key, None)
        self.metrics.inc("service.completed")
        self.metrics.inc(f"service.status.{status}")
        if job.latency is not None:
            self.metrics.observe("service.latency_s", job.latency)
        if job.started_at is not None and job.finished_at is not None:
            self.metrics.observe(
                "service.exec_s", job.finished_at - job.started_at
            )
        self._fold_result_metrics(job, result)
        self._emit_span(job)
        job._emit("done", status=status,
                  latency_s=round(job.latency or 0.0, 6))
        if not job.future.done():
            job.future.set_result(result)
        for follower in job.followers:
            if follower.state != COALESCED:
                continue  # cancelled followers stay cancelled
            self._retire(follower, DONE)
            follower.status = "coalesced"
            follower.finished_at = job.finished_at
            self.metrics.inc("service.completed")
            self.metrics.inc("service.status.coalesced")
            if follower.latency is not None:
                self.metrics.observe("service.latency_s", follower.latency)
            self._emit_span(follower)
            follower._emit("done", status="coalesced", onto=job.id,
                           latency_s=round(follower.latency or 0.0, 6))
            if not follower.future.done():
                follower.future.set_result(result)
        job.followers.clear()
        self._notify()

    def _fail(self, job: Job, exc: BaseException) -> None:
        self._retire(job, FAILED)
        job.status = "failed"
        job.error = f"{type(exc).__name__}: {exc}"
        job.finished_at = time.monotonic()
        self._primary.pop(job.key, None)
        self.metrics.inc("service.failed")
        self._emit_span(job)
        job._emit("failed", error=job.error)
        if not job.future.done():
            job.future.set_exception(exc)
        for follower in job.followers:
            if follower.state != COALESCED:
                continue
            self._retire(follower, FAILED)
            follower.status = "failed"
            follower.error = job.error
            follower.finished_at = job.finished_at
            self.metrics.inc("service.failed")
            self._emit_span(follower)
            follower._emit("failed", error=job.error, onto=job.id)
            if not follower.future.done():
                follower.future.set_exception(exc)
        job.followers.clear()
        self._notify()

    def _cancel_job(self, job: Job) -> bool:
        if job.done:
            return False
        if job.state == RUNNING:
            return False
        if job.state == COALESCED:
            if job.primary is not None and job in job.primary.followers:
                job.primary.followers.remove(job)
            self._terminate_cancelled(job)
            return True
        # Queued primary: a waiting follower (if any) inherits the slot
        # so coalesced callers still get their result.
        self._primary.pop(job.key, None)
        promoted = next(
            (f for f in job.followers if f.state == COALESCED), None
        )
        if promoted is not None:
            job.followers.remove(promoted)
            promoted.state = QUEUED
            self._queued += 1
            promoted.primary = None
            promoted.trace_key = job.trace_key
            promoted.followers = [
                f for f in job.followers if f.state == COALESCED
            ]
            for follower in promoted.followers:
                follower.primary = promoted
            self._primary[promoted.key] = promoted
            heapq.heappush(
                self._ready.setdefault(promoted.client, []),
                (-promoted.priority, promoted.seq, promoted),
            )
            promoted._emit("progress", phase="promoted",
                           cancelled_primary=job.id)
        job.followers = []
        self._terminate_cancelled(job)
        self._dispatch()
        return True

    def _terminate_cancelled(self, job: Job) -> None:
        self._retire(job, CANCELLED)
        job.status = "cancelled"
        job.finished_at = time.monotonic()
        self.metrics.inc("service.cancelled")
        self._emit_span(job)
        job._emit("cancelled")
        if not job.future.done():
            job.future.set_exception(
                JobCancelledError(f"job {job.id} was cancelled")
            )
        self._set_gauges()
        self._notify()

    # -- observability ---------------------------------------------------------
    def _on_job_event(self, job: Job, event: JobEvent) -> None:
        """Per-event hook (called by :meth:`Job._emit`): flight-record
        the event, mirror it on the structured log with job/client
        correlation, and settle drop accounting at terminal events."""
        self.flight.record(f"job-{job.id}", event.to_dict())
        fields: dict[str, t.Any] = {
            "job": job.id, "client": job.client, "key": job.key,
        }
        fields.update(event.payload)
        level = "error" if event.kind == "failed" else "info"
        self.log.write(f"job.{event.kind}", level=level, **fields)
        if not event.terminal:
            return
        if job.events_dropped:
            self.metrics.inc("service.events_dropped", job.events_dropped)
        if event.kind == "done":
            self.flight.discard(f"job-{job.id}")
        else:
            self._dump_flight(job, reason=event.kind)

    def _dump_flight(self, job: Job, reason: str) -> "Path | None":
        """Freeze ``job``'s ring into a post-mortem artifact (no-op
        without a configured flight directory)."""
        spans = (
            self.observer.span_dicts(limit=self.flight.depth)
            if self.observer is not None
            else None
        )
        path = self.flight.dump(
            f"job-{job.id}",
            reason=reason,
            label=job.config.describe(),
            metrics=self.metrics.to_dict(),
            spans=spans,
            log_tail=self.log.tail(64),
        )
        if path is not None:
            self.log.info("service.flight_dump", job=job.id, path=str(path))
        return path

    def _fold_result_metrics(self, job: Job, result: t.Any) -> None:
        """Fold one resolved result's telemetry into the live registry.

        This is what makes per-tier device counters scrapeable: workers
        observe into their own per-point registries (exported as
        artifacts), so the service labels and accumulates the result's
        telemetry itself — ``device.*`` counters labelled by tier,
        socket, workload, client and DIMM.
        """
        exec_time = getattr(result, "execution_time", None)
        if exec_time is not None:
            self.metrics.observe("jobs.execution_time_s", float(exec_time))
        config = job.config
        tier = getattr(config, "tier", "")
        socket = getattr(config, "cpu_socket", "")
        workload = getattr(config, "workload", "")
        inc = self.metrics.inc
        telemetry = getattr(result, "telemetry", None)
        for dimm in getattr(telemetry, "dimm_performance", None) or ():
            ident = (tier, socket, workload, job.client, dimm.dimm_id)
            keys = self._device_keys.get(ident)
            if keys is None:
                labels = dict(zip(_DEVICE_LABELS, ident))
                keys = self._device_keys[ident] = tuple(
                    labeled_name(name, labels) for name in _DEVICE_COUNTERS
                )
            reads, writes, read_bytes, written_bytes = keys
            inc(reads, float(dimm.media_reads))
            inc(writes, float(dimm.media_writes))
            inc(read_bytes, float(dimm.bytes_read))
            inc(written_bytes, float(dimm.bytes_written))

    def _emit_span(self, job: Job) -> None:
        """Record one retrospective wall-clock span per finished job."""
        if self.observer is None:
            return
        begin = job.submitted_at - self._t0
        end = (
            job.finished_at - self._t0
            if job.finished_at is not None
            else begin
        )
        self.observer.tracer.emit(
            job.config.describe(),
            cat="service.job",
            begin=begin,
            end=end,
            parent=None,
            track=f"client:{job.client}",
            state=job.state,
            status=job.status or "",
            priority=job.priority,
            client=job.client,
            queue_wait_s=job.queue_wait or 0.0,
        )

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat)
            now = time.monotonic()
            for job in list(self._running):
                job._emit(
                    "progress",
                    phase="executing",
                    elapsed_s=round(now - (job.started_at or now), 3),
                )
