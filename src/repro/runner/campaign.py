"""Parallel, cached, fault-isolated execution of experiment campaigns.

Every figure in the paper is a *sweep* — Fig. 2's workloads × sizes ×
tiers grid, Fig. 3's ten MBA levels, Fig. 4's executors × cores grids —
and every point is a pure function of its :class:`ExperimentConfig`
(each ``run_experiment`` builds a fresh seeded testbed, so results never
depend on execution order or co-resident runs).  That purity is what
this module exploits:

- **fan-out** — points run across a ``concurrent.futures`` process
  pool; an N-worker campaign is value-identical to the serial loop;
- **content-addressed caching** — each completed point is stored under
  :func:`~repro.runner.hashing.config_hash` in a
  :class:`~repro.runner.cache.ResultCache`, so re-submitting an
  identical point is a lookup and an interrupted campaign resumes where
  it stopped;
- **failure isolation** — a crashing point records its error and the
  campaign keeps going; the report separates results from failures;
- **progress** — a callback receives completed/total counts and an ETA
  after every resolved point;
- **trace reuse** — the sweep axes (tier, MBA level, CPU socket) change
  *timing*, not behaviour, so the expensive workload computation runs
  once per behaviour class (:mod:`repro.trace` captures it) and every
  other grid point replays the captured trace through the micro-kernel
  re-timer (:mod:`repro.trace.fastreplay`), falling back to direct
  simulation when the replay raises
  :class:`~repro.trace.replay.ReplayDivergence` — bit-identical to
  direct simulation, several times faster.  Trace artifacts live beside
  the result cache (``<cache_dir>/traces/``);
- **one scheduler** — a serial campaign runs its points in this
  process, in submission order, and an identical config later in the
  list takes the first copy's outcome.  With ``workers > 1`` the runner
  sends its uncached points to an in-process
  :class:`~repro.service.ExperimentService`, kept across campaigns,
  whose coalescing, capture-before-replay holding and supervised pool
  are the only pooled scheduler.  A pooled point travels as its config
  and the directory roots only: each worker reads trace artifacts
  through its own :class:`~repro.trace.store.TraceStore` LRU, so it
  decodes a behaviour class once and hits its cache for every later
  point of that class.
"""

from __future__ import annotations

import asyncio
import gc
import tempfile
import time
import typing as t
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.options import RunOptions
from repro.runner.cache import ResultCache
from repro.runner.hashing import config_hash

#: How each campaign point got its value.  "Live" points — computed in
#: this run rather than read back — are split by *how* they were
#: computed: a plain full simulation, a full simulation that also
#: captured a reusable trace, or a trace replay.
STATUS_EXECUTED = "executed"
STATUS_CAPTURED = "captured"
STATUS_REPLAYED = "replayed"
STATUS_CACHED = "cached"
STATUS_DEDUPED = "deduped"
STATUS_FAILED = "failed"

#: Statuses meaning "this run actually computed the point".
LIVE_STATUSES = (STATUS_EXECUTED, STATUS_CAPTURED, STATUS_REPLAYED)

#: ``run_with_trace``'s ``how`` tag → campaign point status.
_TRACE_STATUS = {
    "captured": STATUS_CAPTURED,
    "replayed": STATUS_REPLAYED,
    "direct": STATUS_EXECUTED,
}

@contextmanager
def _paused_gc() -> t.Iterator[None]:
    """Suspend the cyclic collector across one point's execution.

    Campaign points allocate millions of short-lived tuples, lists and
    event records that die by refcount alone; generational collections
    triggered mid-point only re-scan the live heap over and over.  No
    simulated value depends on allocation timing, so pausing collection
    is a pure wall-clock win.  Reentrant-safe: an inner pause inside an
    already-paused region is a no-op, and only the frame that disabled
    the collector restores it.

    On the way out it runs one *generation-0* catch-up, then
    re-enables.  With automatic collection off, every object born
    inside the pause is still in generation 0, so that collection frees
    every reference cycle made only of such objects, at a cost
    proportional to what the point left alive rather than to the whole
    long-lived heap.  Cycles through objects older than the pause are
    left to the normal generational schedule.  The catch-up runs before
    re-enabling so that the automatic trigger, whose allocation count
    grew throughout the pause, cannot fire an older-generation
    collection first.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.collect(0)
        gc.enable()


def _execute_point(
    config: ExperimentConfig,
    trace_root: str | None = None,
    obs_dir: str | None = None,
    dataset_root: str | None = None,
) -> tuple[ExperimentResult, str]:
    """Worker entry point (module-level so it pickles into the pool).

    With a trace root, resolves the point through the trace store
    (:func:`~repro.trace.replay.run_with_trace`) — replaying an existing
    artifact, capturing a new one, or falling back to direct simulation
    when the config's behaviour is timing-dependent (faults,
    speculation) or the replay diverges.

    ``dataset_root`` activates the process-wide dataset artifact cache
    (:mod:`repro.workloads.datacache`) so capture/direct points load
    generated inputs from memory-mapped artifacts instead of
    regenerating them — value-identical, keyed on the datacache and
    numpy versions, the generator and its parameters.  Activation is
    idempotent per root, so a persistent pool worker configures once
    and keeps datagen's in-process memo warm across points.

    With an observation directory, the worker builds its own
    :class:`repro.obs.Observer` and writes this point's artifacts as
    ``<obs_dir>/<config_hash>.trace.json`` / ``.metrics.json`` — keyed
    by content hash, so a resumed campaign's cached points never re-emit
    and re-executed points overwrite with identical content.
    """
    if dataset_root is not None:
        from repro.workloads import datacache

        cache = datacache.active()
        if cache is None or str(cache.root) != str(dataset_root):
            datacache.configure(dataset_root)
    observer = None
    key = None
    if obs_dir is not None:
        from repro.obs import ObsConfig, Observer

        key = config_hash(config)
        root = Path(obs_dir)
        observer = Observer(
            ObsConfig(
                trace_path=str(root / f"{key}.trace.json"),
                metrics_path=str(root / f"{key}.metrics.json"),
            )
        )
    with _paused_gc():
        if trace_root is None:
            result, status = (
                run_experiment(config, observer=observer),
                STATUS_EXECUTED,
            )
        else:
            from repro.trace import TraceStore, run_with_trace

            result, how = run_with_trace(
                config, TraceStore(trace_root), observer=observer
            )
            status = _TRACE_STATUS[how]
    if observer is not None:
        observer.export(
            {
                "label": config.describe(),
                "config_hash": key,
                "status": status,
            }
        )
    return result, status


def _shared_datasets(
    points: list[CampaignPoint],
) -> dict[int, tuple[str, str]]:
    """Index → ``(workload, size)`` of each point that may capture a
    trace (the first replayable point of its behaviour class) and
    prepares the same dataset as another such point.  ``prepare`` reads
    only the workload and size, so the cells of an executor × cores
    grid, each its own class, share one."""
    from repro.trace import is_replayable_config, trace_key

    classes: set[str] = set()
    captures: dict[int, tuple[str, str]] = {}
    for point in points:
        config = point.config
        if is_replayable_config(config)[0] and trace_key(config) not in classes:
            classes.add(trace_key(config))
            captures[point.index] = (config.workload, config.size)
    counts = Counter(captures.values())
    return {i: dataset for i, dataset in captures.items() if counts[dataset] > 1}


def _coerce_obs_config(observe: t.Any) -> "t.Any | None":
    """Normalize the campaign-level ``observe=`` argument to an ObsConfig.

    Campaigns build one observer *per point* inside the worker, so the
    runner keeps only the configuration; passing a live
    :class:`repro.obs.Observer` uses its config.
    """
    if observe is None or observe is False:
        return None
    from repro.obs import ObsConfig, Observer

    if observe is True:
        return ObsConfig()
    if isinstance(observe, ObsConfig):
        return observe
    if isinstance(observe, Observer):
        return observe.config
    raise TypeError(
        f"observe= must be None, bool, ObsConfig or Observer, "
        f"got {type(observe).__name__}"
    )


class RunResources:
    """What points run under, set up once for the campaign runner's
    serial loop and for :class:`~repro.service.ExperimentService` (a
    pooled campaign's service runs on its runner's object): the trace,
    dataset and observability roots (the configured directory, else one
    under ``cache_dir``, else a temporary directory :meth:`open` makes
    and :meth:`close` removes; ``None`` when that feature is off), the
    one :class:`~repro.runner.cache.ResultCache`, and the dataset cache
    of points run in this process."""

    def __init__(
        self, options: RunOptions, obs: t.Any = None, prefix: str = "repro-"
    ) -> None:
        self.cache: ResultCache | None = None
        if options.cache_dir is not None:
            self.cache = ResultCache(options.cache_dir)
            if options.resume:
                self.cache.load()
            else:
                self.cache.clear()
        self.trace_root: Path | None = options.trace_root()
        self.dataset_root: Path | None = options.dataset_root()
        self.obs_dir: Path | None = None
        if obs is not None and obs.artifact_dir is not None:
            self.obs_dir = Path(obs.artifact_dir)
        elif obs is not None and options.cache_dir is not None:
            self.obs_dir = Path(options.cache_dir) / "obs"
        #: Roots no directory was given for: attribute name -> prefix of
        #: the temporary directory :meth:`open` makes for it.
        self._temp_roots = {
            attr: f"{prefix}{name}-"
            for attr, name, wanted in (
                ("trace_root", "traces", options.reuse_traces),
                ("dataset_root", "datasets", options.dataset_cache),
                ("obs_dir", "obs", obs is not None),
            )
            if wanted and getattr(self, attr) is None
        }
        self._tmp: dict[str, tempfile.TemporaryDirectory] = {}
        self.open()

    def open(self) -> None:
        """Give every root without a directory a fresh temporary one,
        unless it still has the one made since the last :meth:`close`."""
        for attr, prefix in self._temp_roots.items():
            if attr not in self._tmp:
                self._tmp[attr] = tempfile.TemporaryDirectory(prefix=prefix)
                setattr(self, attr, Path(self._tmp[attr].name))
        #: ``(trace_root, obs_dir, dataset_root)`` as
        #: :func:`_execute_point` takes them.
        self.roots = tuple(
            None if root is None else str(root)
            for root in (self.trace_root, self.obs_dir, self.dataset_root)
        )

    @contextmanager
    def datasets_installed(self) -> t.Iterator[None]:
        """Install the dataset cache on :attr:`dataset_root` while points
        run in this process, and the caller's cache again afterwards."""
        if self.dataset_root is None:
            yield
            return
        from repro.workloads import datacache

        previous = datacache.active()
        datacache.configure(self.dataset_root)
        try:
            yield
        finally:
            datacache.configure(None if previous is None else previous.root)

    def close(self) -> None:
        """Detach the dataset cache if this object's is installed (jobs
        run on a service's worker thread install it), then remove the
        temporary directories.  Idempotent; :meth:`open` makes new ones."""
        if self.dataset_root is not None:
            from repro.workloads import datacache

            active = datacache.active()
            if active is not None and str(active.root) == str(self.dataset_root):
                datacache.deactivate()
        for tmp in self._tmp.values():
            tmp.cleanup()
        self._tmp.clear()


@dataclass
class CampaignPoint:
    """Outcome of one submitted configuration."""

    index: int
    config: ExperimentConfig
    result: ExperimentResult | None = None
    error: str | None = None
    status: str = STATUS_EXECUTED

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class CampaignProgress:
    """Snapshot handed to the progress callback after each point."""

    completed: int
    total: int
    executed: int
    cached: int
    failed: int
    elapsed: float
    #: Mean wall-seconds per *executed* point so far (cache hits are free).
    seconds_per_point: float

    @property
    def remaining(self) -> int:
        return self.total - self.completed

    @property
    def percent(self) -> float:
        return 100.0 * self.completed / self.total if self.total else 100.0

    @property
    def eta_seconds(self) -> float:
        return self.remaining * self.seconds_per_point

    def describe(self) -> str:
        return (
            f"[{self.completed}/{self.total}] {self.percent:5.1f}% | "
            f"executed {self.executed}, cached {self.cached}, "
            f"failed {self.failed} | eta {self.eta_seconds:.1f}s"
        )


@dataclass
class CampaignReport:
    """Everything a campaign produced, in submission order."""

    points: list[CampaignPoint] = field(default_factory=list)
    elapsed: float = 0.0
    #: Observability outputs written for this campaign, when enabled:
    #: ``{"trace": <merged trace.json>, "metrics": <merged metrics>}``.
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def results(self) -> list[ExperimentResult]:
        """Successful results, submission-ordered (failures skipped)."""
        return [p.result for p in self.points if p.result is not None]

    @property
    def failures(self) -> list[CampaignPoint]:
        return [p for p in self.points if p.error is not None]

    @property
    def executed(self) -> int:
        """Points computed live this run (direct, captured or replayed)."""
        return sum(p.status in LIVE_STATUSES for p in self.points)

    @property
    def captured(self) -> int:
        """Full simulations that also recorded a reusable trace."""
        return sum(p.status == STATUS_CAPTURED for p in self.points)

    @property
    def replayed(self) -> int:
        """Points re-timed from a captured trace (no recomputation)."""
        return sum(p.status == STATUS_REPLAYED for p in self.points)

    @property
    def cache_hits(self) -> int:
        return sum(p.status == STATUS_CACHED for p in self.points)

    @property
    def deduplicated(self) -> int:
        return sum(p.status == STATUS_DEDUPED for p in self.points)

    def result_for(self, config: ExperimentConfig) -> ExperimentResult:
        key = config_hash(config)
        for point in self.points:
            if point.result is not None and config_hash(point.config) == key:
                return point.result
        raise KeyError(f"no successful result for {config.describe()}")

    def raise_on_failure(self) -> None:
        """Re-raise the first captured error (for all-or-nothing callers)."""
        for point in self.failures:
            raise CampaignError(
                f"{point.config.describe()} failed: {point.error}"
            )

    def summary(self) -> dict[str, int | float]:
        return {
            "points": len(self.points),
            "executed": self.executed,
            "captured": self.captured,
            "replayed": self.replayed,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "failures": len(self.failures),
            "elapsed_s": round(self.elapsed, 3),
        }


class CampaignError(RuntimeError):
    """A campaign point failed and the caller demanded completeness."""


#: Pooled job status → campaign point status (the rest are the same).
_JOB_STATUS = {"coalesced": STATUS_DEDUPED}


def _drive(loop: asyncio.AbstractEventLoop, coro: t.Awaitable[t.Any]) -> t.Any:
    """Run ``coro`` to completion on the runner's ``loop``: in this
    thread, or on a helper thread when this one already runs an event
    loop (a notebook, an async application)."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return loop.run_until_complete(coro)
    with ThreadPoolExecutor(max_workers=1) as helper:
        return helper.submit(loop.run_until_complete, coro).result()


def _close_resources(resources: dict) -> None:
    """Shut a runner's service down and remove its temporary directories.

    Module-level so ``weakref.finalize`` can invoke it after the runner
    is gone, even when ``close()`` was never called.
    """
    held = resources.pop("service", None)
    if held is not None:
        service, loop = held
        _drive(loop, service.shutdown(cancel_queued=True))
        loop.close()
    # Last: with the pool gone, no worker writes to these any more.
    resources["run"].close()


class CampaignRunner:
    """Runs any number of campaigns on one set of resources.

    The trace, dataset and observability roots, the result cache and,
    for ``workers > 1``, an in-process
    :class:`~repro.service.ExperimentService` with its process pool
    *persist* across :meth:`run` calls — replay-heavy campaigns stop
    paying process spawn + interpreter warmup per campaign.  Call
    :meth:`close` (or use the runner as a context manager) to shut the
    service down and remove the temporary directories the runner made;
    a finalizer does the same on garbage collection or interpreter exit.

    Parameters
    ----------
    workers:
        Process-pool width.  ``0``/``1`` (or ``None``) runs points
        serially in-process — bit-identical results either way, because
        experiments are pure; the pool only changes wall-clock time.
    cache_dir:
        Directory for the content-addressed result cache (``None``
        disables caching).
    resume:
        With a cache: ``True`` (default) reuses results already present
        — the resumption path after an interrupted campaign.  ``False``
        clears the cache first, forcing every point to execute (it is
        still written, so the *next* run can resume).  Trace artifacts
        are *not* cleared — they never change values (replay is
        bit-identical and version-keyed), only wall-clock time.
    progress:
        Optional callback receiving a :class:`CampaignProgress` after
        every resolved point.
    reuse_traces:
        ``True`` (default) runs each behaviour class of configs through
        the full engine once and replays the captured trace for every
        other tier/MBA/socket point — value-identical, much faster.
        ``False`` simulates every point in full.
    dataset_cache:
        ``True`` (default) persists generated input datasets as
        memory-mapped artifacts under ``dataset_dir`` (default
        ``<cache_dir>/datasets``, or a runner-scoped temporary
        directory without either) so capture and direct points skip
        dataset regeneration — value-identical, keyed on the datacache
        and numpy versions, the generator and its parameters.
        ``False`` regenerates every dataset from its seed.
    dataset_dir:
        Override for the dataset-artifact directory.
    trace_dir:
        Override for the trace-artifact directory.  Defaults to
        ``<cache_dir>/traces``; without a cache, a private temporary
        directory scoped to this runner's lifetime (traces still
        dedupe across the runner's campaigns, just not across runs).
    observe:
        ``None``/``False`` (default) disables observability entirely.
        ``True`` or an :class:`repro.obs.ObsConfig` makes every live
        point write span-trace and metrics artifacts keyed by config
        hash under ``ObsConfig.artifact_dir`` (default
        ``<cache_dir>/obs``, or a runner-scoped temporary directory
        without a cache); after each campaign the per-point artifacts
        are merged into ``ObsConfig.trace_path`` /
        ``ObsConfig.metrics_path`` when those are set.  Cached points
        are never re-executed, hence never re-emit artifacts — but
        artifacts they wrote in an earlier run still join the merge.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | Path | None = None,
        resume: bool = True,
        progress: t.Callable[[CampaignProgress], None] | None = None,
        reuse_traces: bool = True,
        trace_dir: str | Path | None = None,
        observe: t.Any = None,
        options: RunOptions | None = None,
        dataset_cache: bool = True,
        dataset_dir: str | Path | None = None,
    ) -> None:
        # One RunOptions, when given, overrides the individual knobs —
        # the path api.sweep/campaign and Session take (docs/API.md).
        if options is None:
            options = RunOptions(
                workers=workers,
                cache_dir=cache_dir,
                resume=resume,
                reuse_traces=reuse_traces,
                trace_dir=trace_dir,
                observe=observe,
                dataset_cache=dataset_cache,
                dataset_dir=dataset_dir,
            )
        self.workers = options.workers or 0
        self.progress = progress
        self.obs = _coerce_obs_config(options.observe)
        #: What pooled campaigns hand the service: without ``observe``,
        #: so the campaign's merge alone writes the observation outputs
        #: (per-point artifacts still go to :attr:`obs_dir`).
        self._options = options.with_options(observe=None)
        #: Everything the runner holds open: "run" (its
        #: :class:`RunResources`) and, once a pooled campaign ran,
        #: "service" (the service and its event loop).  Held in a plain
        #: dict so the exit finalizer can release them without keeping
        #: the runner itself alive.
        self._resources: dict[str, t.Any] = {
            "run": RunResources(self._options, self.obs)
        }
        self._closer = weakref.finalize(
            self, _close_resources, self._resources
        )
        #: Resolved points of the running campaign, by status — the
        #: running counts progress snapshots are built from.
        self._resolved: Counter[str] = Counter()

    cache = property(lambda self: self._resources["run"].cache)
    trace_root = property(lambda self: self._resources["run"].trace_root)
    dataset_root = property(lambda self: self._resources["run"].dataset_root)
    obs_dir = property(lambda self: self._resources["run"].obs_dir)

    # ------------------------------------------------------------------ public
    def run(self, configs: t.Iterable[ExperimentConfig]) -> CampaignReport:
        """Execute every configuration; never raises for a point failure.

        The report's ``points`` come back in submission order no matter
        how the pool interleaved execution, so downstream indexing is
        deterministic.
        """
        points = [
            CampaignPoint(index=i, config=c) for i, c in enumerate(configs)
        ]
        report = CampaignReport(points=points)
        started = time.monotonic()
        self._resources["run"].open()

        pending = self._resolve_cached(points)
        self._resolved = Counter({STATUS_CACHED: len(points) - len(pending)})
        self._emit_progress(report, started)

        if pending:
            if self.workers > 1:
                self._run_pooled(pending, report, started)
            else:
                self._run_serial(pending, report, started)
            from repro.obs.log import get_log

            log = get_log().bind(component="campaign")
            for point in report.failures:
                log.error(
                    "campaign.point_failed",
                    point=point.index,
                    config=point.config.describe(),
                    error=point.error,
                )

        self._export_observability(report)
        report.elapsed = time.monotonic() - started
        return report

    def close(self) -> None:
        """Shut the pooled runs' service down and remove the runner's
        temporary directories.

        Idempotent, and the runner stays usable — the service is
        started again on the next parallel campaign, and the next
        :meth:`run` makes fresh temporary directories (so traces and
        datasets kept there are made again).  ``run_campaign`` calls
        this automatically; long-lived runners (sessions, notebooks)
        should call it when done or use the runner as a context manager.
        """
        _close_resources(self._resources)

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc: t.Any) -> None:
        self.close()

    # ---------------------------------------------------------------- phases
    def _resolve_cached(self, points: list[CampaignPoint]) -> list[CampaignPoint]:
        """Fill cache hits; return the points that still need execution."""
        if self.cache is None:
            return list(points)
        pending: list[CampaignPoint] = []
        for point in points:
            hit = self.cache.get(point.config)
            if hit is not None:
                point.result = hit
                point.status = STATUS_CACHED
            else:
                pending.append(point)
        return pending

    def _run_serial(
        self,
        pending: list[CampaignPoint],
        report: CampaignReport,
        started: float,
    ) -> None:
        """Run the points in this process, in submission order: the
        first point of a behaviour class captures its trace and later
        ones replay it, and a repeated config takes the first copy's
        result (``deduped``) or error.  Captures that prepare the same
        dataset share one :func:`~repro.workloads.datagen.transient_memo`
        memo, dropped after the last of them."""
        from repro.workloads import datagen

        resources = self._resources["run"]
        first: dict[str, CampaignPoint] = {}
        shared = _shared_datasets(pending) if resources.trace_root else {}
        left = Counter(shared.values())
        memos: dict[tuple[str, str], dict] = {}
        with resources.datasets_installed():
            for point in pending:
                primary = first.setdefault(config_hash(point.config), point)
                dataset = shared.get(point.index)
                if primary is not point:
                    point.result, point.error = primary.result, primary.error
                    point.status = (
                        STATUS_FAILED if primary.error else STATUS_DEDUPED
                    )
                else:
                    scope = (
                        nullcontext()
                        if dataset is None
                        else datagen.transient_memo(memos.setdefault(dataset, {}))
                    )
                    try:
                        with scope:
                            point.result, point.status = _execute_point(
                                point.config, *resources.roots
                            )
                        if self.cache is not None:
                            self.cache.put(point.config, point.result)
                    except Exception as exc:  # noqa: BLE001 - point isolation
                        point.error = f"{type(exc).__name__}: {exc}"
                        point.status = STATUS_FAILED
                if dataset is not None:
                    left[dataset] -= 1
                    if not left[dataset]:
                        del memos[dataset]
                self._emit_progress(report, started, point)

    def _run_pooled(
        self,
        pending: list[CampaignPoint],
        report: CampaignReport,
        started: float,
    ) -> None:
        """Submit the points to the runner's service at once and record
        each as its job resolves.  The service coalesces repeated
        configs, holds a behaviour class's later points until its
        capture lands, writes the result cache and replaces a pool that
        lost a worker (failing only the jobs in flight on it)."""
        service, loop = self._service()

        async def campaign() -> None:
            resolved: asyncio.Queue = asyncio.Queue()

            # Admit the whole campaign: no submission may be refused.
            limit = len(pending) + int(service.summary()["active"])
            service.max_queue = service.max_inflight_per_client = limit
            for point in pending:
                job = await service.submit(point.config, client="campaign")
                job.future.add_done_callback(
                    lambda _, pair=(job, point): resolved.put_nowait(pair)
                )
            for _ in pending:
                job, point = await resolved.get()
                if job.error is None:
                    point.result = job.future.result()
                    point.status = _JOB_STATUS.get(job.status, job.status)
                else:
                    point.error = job.error
                    point.status = STATUS_FAILED
                self._emit_progress(report, started, point)

        _drive(loop, campaign())

    def _service(self) -> tuple[t.Any, asyncio.AbstractEventLoop]:
        """The pooled runs' service and the event loop it runs on, made
        on first use and kept until :meth:`close`.  It runs on the
        runner's :class:`RunResources`."""
        held = self._resources.get("service")
        if held is None:
            from repro.service import ExperimentService

            service = ExperimentService(self._options, heartbeat=0)
            service._resources = self._resources["run"]
            held = self._resources["service"] = (service, asyncio.new_event_loop())
            _drive(held[1], service.start())
        return held

    def _export_observability(self, report: CampaignReport) -> None:
        """Merge per-point artifacts into the campaign-level outputs.

        Works off the files on disk, so points resolved from the result
        cache this run (which never re-emit) still contribute whatever
        an earlier observed run wrote for them.
        """
        if self.obs is None or self.obs_dir is None:
            return
        from repro.obs import (
            MetricsRegistry,
            export_metrics_json,
            load_metrics_json,
            merge_chrome_traces,
        )

        parts: list[tuple[str, Path]] = []
        seen: set[str] = set()
        for point in report.points:
            key = config_hash(point.config)
            if key in seen:
                continue
            seen.add(key)
            parts.append(
                (point.config.describe(), self.obs_dir / f"{key}.trace.json")
            )
        if self.obs.trace_path:
            merge_chrome_traces(parts, self.obs.trace_path)
            report.artifacts["trace"] = str(Path(self.obs.trace_path))
        if self.obs.metrics_path:
            merged = MetricsRegistry()
            merged_points = 0
            for _, part_path in parts:
                metrics_path = part_path.with_name(
                    part_path.name.replace(".trace.json", ".metrics.json")
                )
                if not metrics_path.exists():
                    continue
                merged.merge(load_metrics_json(metrics_path))
                merged_points += 1
            merged.inc("campaign.points_merged", merged_points)
            merged.inc_many(
                {
                    k: float(v)
                    for k, v in report.summary().items()
                    if k != "elapsed_s"
                },
                prefix="campaign.",
            )
            export_metrics_json(
                merged, self.obs.metrics_path, extra={"label": "campaign"}
            )
            report.artifacts["metrics"] = str(Path(self.obs.metrics_path))

    # --------------------------------------------------------------- helpers
    def _emit_progress(
        self,
        report: CampaignReport,
        started: float,
        point: CampaignPoint | None = None,
    ) -> None:
        """Count ``point`` (just resolved) and report progress.

        O(1) per point: snapshots come from the running counts in
        ``_resolved``, never from a rescan of the report.
        """
        if point is not None:
            self._resolved[point.status] += 1
        if self.progress is None:
            return
        resolved = self._resolved
        executed = sum(resolved[status] for status in LIVE_STATUSES)
        cached = resolved[STATUS_CACHED] + resolved[STATUS_DEDUPED]
        failed = resolved[STATUS_FAILED]
        elapsed = time.monotonic() - started
        live = executed + failed
        per_point = elapsed / live if live else 0.0
        self.progress(
            CampaignProgress(
                completed=executed + cached + failed,
                total=len(report.points),
                executed=executed,
                cached=cached,
                failed=failed,
                elapsed=elapsed,
                seconds_per_point=per_point,
            )
        )


def run_campaign(
    configs: t.Iterable[ExperimentConfig],
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    resume: bool = True,
    progress: t.Callable[[CampaignProgress], None] | None = None,
    reuse_traces: bool = True,
    trace_dir: str | Path | None = None,
    observe: t.Any = None,
    options: RunOptions | None = None,
    dataset_cache: bool = True,
    dataset_dir: str | Path | None = None,
) -> CampaignReport:
    """One-shot convenience wrapper around :class:`CampaignRunner`.

    The runner (and with it the worker pool) is closed before
    returning — one-shot callers never leak; reuse a
    :class:`CampaignRunner` directly to amortize pool spawn across
    campaigns.
    """
    runner = CampaignRunner(
        workers=workers,
        cache_dir=cache_dir,
        resume=resume,
        progress=progress,
        reuse_traces=reuse_traces,
        trace_dir=trace_dir,
        observe=observe,
        options=options,
        dataset_cache=dataset_cache,
        dataset_dir=dataset_dir,
    )
    try:
        return runner.run(configs)
    finally:
        runner.close()
