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
- **one pool** — with ``workers > 1`` the runner keeps its workers
  alive across waves and campaigns.  A pooled point travels as its
  config and the directory roots only: each worker reads trace
  artifacts through its own :class:`~repro.trace.store.TraceStore`
  LRU, so it decodes a behaviour class once and hits its cache for
  every later point of that class.
"""

from __future__ import annotations

import gc
import tempfile
import time
import traceback
import typing as t
import weakref
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
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


def _close_resources(resources: dict) -> None:
    """Tear down a runner's persistent pool and temporary directories.

    Module-level so ``weakref.finalize`` can invoke it after the runner
    is gone, even when ``close()`` was never called.
    """
    pool = resources.pop("pool", None)
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    # Last: with the pool gone, no worker writes to these any more.
    for tmp in resources.pop("tmp", {}).values():
        tmp.cleanup()


class CampaignRunner:
    """Supervises one pool of workers across any number of campaigns.

    The pool is created lazily on the first parallel wave and *persists*
    across waves and across :meth:`run` calls — replay-heavy campaigns
    stop paying process spawn + interpreter warmup per wave.  Call
    :meth:`close` (or use the runner as a context manager) to release
    the pool and the temporary directories the runner made; a finalizer
    does the same on garbage collection or interpreter exit.

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
        if options is not None:
            # One RunOptions overrides the individual knobs — the path
            # api.sweep/campaign and Session take (docs/API.md).
            kw = options.runner_kwargs()
            workers = kw["workers"]
            cache_dir = kw["cache_dir"]
            resume = kw["resume"]
            reuse_traces = kw["reuse_traces"]
            dataset_cache = kw["dataset_cache"]
            trace_dir = kw["trace_dir"]
            dataset_dir = kw["dataset_dir"]
            observe = kw["observe"]
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers or 0
        #: Lazily-created persistent resources: "pool" (the process
        #: pool) and "tmp" (the temporary directories below, by
        #: attribute name).  Held in a plain dict so the exit finalizer
        #: can release them without keeping the runner itself alive.
        self._resources: dict[str, t.Any] = {}
        self._closer = weakref.finalize(
            self, _close_resources, self._resources
        )
        #: Resolved points of the running campaign, by status — the
        #: running counts progress snapshots are built from.
        self._resolved: Counter[str] = Counter()
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        if self.cache is not None:
            if resume:
                self.cache.load()
            else:
                self.cache.clear()
        self.progress = progress
        #: Roots no directory was given for: attribute name -> prefix
        #: of the temporary directory the runner makes for it (see
        #: :meth:`_make_temp_roots`).
        self._temp_roots: dict[str, str] = {}
        if not reuse_traces:
            self.trace_root: Path | None = None
        elif trace_dir is not None:
            self.trace_root = Path(trace_dir)
        elif cache_dir is not None:
            self.trace_root = Path(cache_dir) / "traces"
        else:
            self._temp_roots["trace_root"] = "repro-traces-"
        if not dataset_cache:
            self.dataset_root: Path | None = None
        elif dataset_dir is not None:
            self.dataset_root = Path(dataset_dir)
        elif cache_dir is not None:
            self.dataset_root = Path(cache_dir) / "datasets"
        else:
            self._temp_roots["dataset_root"] = "repro-datasets-"
        self.obs = _coerce_obs_config(observe)
        if self.obs is None:
            self.obs_dir: Path | None = None
        elif self.obs.artifact_dir is not None:
            self.obs_dir = Path(self.obs.artifact_dir)
        elif cache_dir is not None:
            self.obs_dir = Path(cache_dir) / "obs"
        else:
            self._temp_roots["obs_dir"] = "repro-obs-"
        self._make_temp_roots()

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
        self._make_temp_roots()

        pending = self._resolve_cached(points)
        primaries, aliases = self._deduplicate(pending)
        self._resolved = Counter({STATUS_CACHED: len(points) - len(pending)})
        self._emit_progress(report, started)

        if primaries:
            from repro.obs.log import get_log

            log = get_log().bind(component="campaign")
            for number, wave in enumerate(self._plan_waves(primaries), 1):
                log.info(
                    "campaign.wave",
                    wave=number,
                    points=len(wave),
                    workers=self.workers,
                )
                if self.workers > 1:
                    self._run_pool(wave, report, started)
                else:
                    self._run_serial(wave, report, started)
            self._resolve_aliases(aliases, report, started)
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
        """Release the persistent pool and remove the runner's
        temporary directories.

        Idempotent, and the runner stays usable — the pool is recreated
        lazily on the next parallel campaign, and the next :meth:`run`
        makes fresh temporary directories (so traces and datasets kept
        there are made again).  ``run_campaign`` calls this
        automatically; long-lived runners (sessions, notebooks) should
        call it when done or use the runner as a context manager.
        """
        _close_resources(self._resources)

    def _make_temp_roots(self) -> None:
        """Give every root without a directory a fresh temporary one,
        unless it still has the one made since the last :meth:`close`."""
        owned = self._resources.setdefault("tmp", {})
        for attr, prefix in self._temp_roots.items():
            if attr not in owned:
                owned[attr] = tempfile.TemporaryDirectory(prefix=prefix)
                setattr(self, attr, Path(owned[attr].name))

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

    def _deduplicate(
        self, pending: list[CampaignPoint]
    ) -> tuple[list[CampaignPoint], dict[int, CampaignPoint]]:
        """Identical configs execute once; later copies alias the first."""
        primaries: list[CampaignPoint] = []
        first_by_key: dict[str, CampaignPoint] = {}
        aliases: dict[int, CampaignPoint] = {}
        for point in pending:
            key = config_hash(point.config)
            primary = first_by_key.get(key)
            if primary is None:
                first_by_key[key] = point
                primaries.append(point)
            else:
                aliases[point.index] = primary
        return primaries, aliases

    def _plan_waves(
        self, primaries: list[CampaignPoint]
    ) -> list[list[CampaignPoint]]:
        """Order points so trace captures land before their replays.

        Wave 1 holds one representative per behaviour class still
        missing a trace artifact (it captures while running) plus every
        non-replayable point; wave 2 holds the rest, which replay the
        artifacts wave 1 just wrote.  Without trace reuse there is a
        single wave.  Waves only affect scheduling — results are
        value-identical either way.
        """
        if self.trace_root is None:
            return [primaries]
        from repro.trace import TraceStore, is_replayable_config, trace_key

        store = TraceStore(self.trace_root)
        lead: list[CampaignPoint] = []
        follow: list[CampaignPoint] = []
        capturing: set[str] = set()
        for point in primaries:
            replayable, _ = is_replayable_config(point.config)
            if not replayable:
                lead.append(point)
                continue
            key = trace_key(point.config)
            if key in capturing or store.exists(point.config):
                follow.append(point)
            else:
                capturing.add(key)
                lead.append(point)
        return [wave for wave in (lead, follow) if wave]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        pool = self._resources.get("pool")
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._resources["pool"] = pool
        return pool

    def _run_serial(
        self,
        primaries: list[CampaignPoint],
        report: CampaignReport,
        started: float,
    ) -> None:
        trace_root = None if self.trace_root is None else str(self.trace_root)
        obs_dir = None if self.obs_dir is None else str(self.obs_dir)
        dataset_root = (
            None if self.dataset_root is None else str(self.dataset_root)
        )
        # Serial points execute in *this* process; remember the caller's
        # dataset cache (if any) so running a campaign never leaves the
        # runner's — possibly temporary — cache installed afterwards.
        from repro.workloads import datacache

        prev_cache = datacache.active()
        try:
            for point in primaries:
                try:
                    result, status = _execute_point(
                        point.config,
                        trace_root,
                        obs_dir,
                        dataset_root,
                    )
                    self._record(point, result, status)
                except Exception as exc:  # noqa: BLE001 - point isolation
                    point.error = f"{type(exc).__name__}: {exc}"
                    point.status = STATUS_FAILED
                self._emit_progress(report, started, point)
        finally:
            if dataset_root is not None:
                datacache.configure(
                    None if prev_cache is None else prev_cache.root
                )

    def _run_pool(
        self,
        primaries: list[CampaignPoint],
        report: CampaignReport,
        started: float,
    ) -> None:
        trace_root = None if self.trace_root is None else str(self.trace_root)
        obs_dir = None if self.obs_dir is None else str(self.obs_dir)
        dataset_root = (
            None if self.dataset_root is None else str(self.dataset_root)
        )
        pool = self._ensure_pool()
        broken = False
        futures: dict[Future, CampaignPoint] = {
            pool.submit(
                _execute_point,
                point.config,
                trace_root,
                obs_dir,
                dataset_root,
            ): point
            for point in primaries
        }
        outstanding = set(futures)
        while outstanding:
            done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            for future in done:
                point = futures[future]
                exc = future.exception()
                if exc is not None:
                    broken = broken or isinstance(exc, BrokenProcessPool)
                    point.error = self._format_error(exc)
                    point.status = STATUS_FAILED
                else:
                    result, status = future.result()
                    self._record(point, result, status)
                self._emit_progress(report, started, point)
        if broken:
            # A worker died hard; the executor is permanently broken.
            # Drop it so the next wave gets a fresh pool instead of
            # failing every submission.
            pool = self._resources.pop("pool", None)
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _resolve_aliases(
        self,
        aliases: dict[int, CampaignPoint],
        report: CampaignReport,
        started: float,
    ) -> None:
        for index, primary in aliases.items():
            point = report.points[index]
            if primary.result is not None:
                point.result = primary.result
                point.status = STATUS_DEDUPED
            else:
                point.error = primary.error
                point.status = STATUS_FAILED
            self._emit_progress(report, started, point)

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
    def _record(
        self,
        point: CampaignPoint,
        result: ExperimentResult,
        status: str = STATUS_EXECUTED,
    ) -> None:
        point.result = result
        point.status = status
        if self.cache is not None:
            self.cache.put(point.config, result)

    @staticmethod
    def _format_error(exc: BaseException) -> str:
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return detail or type(exc).__name__

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
