"""The unified experiment API — the documented entry point.

Three verbs cover the whole exploration workflow:

- :func:`run` — one point: ``run(config)`` or ``run("sort", tier=2)``.
- :func:`sweep` — vary one axis of a base config:
  ``sweep(base, axis="tier", values=(0, 1, 2, 3))``.
- :func:`campaign` — any iterable of configs through the parallel,
  cached, failure-isolated campaign runner (:mod:`repro.runner`).

*How* they execute — pool width, caches, trace reuse, observability,
service priority — is one :class:`RunOptions` object shared by all
three verbs, by :meth:`Session` (which binds a ``RunOptions`` once and
reuses it) and by :meth:`repro.service.ExperimentService.submit`::

    from repro import api
    from repro.options import RunOptions

    session = api.Session(workers=4, cache_dir=".campaign-cache")
    base = api.config(workload="lda", size="small")
    tiers = session.sweep(base, axis="tier", values=range(4))
    report = session.campaign(
        base.with_options(tier=t, mba_percent=m)
        for t in (0, 2) for m in (10, 50, 100)
    )

Everything here is re-exported from the top-level ``repro`` package.
The pre-``RunOptions`` per-function keywords
(``sweep(..., workers=4, cache_dir=...)``) keep working as
:class:`DeprecationWarning` shims, as do the pre-facade entry points
(``repro.core.experiment.run_experiment``, ``mba_sweep(workload, size,
tier)``, ``run_experiments``) — see the deprecation policy in
docs/API.md.  For many concurrent callers sharing one process pool, use
the async service (:mod:`repro.service`, docs/SERVICE.md).
"""

from __future__ import annotations

import typing as t
from dataclasses import replace

from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.options import RunOptions, resolve_options
from repro.runner.campaign import (
    STATUS_EXECUTED,
    _TRACE_STATUS,
    CampaignProgress,
    CampaignReport,
    CampaignRunner,
    run_campaign,
)

__all__ = [
    "RunOptions",
    "Session",
    "campaign",
    "config",
    "run",
    "sweep",
]

#: Legacy keywords each verb accepted before ``options=`` existed.
_LEGACY_RUN = ("observe",)
_LEGACY_SWEEP = ("workers", "cache_dir", "resume", "reuse_traces",
                 "trace_dir", "observe")
_LEGACY_CAMPAIGN = _LEGACY_SWEEP


def config(workload: str, **fields: t.Any) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` (keyword convenience)."""
    return ExperimentConfig(workload=workload, **fields)


def _execute_single(
    config: ExperimentConfig, options: RunOptions
) -> tuple[ExperimentResult, str]:
    """One point under ``options`` — the primitive behind :func:`run`.
    (Campaign points and service jobs run
    :func:`repro.runner.campaign._execute_point` instead.)

    Resolution order mirrors the campaign runner: result-cache lookup
    (when ``cache_dir`` is set and ``resume`` allows), then trace
    capture/replay (when a durable trace root exists), then direct
    simulation.  Every path returns values bit-identical to
    ``run_experiment(config)``.
    """
    from repro.obs import coerce_observer

    observer = coerce_observer(options.observe)
    cache = None
    if options.cache_dir is not None:
        from repro.runner.cache import ResultCache

        cache = ResultCache(options.cache_dir)
        if options.resume:
            hit = cache.get(config)
            if hit is not None:
                return hit, "cached"
    trace_root = options.trace_root()
    if trace_root is not None:
        from repro.trace import TraceStore, run_with_trace

        result, how = run_with_trace(
            config, TraceStore(trace_root), observer=observer
        )
        status = _TRACE_STATUS[how]
    else:
        result = run_experiment(config, observer=observer)
        status = STATUS_EXECUTED
    if cache is not None:
        cache.put(config, result)
    if observer is not None:
        observer.export({"label": config.describe()})
    return result, status


def run(
    experiment: ExperimentConfig | str,
    /,
    options: RunOptions | None = None,
    **overrides: t.Any,
) -> ExperimentResult:
    """Execute one experiment point.

    ``experiment`` is either a full :class:`ExperimentConfig` (with
    optional field overrides applied via :func:`dataclasses.replace`) or
    a workload name with the remaining fields as keywords::

        api.run("sort", size="tiny", tier=2)
        api.run(base, mba_percent=50)
        api.run(base, options=RunOptions(observe=True, cache_dir="..."))

    ``options`` carries the execution knobs: ``observe`` opts into the
    :mod:`repro.obs` layer (never changes simulated results),
    ``cache_dir`` makes repeated runs of the same config a lookup, and a
    durable trace root (``trace_dir`` or ``cache_dir``) lets the run
    capture/replay workload traces exactly like a campaign point.  The
    pre-``RunOptions`` ``observe=`` keyword still works with a
    :class:`DeprecationWarning`.
    """
    legacy = {k: overrides.pop(k) for k in _LEGACY_RUN if k in overrides}
    options = resolve_options(
        options, legacy, caller="run", allowed=_LEGACY_RUN
    )
    if isinstance(experiment, ExperimentConfig):
        resolved = replace(experiment, **overrides) if overrides else experiment
    else:
        resolved = ExperimentConfig(workload=experiment, **overrides)
    result, _ = _execute_single(resolved, options)
    return result


def sweep(
    base: ExperimentConfig | str,
    axis: str,
    values: t.Iterable[t.Any],
    *,
    options: RunOptions | None = None,
    progress: t.Callable[[CampaignProgress], None] | None = None,
    **legacy: t.Any,
) -> list[ExperimentResult]:
    """Vary one config field across ``values``; results in value order.

    The base's other fields — ``faults``, ``speculation``,
    ``cpu_socket``, executor geometry — flow through to every point.  A
    failing point raises (a sweep is all-or-nothing); use
    :func:`campaign` for per-point failure isolation.  Sweeping a
    timing-only axis (``tier``, ``mba_percent``, ``cpu_socket``)
    computes the workload once and replays it at every other value
    unless ``options.reuse_traces`` is off.  The pre-``RunOptions``
    keywords (``workers=``, ``cache_dir=``, ...) still work with a
    :class:`DeprecationWarning`.
    """
    options = resolve_options(
        options, legacy, caller="sweep", allowed=_LEGACY_SWEEP
    )
    if isinstance(base, str):
        base = ExperimentConfig(workload=base)
    configs = [replace(base, **{axis: value}) for value in values]
    report = run_campaign(configs, progress=progress, options=options)
    report.raise_on_failure()
    return report.results


def campaign(
    configs: t.Iterable[ExperimentConfig],
    *,
    options: RunOptions | None = None,
    progress: t.Callable[[CampaignProgress], None] | None = None,
    runner: CampaignRunner | None = None,
    **legacy: t.Any,
) -> CampaignReport:
    """Execute a campaign of experiment points.

    Fans points across ``options.workers`` processes (serial when
    ``None``/0/1; an N-worker campaign is value-identical to the serial
    run), reuses ``options.cache_dir``'s content-addressed cache
    (``resume=False`` clears it first), isolates per-point failures in
    the report, and invokes ``progress`` with completed/ETA counts after
    every point.

    With ``options.reuse_traces`` (the default), each behaviour class of
    configs — same workload/size/executor geometry, any tier/MBA/socket
    — runs the real computation once, and every other point replays the
    captured trace through the timing model (:mod:`repro.trace`);
    replayed points are bit-identical to direct simulation.  Artifacts
    live in ``options.trace_dir`` (default ``<cache_dir>/traces``).
    Configs whose behaviour is timing-dependent (faults, speculation)
    always simulate in full, as does any point whose replay diverges.

    ``options.observe`` (``True`` or an :class:`repro.obs.ObsConfig`)
    makes every live point write per-point span-trace/metrics artifacts
    and merges them into campaign-level files after the run; see
    :class:`repro.runner.CampaignRunner`.  Resumed (cached) points are
    never re-executed and never re-emit artifacts.  The
    pre-``RunOptions`` keywords still work with a
    :class:`DeprecationWarning`.
    """
    options = resolve_options(
        options, legacy, caller="campaign", allowed=_LEGACY_CAMPAIGN
    )
    if runner is not None:
        return runner.run(configs)
    return run_campaign(configs, progress=progress, options=options)


class Session:
    """One :class:`RunOptions` bound to every verb — the stateful facade.

    A session is how a caller stops repeating execution keywords: build
    it once with the pool width, cache location and observability they
    want, then call :meth:`run` / :meth:`sweep` / :meth:`campaign`
    (same semantics, same return types as the module-level verbs) and
    every call executes under the session's options::

        session = api.Session(workers=4, cache_dir=".cache", observe=True)
        one = session.run("sort", size="tiny", tier=2)
        grid = session.campaign(configs)

    Sessions are cheap, immutable-options façades: :meth:`with_options`
    derives a new session, and :meth:`service` lifts the same options
    into an async :class:`repro.service.ExperimentService` for many
    concurrent submitters sharing one pool.
    """

    def __init__(
        self, options: RunOptions | None = None, **fields: t.Any
    ) -> None:
        if options is None:
            options = RunOptions(**fields)
        elif fields:
            options = options.with_options(**fields)
        self.options = options

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Session({self.options!r})"

    def with_options(self, **changes: t.Any) -> "Session":
        """A new session with ``changes`` applied to the options."""
        return Session(self.options.with_options(**changes))

    # -- the verbs -------------------------------------------------------------
    def config(self, workload: str, **fields: t.Any) -> ExperimentConfig:
        return config(workload, **fields)

    def run(
        self, experiment: ExperimentConfig | str, /, **overrides: t.Any
    ) -> ExperimentResult:
        return run(experiment, options=self.options, **overrides)

    def sweep(
        self,
        base: ExperimentConfig | str,
        axis: str,
        values: t.Iterable[t.Any],
        *,
        progress: t.Callable[[CampaignProgress], None] | None = None,
    ) -> list[ExperimentResult]:
        return sweep(base, axis, values, options=self.options, progress=progress)

    def campaign(
        self,
        configs: t.Iterable[ExperimentConfig],
        *,
        progress: t.Callable[[CampaignProgress], None] | None = None,
    ) -> CampaignReport:
        return campaign(configs, options=self.options, progress=progress)

    def service(self, **kwargs: t.Any) -> "t.Any":
        """An :class:`repro.service.ExperimentService` under these options.

        Start it inside an event loop (``async with session.service()``)
        to let many concurrent clients share this session's pool, cache
        and trace store; see docs/SERVICE.md.
        """
        from repro.service import ExperimentService

        return ExperimentService(options=self.options, **kwargs)
