"""Phase 2: resolve a point through the trace store.

:func:`run_with_trace` makes one decision per point.  A config whose
behaviour depends on timing (fault injection, speculation) is simulated
directly.  A trace hit is re-timed by the micro-kernel
(:func:`repro.trace.fastreplay.fast_replay_experiment`), which returns
exactly what a direct simulation of the config returns.  A trace miss
runs the real engine once, recording a new trace
(:func:`~repro.trace.capture.capture_experiment`).

Replay refuses, by raising :class:`ReplayDivergence`, whenever the trace
cannot stand in for the config: a different behaviour key, an
engine/format version mismatch, a failed checksum, or a replay whose
evaluation order differs from the capture's where that order fixed an
RDD's record-size estimate.  :func:`run_with_trace` then logs the reason
and simulates the point directly.
"""

from __future__ import annotations

import typing as t

from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.trace.capture import behavior_dict, capture_experiment
from repro.trace.records import WorkloadTrace
from repro.version import ENGINE_VERSION, TRACE_FORMAT_VERSION

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.store import TraceStore


class ReplayDivergence(RuntimeError):
    """The trace cannot stand in for a direct simulation of this config."""


def is_replayable_config(config: ExperimentConfig) -> tuple[bool, str]:
    """Static gate: does this config's behaviour depend on timing?

    Fault injection and speculation make the event sequence (retries,
    kills, clone launches) depend on simulated durations, so their runs
    must always be simulated in full.
    """
    if config.faults is not None:
        return False, "fault injection changes scheduling behaviour"
    if config.speculation:
        return False, "speculation changes scheduling behaviour"
    return True, ""


def check_compatible(trace: WorkloadTrace, config: ExperimentConfig) -> None:
    """Raise :class:`ReplayDivergence` unless ``trace`` covers ``config``."""
    replayable, reason = is_replayable_config(config)
    if not replayable:
        raise ReplayDivergence(reason)
    if trace.format_version != TRACE_FORMAT_VERSION:
        raise ReplayDivergence(
            f"trace format v{trace.format_version} != v{TRACE_FORMAT_VERSION}"
        )
    if trace.engine_version != ENGINE_VERSION:
        raise ReplayDivergence(
            f"trace from engine {trace.engine_version!r}, "
            f"running {ENGINE_VERSION!r}"
        )
    if trace.behavior != behavior_dict(config):
        raise ReplayDivergence("config behaviour differs from the capture")


def _note_divergence(
    observer: t.Any | None, config: ExperimentConfig, exc: Exception
) -> None:
    """Post-mortem an abandoned replay: structured-log the divergence
    and (with a flight recorder configured) dump the attempt's spans and
    metrics *before* the observer is reset for the fallback run."""
    if observer is not None and hasattr(observer, "note_divergence"):
        observer.note_divergence(
            f"replay-{config_hash_short(config)}",
            f"replay: {exc}",
            label=config.describe(),
        )
    else:
        from repro.obs.log import get_log

        get_log().warning(
            "replay.divergence", config=config.describe(), error=str(exc)
        )


def config_hash_short(config: ExperimentConfig) -> str:
    from repro.runner.hashing import config_hash

    return config_hash(config)[:12]


def run_with_trace(
    config: ExperimentConfig,
    store: "TraceStore",
    observer: t.Any | None = None,
) -> tuple[ExperimentResult, str]:
    """Resolve one point through the trace store.

    Returns ``(result, how)`` where ``how`` is ``"replayed"`` (trace
    hit), ``"captured"`` (trace miss: ran the full engine and saved a
    new artifact) or ``"direct"`` (not replayable, or the replay raised
    :class:`ReplayDivergence` and the point was simulated in full).
    Observed runs take the same path; the re-timer emits the spans and
    registry metrics a direct run records.
    """
    replayable, _ = is_replayable_config(config)
    if not replayable:
        return run_experiment(config, observer=observer), "direct"
    trace = store.load(config)
    if trace is None:
        result, captured = capture_experiment(config, observer=observer)
        if captured is not None:
            store.save(config, captured)
        return result, "captured"
    # Resolved as a module attribute at call time, so a profiler's
    # wrapper over it sees every replay.
    from repro.trace import fastreplay

    try:
        return (
            fastreplay.fast_replay_experiment(config, trace, observer=observer),
            "replayed",
        )
    except ReplayDivergence as exc:
        _note_divergence(observer, config, exc)
        if observer is not None:
            # The abandoned replay's spans must not pollute the
            # fallback run's artifacts.
            observer.reset()
        return run_experiment(config, observer=observer), "direct"
