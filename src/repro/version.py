"""Engine and artifact-format version constants.

``ENGINE_VERSION`` changes whenever the simulation engine's observable
outputs could change (new cost model, scheduler semantics, telemetry
derivation).  It is folded into every content-addressed key — result
cache rows and trace artifacts — so artifacts produced by an older
engine *miss* instead of silently serving stale values.

``TRACE_FORMAT_VERSION`` versions the record layout of captured
workload traces (:mod:`repro.trace.records`) that the trace checksum
covers; a new version changes every trace key, so old artifacts are
treated as absent and re-captured.  The container a trace is stored in
(:mod:`repro.artifacts`) is versioned by its file suffix and magic.
"""

from __future__ import annotations

#: Bump when simulated times/counters/energy could differ from the
#: previous release for the same :class:`ExperimentConfig`.
ENGINE_VERSION = "4"

#: Bump when the :class:`repro.trace.records.WorkloadTrace` record layout
#: (what its checksum covers) changes.
#: 2: per-task ``eval_rank``/``fixed_estimate`` columns replace ``weight``.
TRACE_FORMAT_VERSION = 2

#: Bump when the observability artifact layout changes — the flat
#: metrics JSON payload (:meth:`repro.obs.MetricsRegistry.to_dict`), the
#: extra fields the Chrome-trace exporter writes beside ``traceEvents``,
#: or the flight-recorder dump layout.  Readers refuse payloads from
#: other versions (metrics readers additionally accept the version-1
#: raw-sample histograms by re-observing them).
#: 2: histograms became mergeable quantile sketches (``sketches`` key
#: replaces ``samples``); flight-recorder artifacts introduced.
OBS_SCHEMA_VERSION = 2
