"""Trace-once, replay-many: decouple computation from tier timing.

The paper's methodology re-runs identical workload computations across
memory tiers (Fig. 2), MBA levels (Fig. 3) and executor geometries
(Fig. 4) — only the timing/energy model differs between grid points.
This package splits the engine accordingly:

- :mod:`repro.trace.capture` — Phase 1: one full run through the real
  engine, recording each task's behavioural residue plus DAG structure
  and the outcome a result reports
  (:class:`~repro.trace.records.WorkloadTrace`);
- :mod:`repro.trace.fastreplay` — Phase 2: a micro-kernel re-timer that
  compiles each decoded trace's residues once (numpy-batched) and walks
  a specialized event loop for any tier/MBA/socket configuration,
  bit-identical to direct simulation;
- :mod:`repro.trace.replay` — the compatibility gate and
  :func:`run_with_trace`, which captures on a trace miss, replays a hit
  and simulates directly when the config is not replayable or the
  replay raises :class:`ReplayDivergence`;
- :mod:`repro.trace.store` — content-addressed sealed column artifacts
  (:mod:`repro.artifacts`, as datasets are) stored beside the campaign
  result cache, decoded once per process into an LRU bounded by what its
  entries hold (pool workers each keep their own).

Entry points: :func:`capture_experiment`, :func:`fast_replay_experiment`
and :func:`run_with_trace` (store-mediated capture-or-replay with the
replay → direct simulation fallback).
"""

from repro.trace.capture import TraceRecorder, behavior_dict, capture_experiment
from repro.trace.fastreplay import fast_replay_experiment
from repro.trace.records import JobTrace, TaskSetTrace, WorkloadTrace
from repro.trace.replay import (
    ReplayDivergence,
    check_compatible,
    is_replayable_config,
    run_with_trace,
)
from repro.trace.store import TraceStore, trace_key

__all__ = [
    "JobTrace",
    "ReplayDivergence",
    "TraceRecorder",
    "TraceStore",
    "TaskSetTrace",
    "WorkloadTrace",
    "behavior_dict",
    "capture_experiment",
    "check_compatible",
    "fast_replay_experiment",
    "is_replayable_config",
    "run_with_trace",
    "trace_key",
]
