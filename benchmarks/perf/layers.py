"""Per-layer wall-clock spans for the traced benchmark run.

:class:`Recorder` swaps timed wrappers onto public functions of each
layer (the :data:`TARGETS` table) and turns garbage collections, seen
through :data:`gc.callbacks`, into child spans of whatever was running.
Spans stay in memory, one list per thread, and are written at exit as
Chrome-trace JSON.  A layer's self time is its spans' time minus their
child spans.

:data:`TARGETS` is ``repro.perf``'s table of attachment points, relabelled,
plus the runner, service and codec functions it does not wrap.
``Environment.step`` is never wrapped: :meth:`Environment.run` falls back
to the one-event-per-call loop when ``step`` is not the pristine function,
so wrapping it would time a loop production never runs.  ``run`` itself
is wrapped, and its self time is the batched dispatch plus process code
under no other span.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import os
import threading
import time
import typing as t
from contextlib import contextmanager

from repro.perf.instrument import _TARGETS as PERF_TARGETS

#: ``repro.perf`` subsystem -> the benchmark's layer, or None to leave the
#: row out: ``Environment.step`` (see above) and the per-record size
#: sampling, whose wrapper would cost more than the call.  An unknown
#: subsystem is a KeyError, so a new row in ``repro.perf`` gets a layer.
PERF_LAYERS: dict[str, str | None] = {
    "sim.kernel": None,
    "spark.serializer": None,
    "sim.dispatch": "sim.run",
    "rdd.compute": "spark.rdd_compute",
    "spark.shuffle": "spark.shuffle",
    "memory.model": "memory.model",
    "workload.datagen": "workloads.datagen",
    "datagen.cache": "workloads.datacache",
    "trace.capture": "trace.capture",
    "trace.replay": "trace.des_replay",
    "trace.fastreplay": "trace.fastreplay",
    # TraceStore.save and .load become trace.store_save and _load.
    "trace.store": "trace.store_{}",
    "trace.shm": "trace.shm",
}

#: (module, owner class or None for a module attribute, function, layer).
#: A function imported by name into other modules is listed once per
#: module, so every call site sees the wrapper.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = tuple(
    [
        (module, owner, attr, PERF_LAYERS[subsystem].format(attr))
        for module, owner, attr, subsystem in PERF_TARGETS
        if PERF_LAYERS[subsystem] is not None
    ]
    + [
        ("repro.spark.context", "SparkContext", "run_job", "spark.run_job"),
        ("repro.runner.campaign", "CampaignRunner", "run", "runner.self"),
        ("repro.runner.cache", "ResultCache", "get", "runner.result_cache"),
        ("repro.runner.cache", "ResultCache", "put", "runner.result_cache"),
        ("repro.runner.cache", "ResultCache", "load", "runner.result_cache"),
    ]
    + [
        (module, None, "run_experiment", "core.experiment")
        for module in (
            "repro.core.experiment", "repro.runner.campaign",
            "repro.trace.replay", "repro.api", "repro",
        )
    ]
    + [
        ("repro.service.service", "ExperimentService", "submit", "service.submit"),
        # Only the server's encoding of ``done`` events and the client's
        # decoding of them, not the result cache's use of the same codec.
        ("repro.service.server", None, "result_to_dict", "service.result_encode"),
        ("repro.service.client", None, "result_from_dict", "client.result_decode"),
    ]
)

#: Layer of the benchmark's own pass spans and of garbage collections.
HARNESS = "harness"
GC_LAYER = "python.gc"

#: One finished span: (layer, name, start, end, parent index or -1).
Span = tuple[str, str, float, float, int]


class Recorder:
    """Installs the layer wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        #: thread id -> (thread name, spans in start order).
        self.tracks: dict[int, tuple[str, list[Span | None]]] = {}
        self._local = threading.local()
        self._undo: list[tuple[t.Any, str, t.Any]] = []

    # -- recording -------------------------------------------------------------
    def _state(self) -> tuple[list, list[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            thread = threading.current_thread()
            self.tracks[threading.get_ident()] = (thread.name, local.spans)
            return local.spans, local.stack

    def _open(self) -> tuple[list, list[int], int, int]:
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        return spans, stack, index, parent

    @contextmanager
    def span(self, layer: str, name: str) -> t.Iterator[None]:
        spans, stack, index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (layer, name, start, end, parent)

    def wrap(self, fn: t.Callable, layer: str) -> t.Callable:
        # The wrappers inline span()'s bookkeeping: some run tens of
        # thousands of times per pass, and a generator context costs more.
        name = getattr(fn, "__qualname__", repr(fn))
        recorder = self
        if inspect.iscoroutinefunction(fn):
            # ExperimentService.submit awaits nothing once the service
            # has started, so its span nests like a synchronous call.
            @functools.wraps(fn)
            async def async_wrapper(*args: t.Any, **kwargs: t.Any) -> t.Any:
                spans, stack, index, parent = recorder._open()
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    spans[index] = (layer, name, start, end, parent)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: t.Any, **kwargs: t.Any) -> t.Any:
            spans, stack, index, parent = recorder._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, name, start, end, parent)

        return wrapper

    def _on_gc(self, phase: str, info: dict[str, t.Any]) -> None:
        spans, stack = self._state()
        if phase == "start":
            parent = stack[-1] if stack else -1
            stack.append(len(spans))
            spans.append((GC_LAYER, f"gen{info['generation']}", time.perf_counter(), 0.0, parent))
        elif stack and spans[stack[-1]] is not None and spans[stack[-1]][0] == GC_LAYER:
            index = stack.pop()
            layer, name, start, _, parent = spans[index]
            spans[index] = (layer, name, start, time.perf_counter(), parent)

    # -- installation ----------------------------------------------------------
    def install(self) -> "Recorder":
        """Wrap every :data:`TARGETS` entry and start recording GC."""
        wrapped: dict[int, t.Callable] = {}
        for module_name, owner_name, attr, layer in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(original, layer)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------
    def snapshot(self) -> dict[str, t.Any]:
        """Finished spans per thread, JSON-ready."""
        return {
            "pid": os.getpid(),
            "tracks": [
                {"tid": tid, "name": name, "spans": [s for s in spans if s is not None]}
                for tid, (name, spans) in self.tracks.items()
            ],
        }


def write_chrome_trace(snapshots: list[dict[str, t.Any]], path: str | os.PathLike) -> None:
    """Write recorder snapshots as one Chrome-trace (Perfetto) JSON file."""
    events = []
    for snap in snapshots:
        for track in snap["tracks"]:
            for layer, name, start, end, parent in track["spans"]:
                events.append(
                    {
                        "name": name, "cat": layer, "ph": "X",
                        "ts": start * 1e6, "dur": (end - start) * 1e6,
                        "pid": snap["pid"], "tid": track["tid"],
                        "args": {"parent": parent},
                    }
                )
            events.append(
                {"name": "thread_name", "ph": "M", "pid": snap["pid"],
                 "tid": track["tid"], "args": {"name": track["name"]}}
            )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def self_times(spans: t.Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def breakdown(
    snapshot: dict[str, t.Any], window: tuple[float, float]
) -> dict[str, t.Any]:
    """Layer self times and call counts of the spans inside ``window``.

    Each thread's self times plus the part of the window its top-level
    spans leave uncovered must add up to the window's wall time; the
    largest relative deviation over threads is ``max_deviation``.  Proper
    nesting makes it zero; a child outliving its parent or overlapping
    siblings shows up here.
    """
    lo, hi = window
    wall = hi - lo
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    deviation = 0.0
    for track in snapshot["tracks"]:
        spans = track["spans"]
        own = self_times(spans)
        inside = [i for i, s in enumerate(spans) if s[2] >= lo and s[3] <= hi]
        if not inside:
            continue
        chosen = set(inside)
        total = 0.0
        tops = []
        for i in inside:
            layer, _, start, end, parent = spans[i]
            self_s[layer] = self_s.get(layer, 0.0) + own[i]
            calls[layer] = calls.get(layer, 0) + 1
            total += max(own[i], 0.0)
            if parent not in chosen:
                tops.append((start, end))
        total += wall - _union(tops)
        deviation = max(deviation, abs(total - wall) / wall if wall > 0 else 0.0)
    return {"wall_s": wall, "self_s": self_s, "calls": calls, "max_deviation": deviation}


def pass_windows(snapshot: dict[str, t.Any], name: str) -> list[tuple[float, float]]:
    """(start, end) of every harness span called ``name``, in order."""
    return sorted(
        (start, end)
        for track in snapshot["tracks"]
        for layer, span_name, start, end, _ in track["spans"]
        if layer == HARNESS and span_name == name
    )
