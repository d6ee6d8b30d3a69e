"""Swap-in instrumentation for :class:`repro.perf.PerfProfile`.

The engine is *not* permanently hooked: profiling installs timed
wrappers over a fixed table of hot attachment points (the sim kernel's
dispatch loop, RDD evaluation, the shuffle writer/reader, the memory
model's service/record pair, record-size sampling and dataset
generation) and restores the original functions afterwards.  With no
profile active the engine runs the exact original code objects, so the
value-identical guarantee trivially extends to profiled runs — the
wrappers only read ``perf_counter`` around the original calls.
"""

from __future__ import annotations

import typing as t
from contextlib import contextmanager

from repro.perf.profiler import PerfProfile

#: (module path, owner attribute or None for module level, function
#: name, subsystem label).  Owner ``None`` patches a module global —
#: modules that import the function by name are listed separately so
#: their call sites see the wrapper too.
_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    # ``run`` is the kernel's one dispatch loop; its exclusive time is
    # the loop plus process code under no other span.
    ("repro.sim.core", "Environment", "run", "sim.dispatch"),
    ("repro.spark.executor", "Executor", "_evaluate", "rdd.compute"),
    ("repro.spark.executor", "Executor", "_write_shuffle_output", "spark.shuffle"),
    ("repro.spark.shuffle", "ShuffleManager", "add_map_output", "spark.shuffle"),
    ("repro.spark.shuffle", "ShuffleManager", "fetch", "spark.shuffle"),
    ("repro.memory.device", "MemoryDevice", "service_time", "memory.model"),
    ("repro.memory.device", "MemoryDevice", "record", "memory.model"),
    ("repro.spark.serializer", None, "estimate_record_bytes", "spark.serializer"),
    ("repro.spark.rdd", None, "estimate_record_bytes", "spark.serializer"),
    ("repro.workloads.datagen", None, "random_text_records", "workload.datagen"),
    ("repro.workloads.datagen", None, "zipf_words", "workload.datagen"),
    ("repro.workloads.datagen", None, "rating_triples", "workload.datagen"),
    ("repro.workloads.datagen", None, "labeled_documents", "workload.datagen"),
    ("repro.workloads.datagen", None, "labeled_vectors", "workload.datagen"),
    ("repro.workloads.datagen", None, "bag_of_words_docs", "workload.datagen"),
    ("repro.workloads.datagen", None, "web_graph", "workload.datagen"),
    # Dataset artifact cache: loads/stores nest inside the datagen spans
    # above only on a memo miss, so exclusive attribution shows how much
    # of the prepare phase the cache absorbs versus regeneration.
    ("repro.workloads.datacache", "DatasetCache", "load", "datagen.cache"),
    ("repro.workloads.datacache", "DatasetCache", "store", "datagen.cache"),
    # Trace-once/replay-many engine: the capture pass nests the real
    # engine spans above (exclusive attribution separates them).
    # ``capture_experiment`` is patched both where it is defined and
    # where ``run_with_trace`` imported it by name.
    ("repro.trace.capture", None, "capture_experiment", "trace.capture"),
    ("repro.trace.replay", None, "capture_experiment", "trace.capture"),
    ("repro.trace", None, "capture_experiment", "trace.capture"),
    # Replay is pure re-timing, so its span *is* the replay cost.
    # ``run_with_trace`` resolves the function as a module attribute at
    # call time, so patching the defining module (plus the package
    # re-export) covers every route into it.
    ("repro.trace.fastreplay", None, "fast_replay_experiment", "trace.fastreplay"),
    ("repro.trace", None, "fast_replay_experiment", "trace.fastreplay"),
    ("repro.trace.store", "TraceStore", "save", "trace.store"),
    ("repro.trace.store", "TraceStore", "load", "trace.store"),
)

#: The active profile, if any (one at a time keeps the span stack sane).
_active: PerfProfile | None = None
#: Undo list for the active installation: (owner object, name, original).
_installed: list[tuple[t.Any, str, t.Any]] = []


def active_profile() -> PerfProfile | None:
    """The currently installed profile, or ``None`` outside ``profile()``."""
    return _active


def _timed(prof: PerfProfile, name: str, func: t.Callable) -> t.Callable:
    enter, leave = prof.enter, prof.exit

    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return func(*args, **kwargs)
        finally:
            leave()

    wrapper.__name__ = getattr(func, "__name__", name)
    wrapper.__wrapped__ = func
    return wrapper


def install(prof: PerfProfile) -> None:
    """Wrap every attachment point with timers feeding ``prof``."""
    global _active
    if _active is not None:
        raise RuntimeError("a perf profile is already installed")
    import importlib

    for module_path, owner_name, attr, subsystem in _TARGETS:
        module = importlib.import_module(module_path)
        owner = module if owner_name is None else getattr(module, owner_name)
        original = getattr(owner, attr)
        setattr(owner, attr, _timed(prof, subsystem, original))
        _installed.append((owner, attr, original))
    _active = prof


def uninstall() -> None:
    """Restore the original functions (no-op when nothing is installed)."""
    global _active
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    _active = None


@contextmanager
def profile() -> t.Iterator[PerfProfile]:
    """Profile everything run inside the ``with`` block::

        with repro.perf.profile() as prof:
            run_experiment(config)
        print(prof.format())
        prof.to_json("profile.json")
    """
    prof = PerfProfile()
    install(prof)
    prof.start()
    try:
        yield prof
    finally:
        prof.stop()
        uninstall()
