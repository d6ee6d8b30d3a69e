"""Content-addressed on-disk store for captured workload traces.

Artifacts live beside the campaign's :class:`~repro.runner.cache.ResultCache`
(``<cache_dir>/traces/``), one sealed artifact per behaviour key::

    <root>/<trace_key>.trace.bin

The key is the SHA-256 of the canonical JSON of the config's *behaviour*
fields (workload, size, executor geometry, faults, speculation — tier,
MBA level, CPU socket and label excluded) plus the engine and trace
format versions, so any config sharing the behaviour resolves to the
same artifact and artifacts from older engines simply miss.

An artifact is a sealed container of columns (:mod:`repro.artifacts`),
as a dataset's is.  Its header holds the trace's scalar fields and each
task set's provenance and task count; its columns hold each residue
field concatenated over all task sets, and the ``verified`` flag and
``records_processed`` a replay reports.  The seal covers the header,
its column table and the artifact's key, so the columns of an artifact
that verifies are the ones :meth:`TraceStore.save` wrote for this key,
and decoding only cuts them at the task counts.  An artifact in an
older container is a miss, rewritten by the next capture; older
``*.trace.pkl.gz`` files are never opened.

Loads go through a per-process LRU of decoded traces, one entry per
artifact path, so a serial campaign replaying one behaviour class
across twelve tier/MBA points decodes its artifact once, not twelve
times.  An entry keeps the stat signature ``(st_dev, st_ino, st_size,
st_mtime_ns, st_ctime_ns)`` and the SHA-256 of the bytes it was
decoded from (:func:`repro.artifacts.digest`), and a load serves it in
one of two ways:

- **Re-verified**: the signature is equal and the bytes read now have
  the same digest.  A same-mtime overwrite (two captures landing within
  the filesystem's timestamp granularity) can never serve the stale
  content, because the digest disagrees even when the signature does
  not.
- **Settled**: the entry was read and digested more than
  ``_SETTLE_NS`` (2 s) after the artifact's last mtime and ctime, and
  the signature is still equal; the load then touches no byte of the
  file.  The kernel stamps ctime with the current time on every write,
  ``utime`` and rename, so any change after a settling read moves ctime
  at least the margin away from the recorded one, whatever the
  filesystem's timestamp granularity, and the load reads and digests
  again.  The one assumption is that the wall clock does not step back
  across the margin.

Every other load digests the file and, on a new digest, reads, verifies
and decodes it.  The LRU
is bounded by what its entries hold in memory, not by entry count or
artifact bytes: each entry is charged its decoded trace, sized once at
decode, plus the replay plan :mod:`repro.trace.fastreplay` compiles
onto it and the counter-delta tables that plan's replays fill
(:func:`~repro.trace.fastreplay.plan_bytes`).  Plans and tables grow
after the decode, so every load, hits included, re-checks the budget;
each entry's charge is read in O(1), once its plan has been sized on
its first charge.  Every behaviour class of the paper's grid stays
decoded however many classes a campaign or service cycles through.
:func:`stats` counts each load's outcome, and each save that raised an
``OSError`` (a full or read-only disk), after which
:func:`~repro.trace.replay.run_with_trace` keeps the captured result.

Pool workers of a campaign or the service read artifacts the same way:
each worker process keeps its own LRU, so a worker decodes a behaviour
class once and every later point of that class it runs is a cache hit.
Nothing but the config and the directory roots travels with a pooled
point, and every decode checks the format and engine versions and the
checksum before the trace is cached.
"""

from __future__ import annotations

import itertools
import time
import typing as t
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro import artifacts
from repro.trace.capture import behavior_dict
from repro.trace.fastreplay import plan_bytes
from repro.trace.records import FLOAT_FIELDS, INT_FIELDS, IO_KINDS, footprint
from repro.trace.records import JobTrace, TaskSetTrace, WorkloadTrace
from repro.version import ENGINE_VERSION, TRACE_FORMAT_VERSION

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.experiment import ExperimentConfig

_SUFFIX = ".trace.bin"

#: An artifact's stat signature: (st_dev, st_ino, st_size, st_mtime_ns,
#: st_ctime_ns).
_Signature = tuple[int, int, int, int, int]


class _Entry(t.NamedTuple):
    """One decoded artifact in the load cache."""

    trace: WorkloadTrace
    #: What the decoded trace holds, sized at decode (:func:`_charge`
    #: adds what replays compiled onto it since).
    nbytes: int
    signature: _Signature
    #: SHA-256 of the artifact's bytes, taken before ``trace`` was
    #: read and decoded from them.
    digest: str
    #: Read and digested more than ``_SETTLE_NS`` after the artifact's
    #: last mtime and ctime: an equal signature alone serves it.
    settled: bool


#: Per-process load cache: artifact path -> its decoded entry.
_LOAD_CACHE: "OrderedDict[str, _Entry]" = OrderedDict()
#: Bytes the load cache's entries may hold (see :func:`_charge`); the
#: least recently used traces go first, the newest always stays.  All
#: 21 paper behaviour classes (7 workloads x tiny/small/large), each
#: replayed at three tiers, are charged about 3.5 MB together.
_LOAD_CACHE_BYTES = 16 * 2**20

#: How long after an artifact's last mtime and ctime a read must start
#: for its entry to settle: far above any filesystem's timestamp
#: granularity and the kernel's coarse-clock lag.
_SETTLE_NS = 2_000_000_000
#: The wall clock the settle rule compares stat times with (the
#: kernel stamps them from the same realtime clock).
_clock_ns = time.time_ns

#: Load outcomes since the last :func:`reset_stats`.  Each load counts
#: once: a hit (settled or re-verified), a decode, or a miss by reason.
_STATS = {
    "settled_hits": 0,
    "verified_hits": 0,
    "decodes": 0,
    "missing": 0,
    "corrupt": 0,
    "version_skew": 0,
    "checksum": 0,
    "save_failed": 0,
}


def stats() -> dict[str, int]:
    """Cumulative load outcomes: ``settled_hits`` (served on the stat
    signature alone), ``verified_hits`` (bytes read and digested),
    ``decodes``, and the misses ``missing``, ``corrupt`` (unreadable,
    another container or key, or not a trace), ``version_skew`` and
    ``checksum``;
    and ``save_failed``, saves that raised an ``OSError``."""
    return dict(_STATS)


def reset_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def trace_key(config: "ExperimentConfig") -> str:
    """Stable hex digest addressing one behaviour class of configs.

    Configs differing only in tier/MBA/socket/label share a key (their
    traces are interchangeable); a new engine or trace-format version
    changes every key, invalidating stale artifacts wholesale.

    Memoized on the config instance, like
    :func:`~repro.runner.hashing.config_hash`; the memo travels with a
    pickled config, so a pool worker reuses the key its job was
    admitted with.
    """
    versions = (ENGINE_VERSION, TRACE_FORMAT_VERSION)
    memo = config.__dict__.get("_trace_key_memo")
    if memo is not None and memo[0] == versions:
        return memo[1]
    digest = artifacts.canonical_key(
        {
            "engine": ENGINE_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
            "behavior": behavior_dict(config),
        }
    )
    # Derived from frozen fields only, so the memo can never go stale.
    object.__setattr__(config, "_trace_key_memo", (versions, digest))
    return digest


class TraceStore:
    """Directory of trace artifacts keyed by :func:`trace_key`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, config: "ExperimentConfig") -> Path:
        return self.root / f"{trace_key(config)}{_SUFFIX}"

    def exists(self, config: "ExperimentConfig") -> bool:
        """Whether an artifact whose seal verifies is stored for this
        config's behaviour, so a scheduler plans a replay only on one."""
        return isinstance(artifacts.read(self.path_for(config)), artifacts.Sealed)

    def keys(self) -> list[str]:
        return sorted(
            p.name[: -len(_SUFFIX)] for p in self.root.glob(f"*{_SUFFIX}")
        )

    def save(self, config: "ExperimentConfig", trace: WorkloadTrace) -> Path:
        """Atomically persist one sealed trace artifact (making the root
        again if it was removed since the store was made).  A failed
        write leaves no temporary file; an ``OSError`` is counted as
        ``save_failed`` and re-raised."""
        header, columns = _encode(trace)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            return artifacts.write(self.path_for(config), header, columns)
        except OSError:
            _STATS["save_failed"] += 1
            raise

    def load(self, config: "ExperimentConfig") -> WorkloadTrace | None:
        """The stored trace for this config's behaviour, or ``None``.

        Missing, unreadable, corrupted, version-skewed or
        checksum-failing artifacts all resolve to a miss — the caller
        captures (or simulates) instead of trusting a stale trace.
        """
        path = self.path_for(config)
        key = str(path)
        # The clock is read before the stat: a write after the stat
        # stamps a ctime no earlier than ``now``.
        now = _clock_ns()
        try:
            stat = path.stat()
        except OSError:
            _STATS["missing"] += 1
            return None
        signature = (
            stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns
        )
        entry = _LOAD_CACHE.get(key)
        if entry is not None and entry.signature != signature:
            # The artifact changed since it was decoded.
            del _LOAD_CACHE[key]
            entry = None
        if entry is not None and entry.settled:
            _LOAD_CACHE.move_to_end(key)
            _fit_budget()
            _STATS["settled_hits"] += 1
            return entry.trace
        settled = now - max(stat.st_mtime_ns, stat.st_ctime_ns) > _SETTLE_NS
        # Taken before the read, so a write in between leaves the entry a
        # digest older than its trace: the next load decodes again.
        digest = artifacts.digest(path)
        if entry is not None and digest == entry.digest:
            _LOAD_CACHE[key] = entry._replace(settled=settled)
            _LOAD_CACHE.move_to_end(key)
            _fit_budget()
            _STATS["verified_hits"] += 1
            return entry.trace
        sealed = artifacts.read(path)
        if isinstance(sealed, artifacts.Miss):
            _STATS[sealed.reason] += 1
            return None
        try:
            trace = _decode(sealed)
        except (LookupError, TypeError, ValueError):  # not a trace's layout
            _STATS["corrupt"] += 1
            return None
        if (
            trace.format_version != TRACE_FORMAT_VERSION
            or trace.engine_version != ENGINE_VERSION
        ):
            _STATS["version_skew"] += 1
            return None
        if not trace.intact:
            _STATS["checksum"] += 1
            return None
        # An entry left here has the same signature but other bytes.
        _LOAD_CACHE.pop(key, None)
        _LOAD_CACHE[key] = _Entry(trace, footprint(trace), signature, digest, settled)
        _fit_budget()
        _STATS["decodes"] += 1
        return trace


#: The fields of a trace, and of each of its task sets, that an
#: artifact's header holds.
_SCALARS = (
    "format_version", "engine_version", "behavior", "workload", "size",
    "measured_from", "checksum",
)
_PROVENANCE = ("stage_id", "name", "attempt", "hdfs_path", "is_shuffle_map")


def _encode(trace: WorkloadTrace) -> tuple[dict[str, t.Any], dict[str, np.ndarray]]:
    """``trace`` as an artifact's header fields and columns."""
    header = {name: getattr(trace, name) for name in _SCALARS}
    header["jobs"] = [
        {
            "job_id": job.job_id,
            "name": job.name,
            "task_sets": [
                {**{f: getattr(ts, f) for f in _PROVENANCE}, "num_tasks": ts.num_tasks}
                for ts in job.task_sets
            ],
        }
        for job in trace.jobs
    ]
    task_sets = [ts for job in trace.jobs for ts in job.task_sets]
    columns = {
        name: np.concatenate([ts.floats[name] for ts in task_sets]) for name in FLOAT_FIELDS
    }
    for name in INT_FIELDS:
        columns[name] = np.concatenate([ts.ints[name] for ts in task_sets])
    for kind in IO_KINDS:
        for i, part in enumerate(("offsets", "values")):
            columns[f"{kind}.{part}"] = np.concatenate([ts.io[kind][i] for ts in task_sets])
    columns["outcome"] = np.array([trace.verified, trace.records_processed], np.int64)
    return header, columns


def _decode(sealed: artifacts.Sealed) -> WorkloadTrace:
    """The trace in ``sealed``, its columns split into per-task-set copies;
    raises ``LookupError``, ``TypeError`` or ``ValueError`` if not a trace."""
    header = sealed.header
    specs = [ts for job in header["jobs"] for ts in job["task_sets"]]
    counts = [spec["num_tasks"] for spec in specs]
    parts = {name: _split(sealed, name, counts) for name in (*FLOAT_FIELDS, *INT_FIELDS)}
    for kind in IO_KINDS:
        offsets = _split(sealed, f"{kind}.offsets", [n + 1 for n in counts])
        values = _split(sealed, f"{kind}.values", [int(own[-1]) for own in offsets])
        parts[kind] = list(zip(offsets, values))
    task_sets = iter(
        [
            TaskSetTrace(
                **{f: spec[f] for f in _PROVENANCE},
                floats={name: parts[name][i] for name in FLOAT_FIELDS},
                ints={name: parts[name][i] for name in INT_FIELDS},
                io={kind: parts[kind][i] for kind in IO_KINDS},
            )
            for i, spec in enumerate(specs)
        ]
    )
    jobs = [
        JobTrace(job["job_id"], job["name"], [next(task_sets) for _ in job["task_sets"]])
        for job in header["jobs"]
    ]
    ((verified, records_processed),) = _split(sealed, "outcome", [2])
    return WorkloadTrace(
        **{name: header[name] for name in _SCALARS},
        jobs=jobs,
        verified=bool(verified),
        records_processed=int(records_processed),
    )


def _split(sealed: artifacts.Sealed, name: str, counts: list[int]) -> list[np.ndarray]:
    """Column ``name`` cut into copies of ``counts`` elements each."""
    column = sealed.columns[name]
    ends = itertools.accumulate(counts)
    return [column[end - n : end].copy() for n, end in zip(counts, ends)]


def _charge(entry: _Entry) -> int:
    """What ``entry`` holds now: its decoded trace, and the replay plan
    and delta tables compiled onto it since the decode."""
    return entry.nbytes + plan_bytes(entry.trace)


def _fit_budget() -> None:
    """Evict least recently used entries until the charges fit
    ``_LOAD_CACHE_BYTES``; the newest entry, the one just served, stays."""
    held = sum(map(_charge, _LOAD_CACHE.values()))
    while held > _LOAD_CACHE_BYTES and len(_LOAD_CACHE) > 1:
        _, evicted = _LOAD_CACHE.popitem(last=False)
        held -= _charge(evicted)
