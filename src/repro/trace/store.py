"""Content-addressed on-disk store for captured workload traces.

Artifacts live beside the campaign's :class:`~repro.runner.cache.ResultCache`
(``<cache_dir>/traces/``), one gzipped pickle per behaviour key::

    <root>/<trace_key>.trace.pkl.gz

The key is the SHA-256 of the canonical JSON of the config's *behaviour*
fields (workload, size, executor geometry, faults, speculation — tier,
MBA level, CPU socket and label excluded) plus the engine and trace
format versions, so any config sharing the behaviour resolves to the
same artifact and artifacts from older engines simply miss.

Writes are atomic (temp file + rename): two campaign workers capturing
the same behaviour key race harmlessly — both write identical content.
Loads go through a per-process LRU of decoded traces, one entry per
artifact path, so a serial campaign replaying one behaviour class
across twelve tier/MBA points decompresses its artifact once, not
twelve times.  An entry keeps the stat signature ``(st_dev, st_ino,
st_size, st_mtime_ns, st_ctime_ns)`` and a SHA-256 prefix of the bytes
it was decoded from, and a load serves it in one of two ways:

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

Every other load reads, digests and, on a new digest, decodes.  The LRU
is bounded by the artifact bytes it holds, not by entry count, so every
behaviour class of the paper's grid stays decoded (together with the
replay plan :mod:`repro.trace.fastreplay` compiles onto it) however
many classes a campaign or service cycles through.  :func:`stats`
counts each load's outcome.

Pool workers of a campaign or the service read artifacts the same way:
each worker process keeps its own LRU, so a worker decodes a behaviour
class once and every later point of that class it runs is a cache hit.
Nothing but the config and the directory roots travels with a pooled
point, and every decode checks the format and engine versions and the
checksum before the trace is cached.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import pickle
import tempfile
import time
import typing as t
from collections import OrderedDict
from pathlib import Path

from repro.trace.capture import behavior_dict
from repro.trace.records import WorkloadTrace
from repro.version import ENGINE_VERSION, TRACE_FORMAT_VERSION

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.experiment import ExperimentConfig

_SUFFIX = ".trace.pkl.gz"

#: Artifacts are write-once/read-many scratch files whose payloads
#: (pickled float columns) barely deflate, so level 0 — gzip framing
#: with stored blocks — trades a ~1.5x larger file for a save that
#: costs ~50x less CPU during the capture phase.  The format stays
#: plain gzip, so readers (and old artifacts) are unaffected.
_GZIP_LEVEL = 0

#: An artifact's stat signature: (st_dev, st_ino, st_size, st_mtime_ns,
#: st_ctime_ns).
_Signature = tuple[int, int, int, int, int]


class _Entry(t.NamedTuple):
    """One decoded artifact in the load cache."""

    trace: WorkloadTrace
    #: Artifact bytes, counted against ``_LOAD_CACHE_BYTES``.
    nbytes: int
    signature: _Signature
    #: SHA-256 prefix of the bytes ``trace`` was decoded from.
    digest: str
    #: Read and digested more than ``_SETTLE_NS`` after the artifact's
    #: last mtime and ctime: an equal signature alone serves it.
    settled: bool


#: Per-process load cache: artifact path -> its decoded entry.
_LOAD_CACHE: "OrderedDict[str, _Entry]" = OrderedDict()
#: Artifact bytes the load cache may hold; the least recently used
#: traces go first, the newest always stays.  All 21 paper behaviour
#: classes (7 workloads x tiny/small/large) take ~6.2 MB together.
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
}


def stats() -> dict[str, int]:
    """Cumulative load outcomes: ``settled_hits`` (served on the stat
    signature alone), ``verified_hits`` (bytes read and digested),
    ``decodes``, and the misses ``missing``, ``corrupt`` (unreadable,
    undecodable or not a trace), ``version_skew`` and ``checksum``."""
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
    canonical = json.dumps(
        {
            "engine": ENGINE_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
            "behavior": behavior_dict(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
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
        return self.path_for(config).exists()

    def keys(self) -> list[str]:
        return sorted(
            p.name[: -len(_SUFFIX)] for p in self.root.glob(f"*{_SUFFIX}")
        )

    def save(self, config: "ExperimentConfig", trace: WorkloadTrace) -> Path:
        """Atomically persist one sealed trace artifact (making the root
        again if it was removed since the store was made)."""
        target = self.path_for(config)
        self.root.mkdir(parents=True, exist_ok=True)
        payload = gzip.compress(
            pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL), _GZIP_LEVEL
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target

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
            _STATS["settled_hits"] += 1
            return entry.trace
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            _STATS["missing"] += 1
            return None
        except OSError:
            _STATS["corrupt"] += 1
            return None
        digest = hashlib.sha256(payload).hexdigest()[:16]
        settled = now - max(stat.st_mtime_ns, stat.st_ctime_ns) > _SETTLE_NS
        if entry is not None and entry.digest == digest:
            _LOAD_CACHE[key] = entry._replace(settled=settled)
            _LOAD_CACHE.move_to_end(key)
            _STATS["verified_hits"] += 1
            return entry.trace
        try:
            trace = pickle.loads(gzip.decompress(payload))
        except Exception:  # noqa: BLE001 - corrupt artifact == miss
            trace = None
        if not isinstance(trace, WorkloadTrace):
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
        _LOAD_CACHE[key] = _Entry(trace, len(payload), signature, digest, settled)
        held = sum(cached.nbytes for cached in _LOAD_CACHE.values())
        while held > _LOAD_CACHE_BYTES and len(_LOAD_CACHE) > 1:
            _, evicted = _LOAD_CACHE.popitem(last=False)
            held -= evicted.nbytes
        _STATS["decodes"] += 1
        return trace
