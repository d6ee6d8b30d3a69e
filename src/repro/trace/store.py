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
Loads go through a per-process LRU keyed on the artifact's size,
``mtime_ns`` *and* a SHA-256 prefix of its bytes, so a serial campaign
replaying one behaviour class across twelve tier/MBA points
decompresses its artifact once, not twelve times — and a same-mtime
overwrite (two captures landing within the filesystem's timestamp
granularity) can never serve the stale content, because the content
digest disagrees even when the stat signature does not.  The LRU is
bounded by the artifact bytes it holds, not by entry count, so every
behaviour class of the paper's grid stays decoded (together with the
replay plan :mod:`repro.trace.fastreplay` compiles onto it) however
many classes a campaign or service cycles through.

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

#: Per-process load cache:
#: (path, size, mtime_ns, sha256 prefix) -> (WorkloadTrace, artifact bytes).
_LOAD_CACHE: "OrderedDict[tuple[str, int, int, str], tuple[WorkloadTrace, int]]" = (
    OrderedDict()
)
#: Artifact bytes the load cache may hold; the least recently used
#: traces go first, the newest always stays.  All 21 paper behaviour
#: classes (7 workloads x tiny/small/large) take ~6.2 MB together.
_LOAD_CACHE_BYTES = 16 * 2**20


def trace_key(config: "ExperimentConfig") -> str:
    """Stable hex digest addressing one behaviour class of configs.

    Configs differing only in tier/MBA/socket/label share a key (their
    traces are interchangeable); a new engine or trace-format version
    changes every key, invalidating stale artifacts wholesale.
    """
    canonical = json.dumps(
        {
            "engine": ENGINE_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
            "behavior": behavior_dict(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
        """Atomically persist one sealed trace artifact."""
        target = self.path_for(config)
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
        try:
            stat = path.stat()
            payload = path.read_bytes()
        except OSError:
            return None
        digest = hashlib.sha256(payload).hexdigest()[:16]
        cache_key = (str(path), stat.st_size, stat.st_mtime_ns, digest)
        cached = _LOAD_CACHE.get(cache_key)
        if cached is not None:
            _LOAD_CACHE.move_to_end(cache_key)
            return cached[0]
        try:
            trace = pickle.loads(gzip.decompress(payload))
        except Exception:  # noqa: BLE001 - corrupt artifact == miss
            return None
        if not isinstance(trace, WorkloadTrace):
            return None
        if (
            trace.format_version != TRACE_FORMAT_VERSION
            or trace.engine_version != ENGINE_VERSION
            or not trace.intact
        ):
            return None
        _LOAD_CACHE[cache_key] = (trace, len(payload))
        held = sum(nbytes for _, nbytes in _LOAD_CACHE.values())
        while held > _LOAD_CACHE_BYTES and len(_LOAD_CACHE) > 1:
            _, (_, evicted) = _LOAD_CACHE.popitem(last=False)
            held -= evicted
        return trace
