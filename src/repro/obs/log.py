"""Structured JSON logging with job/span correlation.

One :class:`StructuredLog` writes newline-delimited JSON events, each a
flat object with a ``ts`` (monotonic-ish wall clock), ``level``,
``event`` name, and whatever correlation fields the emitting layer
bound — ``job``, ``span``, ``client``, ``config``, ``component``...  Layers
never pass correlation explicitly per call: they :meth:`bind` once and
log through the returned child, so the service can bind ``job=...`` at
admission and every downstream line carries it.

The module-level :func:`get_log` is the process-wide log used by code
paths that have no observer plumbed through (scheduler fault
mitigation, campaign pool workers).  It is lazily configured from the
``REPRO_LOG_PATH`` environment variable — the service/CLI sets the
variable before forking workers, so ProcessPoolExecutor children
append to the same file — and is a no-op sink when unset, preserving
the zero-overhead-when-disabled discipline.

Every log keeps a bounded in-memory tail (most recent events) which the
flight recorder folds into post-mortem dumps.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import typing as t
from collections import deque

#: Environment variable naming the log file inherited by worker processes.
LOG_PATH_ENV = "REPRO_LOG_PATH"

#: Events retained in the in-memory tail for flight-recorder dumps.
DEFAULT_TAIL = 256

LEVELS = ("debug", "info", "warning", "error")


class StructuredLog:
    """A JSON-lines event log with bound correlation fields.

    ``path`` is opened lazily in append mode (safe across processes on
    POSIX for line-sized writes); ``stream`` writes to an open text
    stream instead; with neither, events only land in the in-memory
    tail.  :meth:`bind` returns a child sharing the sink and tail but
    carrying extra fields on every event.
    """

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        *,
        stream: t.TextIO | None = None,
        fields: t.Mapping[str, t.Any] | None = None,
        tail: int = DEFAULT_TAIL,
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._stream = stream
        self._file: t.TextIO | None = None
        self.fields: dict[str, t.Any] = dict(fields or {})
        self._tail: deque[dict[str, t.Any]] = deque(maxlen=max(1, tail))
        self._lock = threading.Lock()
        self._parent: StructuredLog | None = None

    # -- correlation -----------------------------------------------------------
    def bind(self, **fields: t.Any) -> "StructuredLog":
        """A child log whose events all carry ``fields`` (merged over
        this log's bound fields; the sink and tail are shared)."""
        child = StructuredLog.__new__(StructuredLog)
        child.path = self.path
        child._stream = self._stream
        child._file = None
        child.fields = {**self.fields, **fields}
        root = self._parent or self
        child._tail = root._tail
        child._lock = root._lock
        child._parent = root
        return child

    # -- emission --------------------------------------------------------------
    def write(self, event: str, *, level: str = "info", **fields: t.Any) -> dict:
        """Emit one event; returns the record that was written."""
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        record: dict[str, t.Any] = {
            "ts": round(time.time(), 6),
            "level": level,
            "event": event,
        }
        record.update(self.fields)
        record.update(fields)
        root = self._parent or self
        with root._lock:
            root._tail.append(record)
            sink = self._sink()
            if sink is not None:
                # Only a configured sink pays for the JSON encoding.
                sink.write(json.dumps(record, sort_keys=True, default=str) + "\n")
                sink.flush()
        return record

    def debug(self, event: str, **fields: t.Any) -> dict:
        return self.write(event, level="debug", **fields)

    def info(self, event: str, **fields: t.Any) -> dict:
        return self.write(event, level="info", **fields)

    def warning(self, event: str, **fields: t.Any) -> dict:
        return self.write(event, level="warning", **fields)

    def error(self, event: str, **fields: t.Any) -> dict:
        return self.write(event, level="error", **fields)

    def _sink(self) -> t.TextIO | None:
        if self._stream is not None:
            return self._stream
        if self.path is None:
            return None
        root = self._parent or self
        if root._file is None or root._file.closed:
            root._file = open(root.path, "a", encoding="utf-8")
        return root._file

    # -- reads / lifecycle -----------------------------------------------------
    def tail(self, limit: int | None = None) -> list[dict[str, t.Any]]:
        """The most recent events (oldest first)."""
        root = self._parent or self
        with root._lock:
            events = list(root._tail)
        if limit is not None:
            events = events[-limit:]
        return events

    def close(self) -> None:
        root = self._parent or self
        with root._lock:
            if root._file is not None and not root._file.closed:
                root._file.close()
            root._file = None


def read_log(path: str | os.PathLike[str]) -> list[dict[str, t.Any]]:
    """Parse a JSON-lines log file back into records (strict)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad log line") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: log record is not an object")
            records.append(record)
    return records


_GLOBAL: StructuredLog | None = None
_GLOBAL_LOCK = threading.Lock()


def configure(
    path: str | os.PathLike[str] | None = None,
    *,
    stream: t.TextIO | None = None,
    export_env: bool = True,
) -> StructuredLog:
    """Install the process-wide log returned by :func:`get_log`.

    With ``export_env`` (default) the path is also published in
    ``REPRO_LOG_PATH`` so worker processes spawned later inherit it.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is not None:
            _GLOBAL.close()
        _GLOBAL = StructuredLog(path, stream=stream)
        if export_env:
            if path is not None:
                os.environ[LOG_PATH_ENV] = os.fspath(path)
            else:
                os.environ.pop(LOG_PATH_ENV, None)
    return _GLOBAL


def get_log() -> StructuredLog:
    """The process-wide structured log.

    Lazily initialised: if ``REPRO_LOG_PATH`` is set (e.g. by a service
    parent before forking pool workers) events go there, otherwise the
    log is an in-memory-tail-only sink — emitting is cheap and nothing
    is written.
    """
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = StructuredLog(os.environ.get(LOG_PATH_ENV))
    return _GLOBAL


def reset() -> None:
    """Drop the process-wide log (tests)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is not None:
            _GLOBAL.close()
        _GLOBAL = None


def stderr_log() -> StructuredLog:
    """A log writing to stderr (the ``--log-json`` CLI sink)."""
    return StructuredLog(stream=sys.stderr)
