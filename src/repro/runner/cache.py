"""Content-addressed result cache backing campaign resumption.

Layout: one :class:`~repro.analysis.resultstore.ResultStore` JSON-lines
file (``results.jsonl``) inside the cache directory.  Each row is a full
``result_to_dict`` record plus a ``"key"`` field holding the config's
:func:`~repro.runner.hashing.config_hash`.  Appending is atomic enough
for a single-writer campaign (workers return results to the supervisor,
which is the only process that writes), and an interrupted campaign
leaves a valid store — re-running the same campaign replays the finished
points as cache hits and executes only the remainder.
"""

from __future__ import annotations

import json
import typing as t
from pathlib import Path

from repro.analysis.resultstore import ResultStore, result_from_dict, result_to_dict
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.runner.hashing import config_hash

#: File name of the store inside a cache directory.
CACHE_FILE = "results.jsonl"

#: Appends that raised an ``OSError`` (a full or read-only disk) since
#: the last :func:`reset_stats`; each result was still returned.
_STATS = {"put_failed": 0}


def stats() -> dict[str, int]:
    return dict(_STATS)


def reset_stats() -> None:
    _STATS["put_failed"] = 0


class ResultCache:
    """Maps ``config_hash(config)`` → :class:`ExperimentResult`.

    In-memory index over a durable append-only store.  Failed points are
    never cached — only completed, deserializable results — so a crash
    or bad config is retried on resume instead of being replayed.
    """

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        # Accept either a directory (the usual --cache-dir) or a direct
        # file path (handy in tests).
        self.path = path / CACHE_FILE if not path.suffix else path
        self.store = ResultStore(self.path)
        self._rows: dict[str, dict[str, t.Any]] = {}
        self._loaded = False

    def load(self) -> int:
        """Index the durable store; returns the number of usable rows.

        Rows that fail to parse (e.g. a line truncated by a kill mid-
        write) are skipped, not fatal — resumability must survive an
        unclean shutdown.
        """
        self._rows.clear()
        for row in self._load_rows():
            key = row.get("key")
            if key and "telemetry" in row:
                self._rows[key] = row
        self._loaded = True
        return len(self._rows)

    def _load_rows(self) -> list[dict[str, t.Any]]:
        if not self.path.exists():
            return []
        rows: list[dict[str, t.Any]] = []
        with self.path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        return rows

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self.load()

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._rows)

    def __contains__(self, config: ExperimentConfig) -> bool:
        self._ensure_loaded()
        return config_hash(config) in self._rows

    def get(self, config: ExperimentConfig) -> ExperimentResult | None:
        self._ensure_loaded()
        row = self._rows.get(config_hash(config))
        return result_from_dict(row) if row is not None else None

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> None:
        self._ensure_loaded()
        key = config_hash(config)
        if key in self._rows:
            return
        row = {"key": key, **result_to_dict(result)}
        try:
            self.store.append_row(row)
        except OSError:
            # A full or read-only cache directory costs the resumption,
            # not the result: this process still serves it.
            _STATS["put_failed"] += 1
        self._rows[key] = row

    def clear(self) -> None:
        self.store.clear()
        self._rows.clear()
        self._loaded = True
