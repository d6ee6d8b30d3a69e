"""Content-addressed on-disk cache of generated dataset artifacts.

The HiBench-style ``prepare`` phase regenerates every seeded dataset
once per *process* (``datagen``'s in-memory memo only helps within one
interpreter).  A campaign's captures therefore pay full RNG
generation per behaviour class per worker, and every fresh benchmark
pass pays it again.  This module gives datasets the same discipline
:class:`~repro.trace.store.TraceStore` gives traces:

- **Content-addressed artifacts** under the cache root, one file per
  :func:`dataset_key`: the datacache version, the numpy version, the
  generator's name and its bound parameters (defaults applied).
  Workload, size profile and seed are all part of the generator's
  arguments, so any config sharing a dataset resolves to the same
  artifact.
- **Columnar numpy payloads, one decode path**: every generator in
  :mod:`repro.workloads.datagen` returns the flat numpy columns its
  artifact stores (token ids, CSR offsets, ASCII blobs…), and
  :func:`fetch` stores them as they are.  A registered codec's
  ``decode`` is the only code that builds records: it runs on freshly
  generated columns and on columns mapped from disk alike, so a cache
  hit returns what generation returns by construction.  Integer and
  float64 columns round-trip exactly; the generator parameters a
  decoder needs (the codec's ``meta`` keys) travel in the header.
- **Atomic, sha256-sealed writes**: payload is assembled in memory,
  written to a temp file and renamed into place; the header records the
  SHA-256 of the column region and loads verify it, so torn or
  corrupted files (and version-skewed ones) are misses, never wrong
  data.  Concurrent writers race harmlessly — both write identical
  bytes.
- **Memory-mapped loads**: artifacts are mapped, verified and decoded
  from zero-copy views.  Nothing decoded is kept here: repeats within
  one process are answered by ``datagen``'s memo before they reach
  this module.

Hit/miss/store counters feed ``repro.perf``'s ``datagen.cache`` target
and the benchmark harness's second-pass hit assertion.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
import typing as t
from pathlib import Path

import numpy as np

__all__ = [
    "DATACACHE_VERSION",
    "Columns",
    "DatasetCache",
    "active",
    "configure",
    "deactivate",
    "fetch",
    "reset_stats",
    "stats",
]

#: Bump to invalidate every stored dataset artifact (codec change).
DATACACHE_VERSION = 1

_MAGIC = b"RDSC"
_SUFFIX = ".dataset.bin"
_ALIGN = 64

#: A generated dataset as its artifact stores it: named numpy columns.
Columns = dict[str, np.ndarray]

#: Cumulative counters for perf attribution and benchmark assertions.
_STATS = {"hits": 0, "misses": 0, "stores": 0, "store_failed": 0, "memo_hits": 0}


# ------------------------------------------------------------------- codecs --
#: Builds a dataset's records from its columns and meta.
_Decode = t.Callable[[Columns, dict], list]


class _Codec(t.NamedTuple):
    decode: _Decode
    #: Generator parameters ``decode`` reads, stored as the meta.
    meta_keys: tuple[str, ...]

    def meta(self, params: dict) -> dict:
        return {key: params[key] for key in self.meta_keys}


_CODECS: dict[str, _Codec] = {}


def _codec(name: str, *meta_keys: str) -> t.Callable[[_Decode], _Decode]:
    def register(decode: _Decode) -> _Decode:
        _CODECS[name] = _Codec(decode, meta_keys)
        return decode

    return register


@_codec("random_text_records", "record_len")
def _text_records(columns: Columns, meta: dict) -> list:
    record_len = meta["record_len"]
    text = columns["blob"].tobytes().decode("ascii")
    return [
        text[start : start + record_len]
        for start in range(0, len(text), record_len)
    ]


@_codec("zipf_words", "vocabulary")
def _zipf_words(columns: Columns, meta: dict) -> list:
    names = [f"word{rank}" for rank in range(1, meta["vocabulary"] + 1)]
    return [names[rank - 1] for rank in columns["ranks"].tolist()]


@_codec("rating_triples")
def _rating_triples(columns: Columns, meta: dict) -> list:
    return list(
        zip(
            columns["users"].tolist(),
            columns["products"].tolist(),
            columns["ratings"].tolist(),
        )
    )


@_codec("labeled_documents", "vocabulary")
def _labeled_documents(columns: Columns, meta: dict) -> list:
    # Gather the interned name strings in C: fancy-indexing an object
    # array emits the same str objects per id as a per-element lookup,
    # row by row.
    names = np.array(
        [f"w{word}" for word in range(meta["vocabulary"])], dtype=object
    )
    labels = columns["labels"].tolist()
    return list(zip(labels, names[columns["word_ids"]].tolist()))


@_codec("labeled_vectors")
def _labeled_vectors(columns: Columns, meta: dict) -> list:
    # Copy out of the mapping: callers receive writable row views of
    # one contiguous matrix.
    points = np.array(columns["points"], dtype=np.float64)
    return list(zip(columns["labels"].tolist(), points))


@_codec("bag_of_words_docs")
def _bag_of_words(columns: Columns, meta: dict) -> list:
    return columns["word_ids"].tolist()


@_codec("web_graph")
def _web_graph(columns: Columns, meta: dict) -> list:
    # CSR: page ids are dense 0..n-1, so only offsets + targets exist.
    offsets = columns["offsets"].tolist()
    targets = columns["targets"].tolist()
    return [
        (page, targets[offsets[page] : offsets[page + 1]])
        for page in range(len(offsets) - 1)
    ]


# -------------------------------------------------------------------- store --
def dataset_key(name: str, params: dict) -> str:
    """Stable hex digest for one generated dataset.

    Folds in the codec version and the numpy version: RNG streams are a
    numpy contract, so artifacts generated under a different numpy
    build must miss rather than impersonate freshly generated data.
    """
    canonical = json.dumps(
        {
            "datacache": DATACACHE_VERSION,
            "numpy": np.__version__,
            "generator": name,
            "params": params,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class DatasetCache:
    """Directory of sealed dataset artifacts keyed by :func:`dataset_key`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str, params: dict) -> Path:
        return self.root / f"{dataset_key(name, params)}{_SUFFIX}"

    def keys(self) -> list[str]:
        return sorted(
            p.name[: -len(_SUFFIX)] for p in self.root.glob(f"*{_SUFFIX}")
        )

    # ---------------------------------------------------------------- write --
    def store(self, name: str, params: dict, columns: Columns) -> Path | None:
        """Atomically persist one dataset's columns; None if no codec."""
        codec = _CODECS.get(name)
        if codec is None:
            return None
        ordered = [
            (col_name, np.ascontiguousarray(arr))
            for col_name, arr in sorted(columns.items())
        ]
        table = []
        offset = 0
        for col_name, arr in ordered:
            offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
            table.append(
                {
                    "name": col_name,
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                }
            )
            offset += arr.nbytes
        payload = bytearray(offset)
        for entry, (_, arr) in zip(table, ordered):
            start = entry["offset"]
            payload[start : start + arr.nbytes] = arr.tobytes()
        header = json.dumps(
            {
                "version": DATACACHE_VERSION,
                "generator": name,
                "meta": codec.meta(params),
                "columns": table,
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        target = self.path_for(name, params)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(len(header).to_bytes(8, "little"))
                handle.write(header)
                data_start = _aligned_data_start(len(header))
                handle.write(b"\0" * (data_start - 12 - len(header)))
                handle.write(payload)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _STATS["stores"] += 1
        return target

    # ----------------------------------------------------------------- read --
    def load(self, name: str, params: dict) -> list | None:
        """Decode the stored dataset, or ``None`` on any kind of miss.

        Missing file, bad magic, unparsable header, version skew, seal
        mismatch and codec absence all resolve to a miss — the caller
        regenerates (and overwrites the bad artifact).
        """
        codec = _CODECS.get(name)
        if codec is None:
            return None
        try:
            with open(self.path_for(name, params), "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                try:
                    return self._decode(mapped, name, codec)
                finally:
                    mapped.close()
        except (OSError, ValueError):
            return None

    def _decode(
        self, mapped: mmap.mmap, name: str, codec: _Codec
    ) -> list | None:
        if len(mapped) < 12 or mapped[:4] != _MAGIC:
            return None
        header_len = int.from_bytes(mapped[4:12], "little")
        if len(mapped) < 12 + header_len:
            return None
        try:
            header = json.loads(mapped[12 : 12 + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            header.get("version") != DATACACHE_VERSION
            or header.get("generator") != name
        ):
            return None
        data_start = _aligned_data_start(header_len)
        view = memoryview(mapped)[data_start:]
        if hashlib.sha256(view).hexdigest() != header.get("payload_sha256"):
            return None
        columns: Columns = {}
        for entry in header["columns"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(
                view, dtype=dtype, count=count, offset=entry["offset"]
            ).reshape(shape)
            columns[entry["name"]] = arr
        try:
            return codec.decode(columns, header.get("meta", {}))
        except Exception:  # noqa: BLE001 - undecodable artifact == miss
            return None


def _aligned_data_start(header_len: int) -> int:
    return (12 + header_len + _ALIGN - 1) & ~(_ALIGN - 1)


# ------------------------------------------------------------- active cache --
_ACTIVE: DatasetCache | None = None


def configure(root: str | Path | None) -> DatasetCache | None:
    """Install (or, with ``None``, remove) the process-wide cache."""
    global _ACTIVE
    _ACTIVE = DatasetCache(root) if root is not None else None
    return _ACTIVE


def deactivate() -> None:
    configure(None)


def active() -> DatasetCache | None:
    return _ACTIVE


def stats() -> dict[str, int]:
    """Cumulative fetch counters: hits, misses, stores, ``store_failed``
    (a store that raised an ``OSError``, e.g. on a full disk; the
    records are still returned) and memo_hits."""
    return dict(_STATS)


def reset_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def note_memo_hit() -> None:
    """Record that datagen's in-process memo answered a request."""
    _STATS["memo_hits"] += 1


def fetch(
    name: str,
    params: dict,
    generate: t.Callable[[], Columns],
) -> list:
    """Records of the dataset ``(name, params)``.

    Loaded from the active artifact cache if possible.  A miss (no
    active cache, or a missing, corrupt or stale artifact) runs
    ``generate()`` for the dataset's columns, stores them as they are
    when a cache is active, and builds the records with the codec's
    ``decode``, the function a hit runs.
    """
    cache = _ACTIVE
    if cache is not None:
        hit = cache.load(name, params)
        if hit is not None:
            _STATS["hits"] += 1
            return hit
        _STATS["misses"] += 1
    columns = generate()
    if cache is not None:
        try:
            cache.store(name, params, columns)
        except OSError:
            # A read-only or full cache directory must not fail generation.
            _STATS["store_failed"] += 1
    codec = _CODECS[name]
    return codec.decode(columns, codec.meta(params))
