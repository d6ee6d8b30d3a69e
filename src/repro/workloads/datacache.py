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
  float64 columns round-trip exactly; a decoder reads the generator
  parameters it needs (the codec's ``meta``) from those the key is made
  of.
- **Sealed artifacts** (:mod:`repro.artifacts`, as traces are): written
  atomically, mapped, verified and decoded from zero-copy views.  The
  seal covers the header, its column table and the artifact's own key,
  so an artifact that verifies holds what :meth:`DatasetCache.store`
  sealed under that key: the columns the generator returned for those
  parameters.  A torn or corrupted file, one in an older container, or
  one copied from another key is a miss, never wrong data.  Nothing
  decoded is kept here.  Within one process, datagen's memo answers a
  direct run's repeats before they reach this module.  A trace capture
  keeps its dataset only for the later captures of a serial campaign
  that share it, so a later direct run of its class (a fault-injected
  point, a fallback after a replay divergence) reads the artifact it
  wrote.

The hit, miss and store counters (:func:`stats`) feed the benchmark
harness's ``workloads.datacache_hits`` and ``_misses`` and the per-class
counts of ``benchmarks/test_engine_wallclock.py``; ``repro.perf``'s
``datagen.cache`` target times :meth:`DatasetCache.load` and
:meth:`DatasetCache.store`.
"""

from __future__ import annotations

import typing as t
from pathlib import Path

import numpy as np

from repro import artifacts

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

_SUFFIX = ".dataset.bin"

#: A generated dataset as its artifact stores it: named numpy columns.
Columns = dict[str, np.ndarray]

#: Cumulative counters for perf attribution and benchmark assertions.
_STATS = {"hits": 0, "misses": 0, "stores": 0, "store_failed": 0, "memo_hits": 0}


# ------------------------------------------------------------------- codecs --
#: Builds a dataset's records from its columns and meta.
_Decode = t.Callable[[Columns, dict], list]


class _Codec(t.NamedTuple):
    decode: _Decode
    #: The generator parameters ``decode`` reads (its meta).
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
    return artifacts.canonical_key(
        {
            "datacache": DATACACHE_VERSION,
            "numpy": np.__version__,
            "generator": name,
            "params": params,
        }
    )


class DatasetCache:
    """Directory of sealed dataset artifacts keyed by :func:`dataset_key`."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str, params: dict) -> Path:
        return self.root / f"{dataset_key(name, params)}{_SUFFIX}"

    def store(self, name: str, params: dict, columns: Columns) -> Path:
        """Atomically persist one dataset's columns."""
        header = {
            "version": DATACACHE_VERSION,
            "generator": name,
            "meta": _CODECS[name].meta(params),
        }
        target = artifacts.write(self.path_for(name, params), header, columns)
        _STATS["stores"] += 1
        return target

    def load(self, name: str, params: dict) -> list | None:
        """Decode the stored dataset, or ``None`` if
        :func:`repro.artifacts.read` refuses its artifact.  One it
        verifies holds what :meth:`store` sealed under this key.  The
        caller regenerates (and overwrites the bad artifact)."""
        sealed = artifacts.read(self.path_for(name, params))
        if isinstance(sealed, artifacts.Miss):
            return None
        codec = _CODECS[name]
        try:
            return codec.decode(sealed.columns, codec.meta(params))
        except Exception:  # noqa: BLE001 - undecodable artifact == miss
            return None


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
