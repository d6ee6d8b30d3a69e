"""Sealed artifacts (:mod:`repro.artifacts`): the keys that name cached
results and artifacts, pinned, and one fault table for both artifact
kinds.  Each fault is a typed miss; the store then recomputes what a
direct run gives, rewrites the artifact, and the next load hits."""

from __future__ import annotations

import gzip
import hashlib
import json
import pickle
import typing as t
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro import artifacts
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.faults import FaultConfig
from repro.runner.hashing import config_hash
from repro.trace import TraceStore, capture_experiment, run_with_trace, trace_key
from repro.trace import store as trace_store
from repro.workloads import datacache, datagen
from repro.workloads.datacache import DATACACHE_VERSION, DatasetCache, dataset_key

# ------------------------------------------------------------- pinned keys

#: ``(config, config_hash, trace_key)``, computed before the three keys
#: shared one helper.  Results are ordered by ``config_hash`` (the
#: benchmark's digest too), and trace artifacts are named by
#: ``trace_key``: a change to either strands every stored artifact.
PINNED_CONFIG_KEYS = [
    (
        ExperimentConfig(workload="sort", size="tiny", tier=0),
        "d831bfffcd499afea8f54c172ddd1a5462307412f0c89cfc9001803e1d659700",
        "2dbd27f940e14b5b4b84aec453b91bfd1463cd26e2515522a330f343d92f690a",
    ),
    (
        ExperimentConfig(
            workload="pagerank", size="large", tier=3, mba_percent=40, label="probe"
        ),
        "2affb7e83906bcd11efdf08067e737f5396111f345c3607b6826f52f32465aeb",
        "ec32af1a760f6e893427b78c324edd99e48a92f4de96ce037f1796c08b75ff89",
    ),
    (
        ExperimentConfig(
            workload="lda", size="small", tier=2, num_executors=3, executor_cores=8
        ),
        "ccd5ed5ce8936c68c8a48bab39e29bcb686e1c45d04c68ebc62206336e4dcc4c",
        "9c66b04cf40aec74d86132e58af933db16f8d4d85588b301b313fbaca7db2f8e",
    ),
    (
        ExperimentConfig(
            workload="wordcount", size="tiny", tier=1,
            faults=FaultConfig(task_crash_prob=0.1, seed=3), speculation=True,
        ),
        "fdf64727db75cb4dfe7aa7019e225242b7a9d535dbb362ef8ffd846e7125b2ac",
        "ff90a8db13df2388f3e908a186a529b50c2dedeb386884cbd8927f68a384827f",
    ),
]

#: ``(generator, params, dataset_key)`` under numpy 2.4.6 (the key folds
#: in the numpy version; the test pins it).  Dataset artifacts are named
#: by these keys.
PINNED_DATASET_KEYS = [
    (
        "random_text_records", dict(n=64, record_len=16, seed=3),
        "dbfd9d0903b698eacdf355cb57c8f491278adaadcd4e6a0ad5c1125900678845",
    ),
    (
        "zipf_words", dict(n=128, vocabulary=50, exponent=1.3, seed=5),
        "c60f99563a465f284f541af58476cdd27e92ec5843917b1b92941c4935cfa2e3",
    ),
    (
        "rating_triples", dict(n_users=10, n_products=8, n_ratings=64, seed=7),
        "092a43c423c57390d04ee90aa69f9bb8ab0b1529b168ebed9593b4ef2b0c4cf9",
    ),
    (
        "labeled_documents",
        dict(n_docs=12, n_classes=3, vocabulary=40, words_per_doc=8, seed=9),
        "73fb8259bf223e0e09a1071c65dc70de5508207da66009b4d7ab93458b5f5680",
    ),
    (
        "labeled_vectors", dict(n_examples=20, n_features=5, n_classes=2, seed=11),
        "275054065c672dcca8299bbd8f0bd0224008bb841ad9da6882fa4b021aada5c3",
    ),
    (
        "bag_of_words_docs",
        dict(n_docs=10, vocabulary=30, n_topics=3, words_per_doc=12, seed=13),
        "16a922cfec54e3df79f73bb43451be1aa9a74fcaae8cbc2b1755e6da16f3b35f",
    ),
    (
        "web_graph", dict(n_pages=25, out_degree=4, seed=15),
        "531346c96d27d80770eefb35c0db2bd02574c719f6d555896856ae29b3640246",
    ),
]


@pytest.mark.parametrize("config,hashed,keyed", PINNED_CONFIG_KEYS)
def test_config_hash_and_trace_key_are_pinned(config, hashed, keyed):
    assert (config_hash(config), trace_key(config)) == (hashed, keyed)


@pytest.mark.parametrize("name,params,keyed", PINNED_DATASET_KEYS)
def test_dataset_key_is_pinned(monkeypatch, name, params, keyed):
    monkeypatch.setattr(np, "__version__", "2.4.6")
    assert dataset_key(name, params) == keyed


# ------------------------------------------------------------- fault table

#: Set when an artifact's bytes run code on load.
RAN: list[bool] = []


def _run_on_load() -> None:  # pragma: no cover - must never run
    RAN.append(True)


class _Crafted:
    """Unpickling it calls :func:`_run_on_load`."""

    def __reduce__(self):
        return (_run_on_load, ())


#: The magic, the seal and the header length come before the header.
PREFIX = 44


def _header_len(raw: bytes) -> int:
    return int.from_bytes(raw[36:PREFIX], "little")


def _payload_start(raw: bytes) -> int:
    return (PREFIX + _header_len(raw) + 63) & ~63


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


def _sealed(text: bytes, payload: bytes) -> bytes:
    """An artifact of header ``text`` and ``payload``, sealed as
    :func:`repro.artifacts.write` seals one."""
    body = len(text).to_bytes(8, "little") + text + bytes(-(PREFIX + len(text)) % 64)
    return b"RDS2" + hashlib.sha256(body + payload).digest() + body + payload


def _fields(sealed: artifacts.Sealed) -> dict[str, t.Any]:
    """The header fields the caller gave the writer."""
    return {k: v for k, v in sealed.header.items() if k not in ("columns", "key")}


def _rewrite(edit: t.Callable[[bytes], bytes | None]) -> t.Callable[[Path], None]:
    """A fault that replaces an artifact's bytes with ``edit`` of them,
    or removes the artifact where ``edit`` gives None."""

    def fault(path: Path) -> None:
        raw = edit(path.read_bytes())
        if raw is None:
            path.unlink()
        else:
            path.write_bytes(raw)

    return fault


def _flip(offset: t.Callable[[bytes], int]) -> t.Callable[[bytes], bytes]:
    def edit(raw: bytes) -> bytes:
        flipped = bytearray(raw)
        flipped[offset(raw)] ^= 0xFF
        return bytes(flipped)

    return edit


def _forged(text: bytes) -> t.Callable[[bytes], bytes]:
    """Header ``text`` sealed with the artifact's payload: a forgery,
    as no writer makes it."""
    return lambda raw: _sealed(text, raw[_payload_start(raw) :])


def _reseal(edit: t.Callable[[dict], None]) -> t.Callable[[bytes], bytes]:
    """The header edited and sealed again with the payload: a forgery."""

    def forge(raw: bytes) -> bytes:
        header = json.loads(raw[PREFIX : PREFIX + _header_len(raw)])
        edit(header)
        return _forged(_canonical(header))(raw)

    return forge


def _as_rdsc(path: Path) -> None:
    """The artifact laid out as the older ``RDSC`` container's writer laid
    it out: no seal before the header, whose ``payload_sha256`` covers
    the columns only."""
    sealed = artifacts.read(path)
    table, payload = [], bytearray()
    for name, column in sorted(sealed.columns.items()):
        payload += bytes(-len(payload) % 64)
        entry = {"name": name, "dtype": column.dtype.str, "shape": list(column.shape)}
        table.append({**entry, "offset": len(payload)})
        payload += column.tobytes()
    header = {
        **_fields(sealed),
        "columns": table,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    text = _canonical(header)
    raw = b"RDSC" + len(text).to_bytes(8, "little") + text
    path.write_bytes(raw + bytes(-len(raw) % 64) + payload)


def _from_another_key(path: Path) -> None:
    """The artifact sealed under another key, then moved to ``path``."""
    sealed = artifacts.read(path)
    other = path.with_name("0" * 64 + "".join(path.suffixes))
    artifacts.write(other, _fields(sealed), dict(sealed.columns))
    other.replace(path)


#: fault -> (how it damages the artifact at a path, the reader's reason).
#: Version skew (None) is a sealed artifact another version wrote, which
#: each store meets its own way.
FAULTS: dict[str, tuple[t.Callable[[Path], None] | None, str | None]] = {
    "missing": (_rewrite(lambda raw: None), "missing"),
    "empty file": (_rewrite(lambda raw: b""), "corrupt"),
    "cut to 8 bytes": (_rewrite(lambda raw: raw[:8]), "corrupt"),
    "cut mid-payload": (
        _rewrite(lambda raw: raw[: (_payload_start(raw) + len(raw)) // 2]), "checksum"
    ),
    "bad magic": (_rewrite(_flip(lambda raw: 0)), "corrupt"),
    "flipped payload byte": (_rewrite(_flip(lambda raw: len(raw) - 1)), "checksum"),
    "flipped header byte": (_rewrite(_flip(lambda raw: PREFIX)), "checksum"),
    "flipped column-table byte": (
        _rewrite(_flip(lambda raw: raw.index(b'"columns":[') + 12)), "checksum"
    ),
    "unparsable header": (_rewrite(_forged(b"{not json")), "corrupt"),
    "header nested too deep": (
        _rewrite(_forged(b"[" * 100_000 + b"]" * 100_000)), "corrupt"
    ),
    "resealed oversized shape": (
        _rewrite(_reseal(lambda header: header["columns"][0].update(shape=[2**70]))),
        "corrupt",
    ),
    "resealed object column": (
        _rewrite(_reseal(lambda header: header["columns"][0].update(dtype="|O"))),
        "corrupt",
    ),
    "crafted pickle": (
        _rewrite(lambda raw: gzip.compress(pickle.dumps(_Crafted()))), "corrupt"
    ),
    "older RDSC container": (_as_rdsc, "corrupt"),
    "another key's artifact": (_from_another_key, "corrupt"),
    "version skew": (None, None),
}


@pytest.fixture(scope="module")
def sort_tiny():
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    _, trace = capture_experiment(config)
    assert trace is not None
    return config, trace, result_to_dict(run_experiment(config))


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_faulted_trace_artifact_misses_and_is_recaptured(
    tmp_path, monkeypatch, sort_tiny, fault
):
    config, trace, direct = sort_tiny
    store = TraceStore(tmp_path)
    path = store.save(config, trace)
    RAN.clear()
    damage, reason = FAULTS[fault]
    if damage is None:
        # An older engine's trace, sealed under this key: the reader
        # verifies it, and the store refuses it.
        sealed = artifacts.read(path)
        older = {**_fields(sealed), "engine_version": "0-older-engine"}
        artifacts.write(path, older, dict(sealed.columns))
        assert isinstance(artifacts.read(path), artifacts.Sealed)
        reason = "version_skew"
    else:
        damage(path)
        assert artifacts.read(path) == artifacts.Miss(reason)

    monkeypatch.setattr(trace_store, "_LOAD_CACHE", OrderedDict())
    trace_store.reset_stats()
    assert store.load(config) is None
    assert {k: v for k, v in trace_store.stats().items() if v} == {reason: 1}
    result, how = run_with_trace(config, store)
    assert how == "captured" and result_to_dict(result) == direct
    healed = store.load(config)
    assert healed is not None and healed.checksum == trace.checksum
    assert RAN == []


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_faulted_dataset_artifact_misses_and_is_regenerated(tmp_path, monkeypatch, fault):
    name, params, _ = PINNED_DATASET_KEYS[5]

    def generate():
        return getattr(datagen, name).__wrapped__(**params)

    cache = DatasetCache(tmp_path)
    path = cache.store(name, params, generate())
    records = cache.load(name, params)
    assert records is not None
    RAN.clear()
    damage, reason = FAULTS[fault]
    if damage is None:
        # The next version stores this dataset under its own key, so
        # this one has no artifact.
        with monkeypatch.context() as patched:
            patched.setattr(datacache, "DATACACHE_VERSION", DATACACHE_VERSION + 1)
            assert cache.store(name, params, generate()) != path
        path.unlink()
        reason = "missing"
    else:
        damage(path)
    assert artifacts.read(path) == artifacts.Miss(reason)
    assert cache.load(name, params) is None

    previous = datacache.active()
    datacache.configure(tmp_path)
    datacache.reset_stats()
    try:
        assert datacache.fetch(name, params, generate) == records
        counts = datacache.stats()
    finally:
        datacache.configure(None if previous is None else previous.root)
        datacache.reset_stats()
    assert (counts["hits"], counts["misses"], counts["stores"]) == (0, 1, 1)
    assert cache.load(name, params) == records
    assert RAN == []

