"""Dataset artifact cache: codec round trips, artifact bytes equal to
the per-record encoding they replaced, corruption tolerance, concurrent
writers, and the headline property — a capture served from cached
dataset artifacts is bit-identical to one that regenerated every
dataset from its seed."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import artifacts
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.runner.campaign import run_campaign
from repro.trace import capture_experiment
from repro.workloads import datacache, datagen
from repro.workloads.base import SIZE_ORDER
from repro.workloads.datacache import DatasetCache, dataset_key
from repro.workloads.registry import get_workload

#: One small parameter set per registered codec.
GENERATOR_PARAMS = [
    ("random_text_records", dict(n=64, record_len=16, seed=3)),
    ("zipf_words", dict(n=128, vocabulary=50, exponent=1.3, seed=5)),
    ("rating_triples", dict(n_users=10, n_products=8, n_ratings=64, seed=7)),
    (
        "labeled_documents",
        dict(n_docs=12, n_classes=3, vocabulary=40, words_per_doc=8, seed=9),
    ),
    ("labeled_vectors", dict(n_examples=20, n_features=5, n_classes=2, seed=11)),
    (
        "bag_of_words_docs",
        dict(n_docs=10, vocabulary=30, n_topics=3, words_per_doc=12, seed=13),
    ),
    ("web_graph", dict(n_pages=25, out_degree=4, seed=15)),
]


#: The six bayes/lda Fig. 2 parameter sets, as those workloads' prepare
#: phases request them: bulk Zipf and per-topic draws at full size.
FIG2_TEXT_PARAMS = [
    (
        "labeled_documents",
        dict(
            n_docs=p["docs"], n_classes=p["classes"],
            vocabulary=p["vocabulary"], words_per_doc=p["words_per_doc"],
            seed=19,
        ),
    )
    for p in (get_workload("bayes").profile(s).params for s in SIZE_ORDER)
] + [
    (
        "bag_of_words_docs",
        dict(
            n_docs=p["docs"], vocabulary=p["vocabulary"],
            n_topics=p["topics"], words_per_doc=p["words_per_doc"], seed=29,
        ),
    )
    for p in (get_workload("lda").profile(s).params for s in SIZE_ORDER)
]


def columns(name: str, params: dict) -> dict:
    """Run the raw generator (bypassing the in-process memo)."""
    return getattr(datagen, name).__wrapped__(**params)


def records(name: str, params: dict) -> list:
    """The records the codec builds from freshly generated columns."""
    codec = datacache._CODECS[name]
    return codec.decode(columns(name, params), codec.meta(params))


def assert_same_dataset(a: list, b: list) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, tuple) and isinstance(x[-1], np.ndarray):
            assert x[0] == y[0]
            np.testing.assert_array_equal(x[-1], y[-1])
        else:
            assert x == y


@pytest.fixture(autouse=True)
def _isolated_cache():
    """No test leaks an active cache, memoized datasets or stats."""
    previous = datacache.active()
    datagen.clear_cache()
    datacache.reset_stats()
    yield
    datacache.configure(None if previous is None else previous.root)
    datagen.clear_cache()
    datacache.reset_stats()


# ------------------------------------------------------------- round trips

@pytest.mark.parametrize("name,params", GENERATOR_PARAMS)
def test_store_load_roundtrip_is_value_identical(tmp_path, name, params):
    cache = DatasetCache(tmp_path)
    path = cache.store(name, params, columns(name, params))
    assert path is not None and path.exists()
    loaded = cache.load(name, params)
    assert loaded is not None
    assert_same_dataset(loaded, records(name, params))


def test_keys_lists_stored_artifacts(tmp_path):
    cache = DatasetCache(tmp_path)
    name, params = GENERATOR_PARAMS[0]
    cache.store(name, params, columns(name, params))
    assert cache.keys() == [dataset_key(name, params)]


# ---------------------------------------------------------- artifact bytes

def _encode_labeled_pairs(value: list) -> np.ndarray:
    return np.asarray([label for label, _ in value], dtype=np.int64)


def _encode_web_graph(value: list) -> dict:
    offsets = np.zeros(len(value) + 1, dtype=np.int64)
    flat: list[int] = []
    for i, (_page, links) in enumerate(value):
        flat.extend(links)
        offsets[i + 1] = len(flat)
    return {"offsets": offsets, "targets": np.asarray(flat, dtype=np.int64)}


#: The per-record encoders artifacts were written through before
#: generators returned their columns: records -> (columns, meta).
REFERENCE_ENCODE = {
    "random_text_records": lambda value, params: (
        {"blob": np.frombuffer("".join(value).encode("ascii"), np.uint8)},
        {"record_len": params["record_len"]},
    ),
    "zipf_words": lambda value, params: (
        {"ranks": np.asarray([int(w[4:]) for w in value], dtype=np.int64)},
        {"vocabulary": params["vocabulary"]},
    ),
    "rating_triples": lambda value, params: (
        {
            key: np.asarray(column, dtype=dtype)
            for key, column, dtype in zip(
                ("users", "products", "ratings"),
                zip(*value) if value else ((), (), ()),
                (np.int64, np.int64, np.float64),
            )
        },
        {},
    ),
    "labeled_documents": lambda value, params: (
        {
            "labels": _encode_labeled_pairs(value),
            "word_ids": np.asarray(
                [[int(w[1:]) for w in words] for _, words in value],
                dtype=np.int64,
            ),
        },
        {"vocabulary": params["vocabulary"]},
    ),
    "labeled_vectors": lambda value, params: (
        {
            "labels": _encode_labeled_pairs(value),
            "points": (
                np.stack([x for _, x in value])
                if value
                else np.zeros((0, 0), dtype=np.float64)
            ).astype(np.float64),
        },
        {},
    ),
    "bag_of_words_docs": lambda value, params: (
        {"word_ids": np.asarray(value, dtype=np.int64)}, {},
    ),
    "web_graph": lambda value, params: (_encode_web_graph(value), {}),
}


@pytest.mark.parametrize("name,params", GENERATOR_PARAMS + FIG2_TEXT_PARAMS)
def test_artifact_bytes_equal_the_per_record_encoding(tmp_path, name, params):
    """Storing a generator's columns writes the very bytes that encoding
    its records did, so artifacts already on disk keep hitting."""
    naive = getattr(datagen, f"_naive_{name}", None)
    value = naive(**params) if naive is not None else records(name, params)
    ref_columns, ref_meta = REFERENCE_ENCODE[name](value, params)
    assert ref_meta == datacache._CODECS[name].meta(params)
    written = DatasetCache(tmp_path / "columns").store(
        name, params, columns(name, params)
    )
    encoded = DatasetCache(tmp_path / "encoded").store(
        name, params, ref_columns
    )
    assert written.read_bytes() == encoded.read_bytes()


@pytest.mark.parametrize(
    "name,params,cols,sha256",
    [
        (
            "random_text_records",
            {"n": 2, "record_len": 4, "seed": 0},
            {"blob": np.frombuffer(b"abcdefgh", np.uint8)},
            "87b4d182cede6d5cd171b7460f0f22e0838e763b152ec037779f8585d9d73764",
        ),
        (
            "web_graph",
            {"n_pages": 3, "out_degree": 1, "seed": 0},
            {
                "offsets": np.array([0, 2, 3, 4], dtype=np.int64),
                "targets": np.array([1, 2, 0, 0], dtype=np.int64),
            },
            "e64f4ba969cb04d8b087d72125719d6ad7e6591eab500689efe0fff0949253d6",
        ),
    ],
)
def test_artifact_format_is_pinned(tmp_path, monkeypatch, name, params, cols, sha256):
    """The writer's bytes (seal, header, alignment) are a stored format:
    a container change comes with a new magic.  The header holds the
    key, which folds in the numpy version, so the test pins that."""
    monkeypatch.setattr(np, "__version__", "2.4.6")
    path = DatasetCache(tmp_path).store(name, params, cols)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# -------------------------------------------------------------- corruption

@pytest.fixture
def sealed_artifact(tmp_path):
    name, params = ("bag_of_words_docs", GENERATOR_PARAMS[5][1])
    cache = DatasetCache(tmp_path)
    path = cache.store(name, params, columns(name, params))
    return cache, name, params, path, records(name, params)


#: The magic, the seal and the header length come before the header.
PREFIX = 44


def _flip_byte(path: Path, offset: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def test_flipped_payload_byte_fails_the_seal(sealed_artifact):
    cache, name, params, path, _ = sealed_artifact
    _flip_byte(path, path.stat().st_size - 1)
    assert cache.load(name, params) is None


def test_corrupted_header_is_a_miss(sealed_artifact):
    cache, name, params, path, _ = sealed_artifact
    _flip_byte(path, PREFIX + 8)  # inside the JSON header
    assert cache.load(name, params) is None


def test_bad_magic_is_a_miss(sealed_artifact):
    cache, name, params, path, _ = sealed_artifact
    _flip_byte(path, 0)
    assert cache.load(name, params) is None


def test_truncated_artifact_is_a_miss(sealed_artifact):
    cache, name, params, path, _ = sealed_artifact
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert cache.load(name, params) is None
    path.write_bytes(raw[:8])  # shorter than the fixed header
    assert cache.load(name, params) is None


def test_corrupt_artifact_is_regenerated_and_healed(sealed_artifact):
    """``fetch`` on a corrupt artifact regenerates — and the store-back
    overwrites the bad file, so the *next* pass hits again."""
    cache, name, params, path, value = sealed_artifact
    _flip_byte(path, path.stat().st_size - 1)
    datacache.configure(cache.root)
    datacache.reset_stats()
    fetched = datacache.fetch(name, params, lambda: columns(name, params))
    assert_same_dataset(fetched, value)
    assert datacache.stats() == {
        "hits": 0, "misses": 1, "stores": 1, "store_failed": 0, "memo_hits": 0,
    }
    assert cache.load(name, params) is not None  # healed on disk


def test_a_stored_meta_other_than_the_params_give_is_a_miss(tmp_path):
    """The seal covers the header: an artifact whose stored meta was
    edited fails the seal, never decodes records with the stored
    meta."""
    name, params = "random_text_records", {"n": 4, "record_len": 4, "seed": 0}
    cache = DatasetCache(tmp_path)
    blob = np.frombuffer(b"abcdefghijklmnop", np.uint8)
    path = cache.store(name, params, {"blob": blob})
    assert cache.load(name, params) == ["abcd", "efgh", "ijkl", "mnop"]
    raw = path.read_bytes()
    assert raw.count(b'"record_len":4') == 1
    path.write_bytes(raw.replace(b'"record_len":4', b'"record_len":8'))
    assert artifacts.read(path) == artifacts.Miss("checksum")
    assert cache.load(name, params) is None


def _retable(path: Path, edit) -> None:
    """Rewrite the column table of the artifact at ``path`` with
    ``edit``, keeping its payload and its seal, which then fails."""
    raw = path.read_bytes()
    size = int.from_bytes(raw[36:PREFIX], "little")
    header = json.loads(raw[PREFIX : PREFIX + size])
    edit(header["columns"])
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    pad = ((PREFIX + len(text) + 63) & ~63) - PREFIX - len(text)
    payload = raw[(PREFIX + size + 63) & ~63 :]
    prefix = raw[:36] + len(text).to_bytes(8, "little")
    path.write_bytes(prefix + text + bytes(pad) + payload)


RATINGS = ("rating_triples", dict(n_users=3, n_products=2, n_ratings=4, seed=7))


def test_a_retyped_column_is_a_miss_and_is_regenerated(tmp_path):
    """A table that retypes float64 ratings as int64 would decode
    ratings of about 4.6e18.  The seal covers the table, so it is a
    checksum miss, and ``fetch`` regenerates and overwrites the
    artifact."""
    name, params = RATINGS
    cache = DatasetCache(tmp_path)
    path = cache.store(name, params, columns(name, params))
    raw = path.read_bytes()
    assert raw.count(b'"dtype":"<f8"') == 1
    path.write_bytes(raw.replace(b'"dtype":"<f8"', b'"dtype":"<i8"'))
    assert artifacts.read(path) == artifacts.Miss("checksum")
    assert cache.load(name, params) is None
    datacache.configure(tmp_path)
    datacache.reset_stats()
    fetched = datacache.fetch(name, params, lambda: columns(name, params))
    assert fetched == records(name, params)
    assert (datacache.stats()["misses"], datacache.stats()["stores"]) == (1, 1)
    assert path.read_bytes() == raw
    assert cache.load(name, params) == fetched


def test_a_column_table_with_other_row_counts_is_a_miss(tmp_path):
    """A table that cuts every column to 3 of the 4 ratings fails the
    seal."""
    name, params = RATINGS
    cache = DatasetCache(tmp_path)
    path = cache.store(name, params, columns(name, params))

    def cut(table):
        for entry in table:
            entry["shape"] = [3]

    _retable(path, cut)
    assert artifacts.read(path) == artifacts.Miss("checksum")
    assert cache.load(name, params) is None


def test_a_column_pointed_at_another_columns_bytes_is_a_miss(tmp_path):
    """Users and products are both four int64s: a table that swaps their
    offsets would hand back each as the other."""
    name, params = RATINGS
    cache = DatasetCache(tmp_path)
    path = cache.store(name, params, columns(name, params))

    def swap(table):
        by_name = {entry["name"]: entry for entry in table}
        users, products = by_name["users"], by_name["products"]
        users["offset"], products["offset"] = products["offset"], users["offset"]

    _retable(path, swap)
    assert artifacts.read(path) == artifacts.Miss("checksum")
    assert cache.load(name, params) is None


def test_version_skew_is_a_miss(sealed_artifact, monkeypatch):
    cache, name, params, _, _ = sealed_artifact
    monkeypatch.setattr(datacache, "DATACACHE_VERSION", 999)
    # A version bump changes the key, so the old artifact is not found.
    assert cache.load(name, params) is None


def test_store_failure_never_breaks_generation(tmp_path, monkeypatch):
    datacache.configure(tmp_path)
    monkeypatch.setattr(
        DatasetCache, "store",
        lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
    )
    name, params = GENERATOR_PARAMS[0]
    value = datacache.fetch(name, params, lambda: columns(name, params))
    assert_same_dataset(value, records(name, params))


def test_a_full_dataset_directory_keeps_the_captured_results(tmp_path, disk_full):
    """A dataset write that fails with ENOSPC costs the artifact, not the
    point: both captures equal direct simulation, no temporary file is
    left, and ``fetch`` counts the failure.  The second dataset, written
    once the disk has room, is stored."""
    configs = [
        ExperimentConfig(workload=workload, size="tiny", tier=0)
        for workload in ("sort", "wordcount")
    ]
    disk_full(artifacts)  # the first write is sort's dataset
    report = run_campaign(configs, cache_dir=tmp_path)
    assert [point.status for point in report.points] == ["captured", "captured"]
    for point in report.points:
        assert result_to_dict(point.result) == result_to_dict(run_experiment(point.config))
    stats = datacache.stats()
    assert (stats["store_failed"], stats["stores"], stats["misses"]) == (1, 1, 2)
    datasets = tmp_path / "datasets"
    assert [p.name for p in datasets.iterdir() if p.name.startswith(".tmp-")] == []
    assert len(DatasetCache(datasets).keys()) == 1


# ------------------------------------------------------------- concurrency

def _store_in_subprocess(root, name, params, cols):  # pragma: no cover
    from repro.workloads.datacache import DatasetCache

    DatasetCache(root).store(name, params, cols)


def test_concurrent_writers_race_harmlessly(tmp_path):
    """Several processes storing the same key produce one intact
    artifact — atomic rename means readers never observe a torn file."""
    name, params = ("web_graph", GENERATOR_PARAMS[6][1])
    cols = columns(name, params)
    procs = [
        multiprocessing.Process(
            target=_store_in_subprocess,
            args=(str(tmp_path), name, params, cols),
        )
        for _ in range(4)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert proc.exitcode == 0
    cache = DatasetCache(tmp_path)
    assert cache.keys() == [dataset_key(name, params)]
    assert not list(tmp_path.glob(".tmp-*"))  # no leaked temp files
    loaded = cache.load(name, params)
    assert loaded is not None
    assert_same_dataset(loaded, records(name, params))


# ------------------------------------------------------------ fetch + memo

def test_fetch_counts_miss_then_hit(tmp_path):
    datacache.configure(tmp_path)
    name, params = GENERATOR_PARAMS[0]
    datacache.fetch(name, params, lambda: columns(name, params))
    datacache.fetch(name, params, lambda: columns(name, params))
    assert datacache.stats() == {
        "hits": 1, "misses": 1, "stores": 1, "store_failed": 0, "memo_hits": 0,
    }


def test_fetch_without_active_cache_just_generates():
    datacache.deactivate()
    name, params = GENERATOR_PARAMS[0]
    value = datacache.fetch(name, params, lambda: columns(name, params))
    assert_same_dataset(value, records(name, params))
    assert datacache.stats() == {
        "hits": 0, "misses": 0, "stores": 0, "store_failed": 0, "memo_hits": 0,
    }


def test_datagen_memo_answers_before_the_artifact_cache(tmp_path):
    datacache.configure(tmp_path)
    datagen.random_text_records(8, record_len=4, seed=41)
    datagen.random_text_records(8, record_len=4, seed=41)
    stats = datacache.stats()
    assert stats["memo_hits"] == 1
    assert stats["misses"] == 1 and stats["stores"] == 1


# ------------------------------------------------------- headline property

#: Every workload whose prepare phase flows through a ``datagen``
#: generator (kmeans builds its points inline and never touches the
#: cache); together they call all seven generators.
DATAGEN_WORKLOADS = [
    "sort", "repartition", "wordcount", "pagerank", "als", "rf", "bayes", "lda",
]


@pytest.mark.parametrize("workload", DATAGEN_WORKLOADS)
def test_cached_dataset_capture_equals_fresh_datagen_capture(workload):
    """The cache never changes what an experiment computes: a capture
    whose prepare phase was served entirely from dataset artifacts is
    bit-identical — result dict and trace checksum — to one that
    regenerated every dataset from its seed."""
    config = ExperimentConfig(workload=workload, size="tiny", tier=1)

    datacache.deactivate()
    datagen.clear_cache()
    fresh_result, fresh_trace = capture_experiment(config)

    with tempfile.TemporaryDirectory(prefix="repro-dataset-prop-") as root:
        datacache.configure(root)
        try:
            datagen.clear_cache()
            capture_experiment(config)  # first pass stores artifacts
            datagen.clear_cache()  # drop the memo → second pass hits disk
            datacache.reset_stats()
            cached_result, cached_trace = capture_experiment(config)
            assert datacache.stats()["hits"] > 0
            assert datacache.stats()["misses"] == 0
        finally:
            datacache.deactivate()

    assert result_to_dict(cached_result) == result_to_dict(fresh_result)
    assert fresh_trace is not None and cached_trace is not None
    assert cached_trace.checksum == fresh_trace.checksum
