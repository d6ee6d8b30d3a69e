"""Engine invariance: hot-path optimizations are value-identical.

The perf pass (``repro.perf`` + batched operators, memoized estimators,
``__slots__`` kernels) carries a hard guarantee: simulated time, memory
traffic and energy are bit-identical to the unoptimized engine.  This
module pins that guarantee three ways:

- golden probe: the Fig. 2 probe job's per-device access counters,
  recorded from the seed engine, compared exactly;
- golden grid points: full experiments whose execution time, energy and
  per-DIMM counters are pinned to the seed engine's outputs;
- hypothesis properties: every batched operator path (partitioners,
  data generators) equals its naive per-record counterpart on
  arbitrary — including mixed-type — data.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.spark.partitioner import (
    HashPartitioner,
    RangePartitioner,
    ReversedPartitioner,
)
from repro.spark.serializer import SAMPLE_SIZE, sizeof_value
from repro.workloads import datagen
from tests.core.test_benchmark_regression import REFERENCE_TIMES

SETTINGS = settings(max_examples=25, deadline=None)

# ---------------------------------------------------------------- golden probe

#: Per-device access counters of the probe job, recorded from the seed
#: engine (pre-optimization).  Key: tier -> active device -> counters.
#: Regenerate only for a deliberate, explained model change.
REFERENCE_PROBE_COUNTERS = {
    0: (
        "numa1-dram",
        {
            "media_reads": 1578762,
            "media_writes": 880546,
            "bytes_read": 101040634,
            "bytes_written": 56354174,
            "random_reads": 1118856,
            "random_writes": 388370,
        },
    ),
    1: (
        "numa0-dram",
        {
            "media_reads": 1580862,
            "media_writes": 881446,
            "bytes_read": 101175034,
            "bytes_written": 56411774,
            "random_reads": 1120956,
            "random_writes": 389270,
        },
    ),
    2: (
        "numa2-nvm4",
        {
            "media_reads": 1241888,
            "media_writes": 514868,
            "bytes_read": 101555834,
            "bytes_written": 56574974,
            "random_reads": 1126906,
            "random_writes": 391820,
        },
    ),
    3: (
        "numa3-nvm2",
        {
            "media_reads": 1250638,
            "media_writes": 518618,
            "bytes_read": 102115834,
            "bytes_written": 56814974,
            "random_reads": 1135656,
            "random_writes": 395570,
        },
    ),
}


def run_probe(tier: int) -> tuple[float, dict[str, dict[str, int]]]:
    """The benchmark-regression probe job, also reporting device traffic."""
    conf = SparkConf(
        memory_tier=tier,
        num_executors=2,
        executor_cores=4,
        default_parallelism=8,
    )
    sc = SparkContext(conf=conf)
    (
        sc.parallelize(range(2000), 8)
        .map(lambda x: (x % 50, x))
        .reduce_by_key(operator.add)
        .collect()
    )
    elapsed = sc.total_job_time()
    devices = {
        device.name: {
            "media_reads": device.counters.media_reads,
            "media_writes": device.counters.media_writes,
            "bytes_read": device.counters.bytes_read,
            "bytes_written": device.counters.bytes_written,
            "random_reads": device.counters.random_reads,
            "random_writes": device.counters.random_writes,
        }
        for device in sc.machine.devices()
    }
    sc.stop()
    return elapsed, devices


@pytest.mark.parametrize("tier", sorted(REFERENCE_PROBE_COUNTERS))
def test_probe_time_and_traffic_pinned(tier):
    elapsed, devices = run_probe(tier)
    # Reuses the benchmark-regression execution-time pins.
    assert elapsed == pytest.approx(REFERENCE_TIMES[tier], rel=1e-12)
    active_device, expected = REFERENCE_PROBE_COUNTERS[tier]
    assert devices[active_device] == expected
    for name, counters in devices.items():
        if name != active_device:
            assert set(counters.values()) == {0}, name


# ---------------------------------------------------------- golden grid points

#: Full experiments pinned against the seed engine: (config, expected
#: execution time, records, active-device energy, one DIMM's counters).
REFERENCE_EXPERIMENTS = [
    (
        ("lda", "small", 3),
        0.5619870217828936,
        36000,
        (
            "numa3-nvm2",
            {
                "static_joules": 5.619870217828936,
                "read_joules": 0.010411287703125001,
                "write_joules": 0.060242448000000004,
            },
        ),
        None,
    ),
    (
        ("bayes", "small", 1),
        0.08139977961674165,
        45000,
        (
            "numa0-dram",
            {
                "static_joules": 0.5697984573171916,
                "read_joules": 0.014194007471874999,
                "write_joules": 0.007434709373437499,
            },
        ),
        (
            "numa0-dram/dimm0",
            {
                "media_reads": 921700,
                "media_writes": 482777,
                "bytes_read": 58988088,
                "bytes_written": 30897498,
            },
        ),
    ),
]


def _assert_matches_pins(result, expected_time, expected_records, energy_pin, dimm_pin):
    assert result.verified
    assert result.records_processed == expected_records
    assert result.execution_time == pytest.approx(expected_time, rel=1e-12)
    device, joules = energy_pin
    report = result.telemetry.energy[device]
    assert report.static_joules == pytest.approx(joules["static_joules"], rel=1e-12)
    assert report.read_joules == pytest.approx(joules["read_joules"], rel=1e-12)
    assert report.write_joules == pytest.approx(joules["write_joules"], rel=1e-12)
    if dimm_pin is not None:
        dimm_id, expected = dimm_pin
        perf = {p.dimm_id: p for p in result.telemetry.dimm_performance}[dimm_id]
        assert perf.media_reads == expected["media_reads"]
        assert perf.media_writes == expected["media_writes"]
        assert perf.bytes_read == expected["bytes_read"]
        assert perf.bytes_written == expected["bytes_written"]


@pytest.mark.parametrize(
    "point,expected_time,expected_records,energy_pin,dimm_pin",
    REFERENCE_EXPERIMENTS,
    ids=["-".join(map(str, e[0])) for e in REFERENCE_EXPERIMENTS],
)
def test_experiment_pinned(point, expected_time, expected_records, energy_pin, dimm_pin):
    workload, size, tier = point
    result = run_experiment(ExperimentConfig(workload=workload, size=size, tier=tier))
    _assert_matches_pins(result, expected_time, expected_records, energy_pin, dimm_pin)


@pytest.mark.parametrize(
    "point,expected_time,expected_records,energy_pin,dimm_pin",
    REFERENCE_EXPERIMENTS,
    ids=["replay-" + "-".join(map(str, e[0])) for e in REFERENCE_EXPERIMENTS],
)
def test_replay_matches_pinned_experiments(
    point, expected_time, expected_records, energy_pin, dimm_pin
):
    """Trace replay extends the value-identical guarantee: capturing the
    workload on a *different* tier and replaying it onto the pinned one
    must land exactly on the seed engine's golden numbers."""
    from repro.trace import capture_experiment, fast_replay_experiment

    workload, size, tier = point
    capture_config = ExperimentConfig(
        workload=workload, size=size, tier=(tier + 2) % 4
    )
    _, trace = capture_experiment(capture_config)
    assert trace is not None
    result = fast_replay_experiment(capture_config.with_options(tier=tier), trace)
    _assert_matches_pins(result, expected_time, expected_records, energy_pin, dimm_pin)


@pytest.mark.parametrize(
    "point,expected_time,expected_records,energy_pin,dimm_pin",
    REFERENCE_EXPERIMENTS,
    ids=["observed-" + "-".join(map(str, e[0])) for e in REFERENCE_EXPERIMENTS],
)
def test_observed_run_matches_pinned_experiments(
    point, expected_time, expected_records, energy_pin, dimm_pin
):
    """An attached Observer (span tracer + metrics + counted kernel)
    must leave every golden number untouched — the observability layer's
    read-only guarantee, pinned against the seed engine."""
    from repro.obs import ObsConfig, Observer

    workload, size, tier = point
    observer = Observer(ObsConfig())
    result = run_experiment(
        ExperimentConfig(workload=workload, size=size, tier=tier),
        observer=observer,
    )
    _assert_matches_pins(result, expected_time, expected_records, energy_pin, dimm_pin)

    # Cross-check the trace against the engine's own ledger: exactly one
    # task span per attempt, and the experiment span covers the run.
    tracer = observer.tracer
    assert len(tracer.by_category("task")) == result.mitigation["task_attempts"]
    root = tracer.root()
    assert root.cat == "experiment"
    for span in tracer.spans:
        assert span.end is not None and span.begin <= span.end
    assert observer.registry.gauge("experiment.execution_time") == (
        result.execution_time
    )
    assert observer.registry.counter("scheduler.attempts_launched") == (
        result.mitigation["task_attempts"]
    )


# ------------------------------------------------- batched vs naive properties

#: Mixed-type keys exercise the generic fallback; long homogeneous
#: lists exercise every specialized batch path.
mixed_keys = st.lists(
    st.one_of(
        st.integers(-1000, 1000),
        st.booleans(),
        st.text(max_size=8),
        st.binary(max_size=8),
        st.tuples(st.integers(0, 50), st.text(max_size=4)),
    ),
    max_size=40,
)
homogeneous_keys = st.one_of(
    st.lists(st.integers(-1000, 1000), min_size=9, max_size=40),
    st.lists(st.text(max_size=8), min_size=9, max_size=40),
    st.lists(st.binary(max_size=8), min_size=9, max_size=40),
)
partitions = st.integers(min_value=1, max_value=7)


@given(keys=st.one_of(mixed_keys, homogeneous_keys), parts=partitions)
@SETTINGS
def test_hash_partition_all_matches_per_key(keys, parts):
    partitioner = HashPartitioner(parts)
    assert partitioner.partition_all(keys) == [
        partitioner.partition(key) for key in keys
    ]


@given(
    keys=st.lists(st.integers(-1000, 1000), max_size=40),
    sample=st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
    parts=partitions,
)
@SETTINGS
def test_range_partition_all_matches_per_key(keys, sample, parts):
    partitioner = RangePartitioner.from_sample(parts, sample)
    assert partitioner.partition_all(keys) == [
        partitioner.partition(key) for key in keys
    ]
    mirrored = ReversedPartitioner(partitioner)
    assert mirrored.partition_all(keys) == [
        mirrored.partition(key) for key in keys
    ]


@given(n=st.integers(0, 40), record_len=st.integers(1, 24), seed=st.integers(0, 99))
@SETTINGS
def test_random_text_records_matches_naive(n, record_len, seed):
    assert datagen.random_text_records(
        n, record_len, seed=seed
    ) == datagen._naive_random_text_records(n, record_len, seed=seed)


@given(n=st.integers(0, 200), vocabulary=st.integers(1, 50), seed=st.integers(0, 99))
@SETTINGS
def test_zipf_words_matches_naive(n, vocabulary, seed):
    datagen.clear_cache()
    assert datagen.zipf_words(
        n, vocabulary, seed=seed
    ) == datagen._naive_zipf_words(n, vocabulary, seed=seed)


@given(
    n_docs=st.integers(1, 8),
    vocabulary=st.integers(2, 30),
    n_topics=st.integers(1, 5),
    seed=st.integers(0, 99),
)
@SETTINGS
def test_bag_of_words_matches_naive(n_docs, vocabulary, n_topics, seed):
    datagen.clear_cache()
    assert datagen.bag_of_words_docs(
        n_docs, vocabulary, n_topics, words_per_doc=12, seed=seed
    ) == datagen._naive_bag_of_words_docs(
        n_docs, vocabulary, n_topics, words_per_doc=12, seed=seed
    )


@given(
    n_docs=st.integers(0, 12),
    n_classes=st.integers(1, 6),
    vocabulary=st.integers(1, 60),
    words_per_doc=st.integers(0, 40),
    seed=st.integers(0, 99),
)
@example(n_docs=0, n_classes=3, vocabulary=40, words_per_doc=8, seed=0)
@example(n_docs=7, n_classes=2, vocabulary=1, words_per_doc=5, seed=1)
@SETTINGS
def test_labeled_documents_matches_naive(
    n_docs, n_classes, vocabulary, words_per_doc, seed
):
    datagen.clear_cache()
    assert datagen.labeled_documents(
        n_docs, n_classes, vocabulary, words_per_doc, seed=seed
    ) == datagen._naive_labeled_documents(
        n_docs, n_classes, vocabulary, words_per_doc, seed=seed
    )


@given(n_pages=st.integers(1, 40), seed=st.integers(0, 99))
@SETTINGS
def test_web_graph_matches_naive(n_pages, seed):
    datagen.clear_cache()
    assert datagen.web_graph(n_pages, seed=seed) == datagen._naive_web_graph(
        n_pages, seed=seed
    )


def test_datagen_memoization_returns_fresh_lists():
    datagen.clear_cache()
    first = datagen.zipf_words(50, 20, seed=5)
    second = datagen.zipf_words(50, 20, seed=5)
    assert first == second
    assert first is not second  # callers may mutate their copy safely
    second.append("sentinel")
    assert datagen.zipf_words(50, 20, seed=5) == first


# ----------------------------------------------------------- sizeof equivalence

def _full_recursion_sizeof(value) -> float:
    """The unoptimized (uncapped) sizeof recursion, for comparison."""
    if isinstance(value, (tuple, list)):
        return 56.0 + 8.0 * len(value) + sum(
            _full_recursion_sizeof(v) for v in value
        )
    return sizeof_value(value)


@given(
    values=st.lists(
        st.one_of(st.integers(-10, 10), st.floats(allow_nan=False, width=32)),
        min_size=SAMPLE_SIZE + 1,
        max_size=3 * SAMPLE_SIZE,
    )
)
@SETTINGS
def test_sizeof_homogeneous_primitive_cap_is_exact(values):
    """Large int/float containers use a closed form equal to full recursion."""
    assert sizeof_value(values) == _full_recursion_sizeof(values)
    assert sizeof_value(tuple(values)) == _full_recursion_sizeof(values)


def test_sizeof_nested_recursion_is_capped():
    """Deep sampling keeps huge heterogeneous containers cheap but sane."""
    big = [("word", float(i), [i] * 4) for i in range(100_000)]
    estimate = sizeof_value(big)
    per_record = sizeof_value(big[0])
    assert estimate == pytest.approx(
        56.0 + 8.0 * len(big) + per_record * len(big), rel=0.2
    )
