"""MetricsRegistry: instruments, merge/reset, schema round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    METRICS_SCHEMA,
    OBS_SCHEMA_VERSION,
    MetricsRegistry,
    labeled_name,
    split_labels,
)

SETTINGS = settings(max_examples=50, deadline=None)

names = st.text(
    st.characters(whitelist_categories=("Ll",), whitelist_characters="._"),
    min_size=1,
    max_size=12,
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


def test_counters_accumulate_and_default_to_zero():
    registry = MetricsRegistry()
    assert registry.counter("missing") == 0.0
    assert registry.inc("a") == 1.0
    assert registry.inc("a", 2.5) == 3.5
    assert registry.counter("a") == 3.5


def test_gauges_overwrite():
    registry = MetricsRegistry()
    registry.set_gauge("g", 1.0)
    registry.set_gauge("g", -2.0)
    assert registry.gauge("g") == -2.0
    assert registry.gauge("missing") is None


def test_histogram_summary_statistics():
    registry = MetricsRegistry()
    for value in (1.0, 2.0, 6.0):
        registry.observe("h", value)
    summary = registry.histogram("h")
    assert summary.count == 3
    assert summary.sum == 9.0
    assert summary.min == 1.0 and summary.max == 6.0
    assert summary.mean == 3.0
    sketch = registry.sketch("h")
    assert sketch is not None and sketch.count == 3
    empty = registry.histogram("missing")
    assert empty.count == 0 and empty.mean == 0.0


def test_inc_many_prefixes():
    registry = MetricsRegistry()
    registry.inc_many({"x": 1, "y": 2}, prefix="job.")
    assert registry.counter("job.x") == 1.0
    assert registry.counter("job.y") == 2.0
    assert registry.names == ["job.x", "job.y"]


def test_reset_clears_everything():
    registry = MetricsRegistry()
    registry.inc("c")
    registry.set_gauge("g", 1.0)
    registry.observe("h", 2.0)
    registry.reset()
    assert registry.names == []
    assert registry.counter("c") == 0.0
    assert registry.gauge("g") is None
    assert registry.histogram("h").count == 0


def test_merge_sums_counters_overwrites_gauges_concats_histograms():
    left = MetricsRegistry()
    left.inc("c", 2.0)
    left.set_gauge("g", 1.0)
    left.observe("h", 1.0)
    right = MetricsRegistry()
    right.inc("c", 3.0)
    right.inc("only_right")
    right.set_gauge("g", 9.0)
    right.observe("h", 2.0)
    merged = left.merge(right)
    assert merged is left
    assert left.counter("c") == 5.0
    assert left.counter("only_right") == 1.0
    assert left.gauge("g") == 9.0
    merged_h = left.histogram("h")
    assert merged_h.count == 2 and merged_h.sum == 3.0
    assert merged_h.min == 1.0 and merged_h.max == 2.0


def test_to_dict_is_schema_versioned_and_sorted():
    registry = MetricsRegistry()
    registry.inc("b")
    registry.inc("a")
    payload = registry.to_dict()
    assert payload["schema"] == METRICS_SCHEMA
    assert payload["version"] == OBS_SCHEMA_VERSION
    assert list(payload["counters"]) == ["a", "b"]


def test_from_dict_rejects_foreign_schema():
    with pytest.raises(ValueError, match="not a repro.obs.metrics"):
        MetricsRegistry.from_dict({"schema": "something.else"})


@given(
    counters=st.dictionaries(names, finite, max_size=8),
    gauges=st.dictionaries(names, finite, max_size=8),
    hists=st.dictionaries(
        names, st.lists(finite, min_size=1, max_size=6), max_size=4
    ),
)
@SETTINGS
def test_roundtrip_through_dict(counters, gauges, hists):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.inc(name, value)
    for name, value in gauges.items():
        registry.set_gauge(name, value)
    for name, values in hists.items():
        for value in values:
            registry.observe(name, value)
    rebuilt = MetricsRegistry.from_dict(registry.to_dict())
    assert rebuilt.to_dict() == registry.to_dict()


@given(
    a=st.dictionaries(names, st.floats(-100, 100), max_size=6),
    b=st.dictionaries(names, st.floats(-100, 100), max_size=6),
)
@SETTINGS
def test_merge_counters_is_addition(a, b):
    left = MetricsRegistry()
    left.inc_many(a)
    right = MetricsRegistry()
    right.inc_many(b)
    left.merge(right)
    for name in set(a) | set(b):
        assert left.counter(name) == pytest.approx(
            a.get(name, 0.0) + b.get(name, 0.0)
        )


# One observation destined for a named (optionally labeled) series.
# Integer-valued floats keep additions exact, so shard-merge equality
# is bit-for-bit rather than approximate.
observation = st.tuples(
    names,
    st.one_of(st.none(), st.dictionaries(names, names, max_size=2)),
    st.integers(-10_000, 10_000).map(float),
)


@given(
    shards=st.lists(
        st.lists(observation, max_size=8), min_size=1, max_size=4
    )
)
@SETTINGS
def test_merged_shards_equal_single_registry_fed_union(shards):
    """Merging per-shard registries is exact: ≡ one registry fed everything.

    Pins the tentpole invariant for counters, histogram sketches, and
    labeled series alike.  (Gauges are last-writer-wins, so only the
    final shard's value survives either way.)
    """
    union = MetricsRegistry()
    merged = MetricsRegistry()
    for shard_obs in shards:
        shard = MetricsRegistry()
        for name, labels, value in shard_obs:
            union.inc(name, value, labels=labels)
            union.observe(name, value, labels=labels)
            shard.inc(name, value, labels=labels)
            shard.observe(name, value, labels=labels)
        merged.merge(shard)
    assert merged.to_dict() == union.to_dict()


@given(values=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1))
@SETTINGS
def test_histogram_quantiles_are_order_statistics_up_to_sketch_error(values):
    registry = MetricsRegistry()
    for value in values:
        registry.observe("h", value)
    summary = registry.histogram("h")
    assert summary.count == len(values)
    assert summary.min == min(values) and summary.max == max(values)
    for q in (summary.p50, summary.p90, summary.p99):
        assert summary.min <= q <= summary.max


def test_labeled_series_are_distinct_and_exported():
    registry = MetricsRegistry()
    registry.inc("device.media_reads", 2.0, labels={"tier": "0", "dev": "a"})
    registry.inc("device.media_reads", 5.0, labels={"tier": "2", "dev": "b"})
    assert registry.counter(
        "device.media_reads", labels={"tier": "0", "dev": "a"}
    ) == 2.0
    assert registry.counter("device.media_reads") == 0.0
    payload = registry.to_dict()
    labeled = [k for k in payload["counters"] if "{" in k]
    assert len(labeled) == 2
    rebuilt = MetricsRegistry.from_dict(payload)
    assert rebuilt.to_dict() == payload


label_names = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
#: Arbitrary text, with the characters the key encoding treats specially
#: drawn often enough to land at either end of a value.
label_values = st.one_of(
    st.text(st.one_of(st.sampled_from('"\\,={} \n'), st.characters())),
    st.integers(),
)


@SETTINGS
@given(name=names, labels=st.dictionaries(label_names, label_values, max_size=4))
def test_split_labels_inverts_labeled_name(name, labels):
    assert split_labels(labeled_name(name, labels)) == (
        name,
        {key: str(value) for key, value in labels.items()},
    )


@pytest.mark.parametrize(
    "value", ['x"', '"', 'a,b="c"', "x\\", '\\"', "}", "{}", ""]
)
def test_split_labels_keeps_quotes_and_backslashes(value):
    key = labeled_name("device.media_reads", {"client": value, "tier": 2})
    assert split_labels(key) == (
        "device.media_reads",
        {"client": value, "tier": "2"},
    )


def test_from_dict_accepts_legacy_sample_payloads():
    legacy = {
        "schema": METRICS_SCHEMA,
        "version": 1,
        "counters": {},
        "gauges": {},
        "samples": {"h": [1.0, 2.0, 6.0]},
    }
    rebuilt = MetricsRegistry.from_dict(legacy)
    summary = rebuilt.histogram("h")
    assert summary.count == 3 and summary.sum == 9.0
