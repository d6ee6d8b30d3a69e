"""Prometheus exposition: rendering, strict parsing, histogram checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
    split_labels,
)
from repro.obs.prom import (
    CONTENT_TYPE,
    sanitize_label_name,
    sanitize_metric_name,
)


def reference_render(registry, *, namespace="repro", extra_labels=None):
    """The un-memoized renderer: split, sanitize and escape every series
    on every call.  ``render_prometheus`` must match it byte for byte."""

    def escape(value):
        return (
            value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    def fmt(value):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return repr(float(value))

    def render_labels(labels):
        if not labels:
            return ""
        body = ",".join(
            f'{sanitize_label_name(key)}="{escape(str(labels[key]))}"'
            for key in sorted(labels)
        )
        return "{" + body + "}"

    extra = dict(extra_labels or {})
    families = {}

    def family(name, kind):
        if name not in families:
            families[name] = [f"# TYPE {name} {kind}"]
        return families[name]

    prefix = f"{namespace}_" if namespace else ""
    for key in sorted(registry.counters):
        name, labels = split_labels(key)
        metric = prefix + sanitize_metric_name(name)
        if not metric.endswith("_total"):
            metric += "_total"
        family(metric, "counter").append(
            f"{metric}{render_labels({**extra, **labels})} "
            f"{fmt(registry.counters[key])}"
        )
    for key in sorted(registry.gauges):
        name, labels = split_labels(key)
        metric = prefix + sanitize_metric_name(name)
        family(metric, "gauge").append(
            f"{metric}{render_labels({**extra, **labels})} "
            f"{fmt(registry.gauges[key])}"
        )
    for key in sorted(registry._histograms):
        name, labels = split_labels(key)
        metric = prefix + sanitize_metric_name(name)
        sketch = registry._histograms[key]
        block = family(metric, "histogram")
        merged = {**extra, **labels}
        for upper, cumulative in sketch.cumulative():
            block.append(
                f"{metric}_bucket{render_labels({**merged, 'le': fmt(upper)})} "
                f"{cumulative}"
            )
        block.append(
            f"{metric}_bucket{render_labels({**merged, 'le': '+Inf'})} "
            f"{sketch.count}"
        )
        block.append(f"{metric}_sum{render_labels(merged)} {fmt(sketch.sum)}")
        block.append(f"{metric}_count{render_labels(merged)} {sketch.count}")
    lines = [line for name in sorted(families) for line in families[name]]
    return "\n".join(lines) + "\n" if lines else "\n"


def small_registry():
    registry = MetricsRegistry()
    registry.inc("service.submitted", 3.0)
    registry.inc(
        "device.media_reads", 42.0, labels={"tier": "2", "device": "dimm0"}
    )
    registry.set_gauge("service.queue_depth", 5.0)
    for value in (0.1, 0.2, 0.4):
        registry.observe("jobs.execution_time_s", value)
    return registry


def test_content_type_pins_exposition_version():
    assert "version=0.0.4" in CONTENT_TYPE


def test_sanitize_names():
    assert sanitize_metric_name("jobs.execution_time_s") == (
        "jobs_execution_time_s"
    )
    assert sanitize_metric_name("9lives") == "_9lives"
    assert sanitize_label_name("tier-id") == "tier_id"


def test_render_parse_roundtrip():
    text = render_prometheus(small_registry())
    series = parse_prometheus(text)
    assert series[("repro_service_submitted_total", "")] == 3.0
    assert series[("repro_service_queue_depth", "")] == 5.0
    assert series[
        ("repro_device_media_reads_total", 'device="dimm0",tier="2"')
    ] == 42.0
    assert series[("repro_jobs_execution_time_s_count", "")] == 3.0
    assert series[("repro_jobs_execution_time_s_sum", "")] == pytest.approx(
        0.7
    )
    inf_buckets = [
        key
        for key in series
        if key[0] == "repro_jobs_execution_time_s_bucket"
        and 'le="+Inf"' in key[1]
    ]
    assert len(inf_buckets) == 1
    assert series[inf_buckets[0]] == 3.0


def test_type_lines_once_per_family():
    text = render_prometheus(small_registry())
    type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
    assert len(type_lines) == len(set(type_lines))
    assert "# TYPE repro_jobs_execution_time_s histogram" in type_lines
    assert "# TYPE repro_service_submitted_total counter" in type_lines


def test_extra_labels_stamp_every_series():
    text = render_prometheus(
        small_registry(), extra_labels={"instance": "svc-1"}
    )
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        assert 'instance="svc-1"' in line


def test_namespace_is_configurable():
    registry = MetricsRegistry()
    registry.inc("c")
    assert "spark_c_total 1.0" in render_prometheus(
        registry, namespace="spark"
    )


def test_label_values_escape_quotes_and_backslashes():
    registry = MetricsRegistry()
    registry.inc("c", labels={"k": 'va"l\\ue'})
    text = render_prometheus(registry)
    series = parse_prometheus(text)
    (key,) = [k for k in series if k[0] == "repro_c_total"]
    assert "\\\"" in key[1]


def test_negative_observations_render_valid_histograms():
    registry = MetricsRegistry()
    for value in (-2.0, -1.0, 0.0, 3.0):
        registry.observe("delta", value)
    series = parse_prometheus(render_prometheus(registry))
    assert series[("repro_delta_count", "")] == 4.0
    assert series[("repro_delta_sum", "")] == 0.0


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match="unparseable"):
        parse_prometheus("not a metric line at all!\n")
    with pytest.raises(ValueError, match="bad sample value"):
        parse_prometheus("ok_metric twelve\n")
    with pytest.raises(ValueError, match="malformed TYPE"):
        parse_prometheus("# TYPE only_three\n")
    with pytest.raises(ValueError, match="unknown metric type"):
        parse_prometheus("# TYPE m sideways\n")
    with pytest.raises(ValueError, match="duplicate TYPE"):
        parse_prometheus("# TYPE m counter\n# TYPE m counter\n")
    with pytest.raises(ValueError, match="duplicate series"):
        parse_prometheus("m 1\nm 2\n")


def test_parse_rejects_histogram_without_inf_bucket():
    bad = (
        "# TYPE h histogram\n"
        'h_bucket{le="1.0"} 2\n'
        "h_sum 1.0\n"
        "h_count 2\n"
    )
    with pytest.raises(ValueError, match="lacks \\+Inf"):
        parse_prometheus(bad)


def test_parse_rejects_decreasing_cumulative_buckets():
    bad = (
        "# TYPE h histogram\n"
        'h_bucket{le="1.0"} 5\n'
        'h_bucket{le="2.0"} 3\n'
        'h_bucket{le="+Inf"} 5\n'
        "h_sum 1.0\n"
        "h_count 5\n"
    )
    with pytest.raises(ValueError, match="decrease"):
        parse_prometheus(bad)


def test_parse_accepts_special_values():
    series = parse_prometheus("a +Inf\nb -Inf\nc NaN\n")
    assert series[("a", "")] == math.inf
    assert series[("b", "")] == -math.inf
    assert math.isnan(series[("c", "")])


def test_empty_registry_renders_empty_document():
    assert parse_prometheus(render_prometheus(MetricsRegistry())) == {}


def test_label_values_that_differ_only_by_a_trailing_quote_stay_distinct():
    registry = MetricsRegistry()
    for client in ('x"', "x\\"):
        registry.inc("device.media_reads", 1.0, labels={"client": client})
    series = parse_prometheus(render_prometheus(registry))
    assert sorted(series) == [
        ("repro_device_media_reads_total", 'client="x\\""'),
        ("repro_device_media_reads_total", 'client="x\\\\"'),
    ]


# Small pools, so keys repeat and values change between renders; names
# and label names that sanitize, collide or clash with ``le`` on purpose,
# and label values that need escaping.
METRIC_NAMES = ["jobs.done", "device.media_reads", "x", "x_total", "9lives"]
label_sets = st.sampled_from([
    {},
    {"tier": "2"},
    {"client": 'x"', "tier": "0"},
    {"client": "x\\", "le": "0.5"},
    {"a-b": 'a,b="c"', "zz": "two\nlines", "client": ""},
])
scopes = st.tuples(
    st.sampled_from(["repro", "spark", ""]),
    st.sampled_from([None, {}, {"instance": "svc-1"}, {"tier": "9", "le": 'q"'}]),
)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
instrument_ops = st.tuples(
    st.sampled_from(["inc", "set_gauge", "observe"]),
    st.sampled_from(METRIC_NAMES),
    label_sets,
    values,
)
registry_ops = st.one_of(
    instrument_ops,
    st.tuples(st.just("merge"), st.lists(instrument_ops, max_size=4)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("scope"), scopes),
)


def apply(registry, op):
    kind, name, labels, value = op
    getattr(registry, kind)(name, value, labels=labels)


def assert_renders_like_reference(registry, namespace, extra):
    assert render_prometheus(
        registry, namespace=namespace, extra_labels=extra
    ) == reference_render(registry, namespace=namespace, extra_labels=extra)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(registry_ops, max_size=40), final=st.lists(scopes, min_size=1))
def test_memoized_render_matches_reference_renderer(ops, final):
    """Render after every step, under the scope (namespace, extra labels)
    the last ``scope`` step chose, then under each ``final`` scope."""
    registry = MetricsRegistry()
    namespace, extra = "repro", None
    for op in ops:
        if op[0] == "merge":
            other = MetricsRegistry()
            for inner in op[1]:
                apply(other, inner)
            registry.merge(other)
        elif op[0] == "reset":
            registry.reset()
        elif op[0] == "scope":
            namespace, extra = op[1]
        else:
            apply(registry, op)
        assert_renders_like_reference(registry, namespace, extra)
    for namespace, extra in final:
        assert_renders_like_reference(registry, namespace, extra)
