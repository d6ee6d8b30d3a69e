"""Prometheus text-format exposition for a :class:`MetricsRegistry`.

:func:`render_prometheus` turns the registry's flat dotted names into
the Prometheus exposition format (version 0.0.4 — what every scraper
and ``promtool check metrics`` accepts):

- counters become ``<ns>_<name>_total`` with ``# TYPE ... counter``;
- gauges become ``<ns>_<name>`` with ``# TYPE ... gauge``;
- quantile sketches become native Prometheus histograms — cumulative
  ``_bucket{le="..."}`` series over the sketch's occupied log buckets
  plus the implicit ``le="+Inf"``, ``_sum`` and ``_count``;
- label sets recorded through the registry's ``labels=`` keyword
  (canonically encoded in the metric key) are split back into label
  pairs and rendered inline, with ``extra_labels`` merged onto every
  series (the scrape-level identity: service instance, run label).

Only the first scrape that sees a key splits, sanitizes and escapes it:
the rendered head is kept in the registry (see
:func:`render_prometheus`), so later scrapes format values only.

:func:`parse_prometheus` is the matching validator — a strict parser
for the subset this module emits, used by tests and the CI smoke to
prove a live scrape is well-formed without a Prometheus binary in the
toolchain.
"""

from __future__ import annotations

import math
import re
import typing as t

from repro.obs.registry import MetricsRegistry, split_labels

#: Exposition format version (the classic text format).
EXPOSITION_FORMAT = "0.0.4"

#: Content-Type of an HTTP metrics response.
CONTENT_TYPE = f"text/plain; version={EXPOSITION_FORMAT}; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_METRIC_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_BAD = re.compile(r"[^a-zA-Z0-9_]")

_SERIES_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def sanitize_metric_name(name: str) -> str:
    """Dotted registry name → legal Prometheus metric name."""
    cleaned = _METRIC_NAME_BAD.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def sanitize_label_name(name: str) -> str:
    cleaned = _LABEL_NAME_BAD.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def _label_pair(key: str, value: t.Any) -> str:
    return f'{sanitize_label_name(key)}="{_escape_label_value(str(value))}"'


def _render_labels(labels: t.Mapping[str, t.Any]) -> str:
    if not labels:
        return ""
    body = ",".join(_label_pair(key, labels[key]) for key in sorted(labels))
    return "{" + body + "}"


def _series_head(
    key: str, prefix: str, extra: dict[str, str], *, counter: bool
) -> tuple[str, str]:
    """``(family, head)`` of one counter or gauge series."""
    name, labels = split_labels(key)
    metric = prefix + sanitize_metric_name(name)
    if counter and not metric.endswith("_total"):
        metric += "_total"
    return metric, metric + _render_labels({**extra, **labels})


def _histogram_head(
    key: str, prefix: str, extra: dict[str, str]
) -> tuple[str, str, str, str, str]:
    """Heads of one histogram series: ``(family, bucket head through
    le=", bucket head after the le value, _sum head, _count head)``."""
    name, labels = split_labels(key)
    metric = prefix + sanitize_metric_name(name)
    merged = {**extra, **labels}
    keys = sorted({**merged, "le": ""})
    at = keys.index("le")
    pairs = [_label_pair(k, merged[k]) for k in keys if k != "le"]
    bucket = f"{metric}_bucket{{" + "".join(p + "," for p in pairs[:at])
    bucket_end = '"' + "".join("," + p for p in pairs[at:]) + "}"
    block = _render_labels(merged)
    return (
        metric,
        bucket + 'le="',
        bucket_end,
        f"{metric}_sum{block}",
        f"{metric}_count{block}",
    )


def render_prometheus(
    registry: MetricsRegistry,
    *,
    namespace: str = "repro",
    extra_labels: t.Mapping[str, str] | None = None,
) -> str:
    """The registry as one Prometheus text-format exposition document.

    Each series' head (metric name and label block) is rendered the
    first time a scrape sees its key and kept in the registry, per
    ``namespace`` and ``extra_labels``; :meth:`MetricsRegistry.reset`
    drops them.  A repeat scrape costs a sort and one value format per
    series.
    """
    extra = {key: str(value) for key, value in (extra_labels or {}).items()}
    scope = (namespace, tuple(sorted(extra.items())))
    counter_heads, gauge_heads, histogram_heads = (
        registry._prom_heads.setdefault(scope, ({}, {}, {}))
    )
    lines: list[str] = []
    families: dict[str, list[str]] = {}

    def family(name: str, kind: str) -> list[str]:
        block = families.get(name)
        if block is None:
            block = families[name] = [f"# TYPE {name} {kind}"]
        return block

    prefix = f"{namespace}_" if namespace else ""

    for kind, values, heads in (
        ("counter", registry.counters, counter_heads),
        ("gauge", registry.gauges, gauge_heads),
    ):
        for key in sorted(values):
            head = heads.get(key)
            if head is None:
                head = heads[key] = _series_head(
                    key, prefix, extra, counter=kind == "counter"
                )
            family(head[0], kind).append(
                f"{head[1]} {_format_value(values[key])}"
            )

    for key in sorted(registry._histograms):
        head = histogram_heads.get(key)
        if head is None:
            head = histogram_heads[key] = _histogram_head(key, prefix, extra)
        metric, bucket, bucket_end, sum_head, count_head = head
        sketch = registry._histograms[key]
        block = family(metric, "histogram")
        for upper, cumulative in sketch.cumulative():
            block.append(
                f"{bucket}{_format_value(upper)}{bucket_end} {cumulative}"
            )
        block.append(f"{bucket}+Inf{bucket_end} {sketch.count}")
        block.append(f"{sum_head} {_format_value(sketch.sum)}")
        block.append(f"{count_head} {sketch.count}")

    for name in sorted(families):
        lines.extend(families[name])
    return "\n".join(lines) + "\n" if lines else "\n"


@t.runtime_checkable
class _SupportsMetrics(t.Protocol):  # pragma: no cover - typing aid
    metrics: MetricsRegistry


def parse_prometheus(text: str) -> dict[tuple[str, str], float]:
    """Strictly parse exposition text; ``(metric, labelstring) → value``.

    Raises :class:`ValueError` on anything malformed: bad metric/label
    names, valueless series, ``# TYPE`` redeclarations, histograms whose
    cumulative buckets decrease or that lack the ``+Inf`` bucket.  A
    passing parse is what the CI smoke calls "valid Prometheus text
    format".
    """
    series: dict[tuple[str, str], float] = {}
    types: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: malformed TYPE: {raw!r}")
                _, _, metric, kind = parts
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                if metric in types:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for {metric}"
                    )
                types[metric] = kind
            continue
        match = _SERIES_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable series: {raw!r}")
        name = match.group("name")
        if not _NAME_OK.match(name):
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        labels = match.group("labels") or ""
        for pair in filter(None, _split_label_pairs(labels)):
            if _LABEL_PAIR.match(pair) is None:
                raise ValueError(f"line {lineno}: bad label pair {pair!r}")
        value = match.group("value")
        if value == "+Inf":
            parsed = math.inf
        elif value == "-Inf":
            parsed = -math.inf
        elif value == "NaN":
            parsed = math.nan
        else:
            try:
                parsed = float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad sample value {value!r}"
                ) from None
        sample_key = (name, labels)
        if sample_key in series:
            raise ValueError(f"line {lineno}: duplicate series {line!r}")
        series[sample_key] = parsed
    _check_histograms(series, types)
    return series


def _split_label_pairs(body: str) -> list[str]:
    pairs, quoted, start = [], False, 0
    i = 0
    while i < len(body):
        char = body[i]
        if char == "\\":
            i += 2
            continue
        if char == '"':
            quoted = not quoted
        elif char == "," and not quoted:
            pairs.append(body[start:i])
            start = i + 1
        i += 1
    pairs.append(body[start:])
    return [p for p in pairs if p]


def _check_histograms(
    series: dict[tuple[str, str], float], types: dict[str, str]
) -> None:
    """Cumulative-bucket sanity for every declared histogram family."""
    for metric, kind in types.items():
        if kind != "histogram":
            continue
        buckets: dict[str, list[tuple[float, float]]] = {}
        has_inf: dict[str, bool] = {}
        for (name, labels), value in series.items():
            if name != f"{metric}_bucket":
                continue
            le = None
            rest = []
            for pair in _split_label_pairs(labels):
                key, _, val = pair.partition("=")
                if key == "le":
                    le = val.strip('"')
                else:
                    rest.append(pair)
            if le is None:
                raise ValueError(f"{metric}_bucket series without le label")
            ident = ",".join(sorted(rest))
            bound = math.inf if le == "+Inf" else float(le)
            buckets.setdefault(ident, []).append((bound, value))
            if bound == math.inf:
                has_inf[ident] = True
        for ident, pairs in buckets.items():
            if not has_inf.get(ident):
                raise ValueError(f"{metric}: histogram lacks +Inf bucket")
            ordered = sorted(pairs)
            counts = [count for _, count in ordered]
            if any(b > a for a, b in zip(counts[1:], counts)):
                raise ValueError(
                    f"{metric}: cumulative bucket counts decrease"
                )
