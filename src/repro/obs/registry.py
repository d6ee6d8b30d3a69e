"""The unified metrics registry.

One :class:`MetricsRegistry` per observed run collects what every
subsystem measures — simulation-kernel event counts, scheduler
fault-tolerance counters, shuffle traffic, injected faults, telemetry
events, DIMM counters and energy — under dotted names
(``"shuffle.bytes_written"``, ``"faults.task_crashes"``,
``"sim.events_processed"``...), replacing the per-subsystem dict
plumbing with one mergeable, resettable store.

Three instrument kinds:

- **counters** — monotonically accumulated floats (:meth:`inc`);
- **gauges** — last-written values (:meth:`set_gauge`);
- **histograms** — streaming quantile sketches
  (:class:`~repro.obs.sketch.QuantileSketch`): bounded memory,
  p50/p90/p99 on demand, exact merge semantics (:meth:`observe`).

Every instrument takes an optional ``labels=`` mapping — the label set
is folded into the metric key with a canonical encoding
(``name{k="v",...}``, keys sorted), so labelled series merge, reset and
round-trip exactly like plain ones, and the Prometheus exposition
(:mod:`repro.obs.prom`) splits them back into label pairs
(:func:`split_labels` inverts :func:`labeled_name` for every value).

Registries merge (campaign-level roll-ups sum per-point registries) and
round-trip through a schema-versioned dict (:meth:`to_dict` /
:meth:`from_dict`) — the payload of the flat metrics JSON exporter.
"""

from __future__ import annotations

import re
import typing as t
from dataclasses import dataclass

from repro.obs.sketch import QuantileSketch
from repro.version import OBS_SCHEMA_VERSION

#: ``schema`` field of every exported metrics payload.
METRICS_SCHEMA = "repro.obs.metrics"


def labeled_name(name: str, labels: t.Mapping[str, t.Any] | None) -> str:
    """Canonical metric key for ``name`` + ``labels``.

    ``labeled_name("x", {"tier": 2})`` → ``'x{tier="2"}'``; keys are
    sorted so equal label sets always produce equal keys, and values are
    escaped so the encoding is unambiguous.
    """
    if not labels:
        return name
    encoded = ",".join(
        f'{key}="{_escape(str(labels[key]))}"' for key in sorted(labels)
    )
    return f"{name}{{{encoded}}}"


def split_labels(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`labeled_name`: ``'x{tier="2"}'`` → ``("x", {...})``.

    Exact for every label value, whatever quotes, backslashes, commas or
    braces it holds.  A key that is not a canonical encoding is returned
    whole as a plain name.
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, body = key.partition("{")
    body = body[:-1]
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        match = _PAIR.match(body, pos)
        if match is None:
            return key, {}
        value = match["value"]
        if "\\" in value:
            value = _ESCAPED.sub(r"\1", value)
        labels[match["key"]] = value
        pos = match.end()
    return name, labels


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


#: One ``key="value"`` pair of a canonical key, with its separator.
_PAIR = re.compile(
    r'(?P<key>[^=]*)="(?P<value>(?:[^"\\]|\\.)*)"(?:,|\Z)', re.S
)
#: One escape sequence inside a value (``\\`` or ``\"``).
_ESCAPED = re.compile(r"\\(.)", re.S)


@dataclass(frozen=True)
class HistogramSummary:
    """Summary statistics over one histogram's observed samples."""

    count: int
    sum: float
    min: float
    max: float
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


class MetricsRegistry:
    """Counters, gauges and quantile sketches under dotted metric names."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._histograms: dict[str, QuantileSketch] = {}
        #: Rendered Prometheus series heads, filled by
        #: :func:`repro.obs.prom.render_prometheus`: at most one per key,
        #: instrument kind, namespace and extra-label set.
        self._prom_heads: dict[t.Any, t.Any] = {}

    # -- instruments ---------------------------------------------------------
    def inc(
        self,
        name: str,
        value: float = 1.0,
        labels: t.Mapping[str, t.Any] | None = None,
    ) -> float:
        """Add ``value`` to counter ``name``; returns the new total."""
        key = labeled_name(name, labels)
        total = self.counters.get(key, 0.0) + value
        self.counters[key] = total
        return total

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: t.Mapping[str, t.Any] | None = None,
    ) -> None:
        self.gauges[labeled_name(name, labels)] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        labels: t.Mapping[str, t.Any] | None = None,
    ) -> None:
        key = labeled_name(name, labels)
        sketch = self._histograms.get(key)
        if sketch is None:
            sketch = self._histograms[key] = QuantileSketch()
        sketch.observe(float(value))

    def inc_many(self, values: t.Mapping[str, float], prefix: str = "") -> None:
        """Bulk counter increment (``prefix`` is prepended to each key)."""
        for key, value in values.items():
            self.inc(f"{prefix}{key}", float(value))

    # -- reads ---------------------------------------------------------------
    def counter(
        self, name: str, labels: t.Mapping[str, t.Any] | None = None
    ) -> float:
        return self.counters.get(labeled_name(name, labels), 0.0)

    def gauge(
        self, name: str, labels: t.Mapping[str, t.Any] | None = None
    ) -> float | None:
        return self.gauges.get(labeled_name(name, labels))

    def histogram(
        self, name: str, labels: t.Mapping[str, t.Any] | None = None
    ) -> HistogramSummary:
        sketch = self._histograms.get(labeled_name(name, labels))
        if sketch is None or sketch.count == 0:
            return HistogramSummary(count=0, sum=0.0, min=0.0, max=0.0)
        return HistogramSummary(
            count=sketch.count,
            sum=sketch.sum,
            min=sketch.min,
            max=sketch.max,
            p50=sketch.quantile(0.50),
            p90=sketch.quantile(0.90),
            p99=sketch.quantile(0.99),
        )

    def quantile(
        self,
        name: str,
        q: float,
        labels: t.Mapping[str, t.Any] | None = None,
    ) -> float:
        """Streaming quantile of one histogram (0.0 when empty)."""
        sketch = self._histograms.get(labeled_name(name, labels))
        return sketch.quantile(q) if sketch is not None else 0.0

    def sketch(
        self, name: str, labels: t.Mapping[str, t.Any] | None = None
    ) -> QuantileSketch | None:
        """The raw sketch behind one histogram (None when never observed)."""
        return self._histograms.get(labeled_name(name, labels))

    @property
    def names(self) -> list[str]:
        """Every metric name in the registry, sorted."""
        return sorted(
            set(self.counters) | set(self.gauges) | set(self._histograms)
        )

    # -- lifecycle -------------------------------------------------------------
    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self._histograms.clear()
        self._prom_heads.clear()

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place; returns self).

        Counters sum, histogram sketches merge exactly (equal to one
        registry fed the union of observations), and gauges take
        ``other``'s value (last writer wins — a gauge is a point-in-time
        reading).
        """
        for name, value in other.counters.items():
            self.inc(name, value)
        for name, value in other.gauges.items():
            self.gauges[name] = value
        for name, sketch in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = QuantileSketch().merge(sketch)
            else:
                mine.merge(sketch)
        return self

    # -- (de)serialization -----------------------------------------------------
    def to_dict(self) -> dict[str, t.Any]:
        """Schema-versioned flat payload (the metrics JSON exporter body)."""
        return {
            "schema": METRICS_SCHEMA,
            "version": OBS_SCHEMA_VERSION,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                name: self.histogram(name).to_dict()
                for name in sorted(self._histograms)
            },
            "sketches": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output.

        Raises :class:`ValueError` on an unknown schema so stale or
        foreign files fail loudly instead of merging garbage.  Payloads
        from the pre-sketch schema (raw ``samples`` lists) are accepted
        by re-observing the samples.
        """
        if payload.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"not a {METRICS_SCHEMA} payload: {payload.get('schema')!r}"
            )
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry.counters[name] = float(value)
        for name, value in payload.get("gauges", {}).items():
            registry.gauges[name] = float(value)
        if "sketches" in payload:
            for name, sketch in payload["sketches"].items():
                registry._histograms[name] = QuantileSketch.from_dict(sketch)
        else:  # schema-1 payload: raw sample lists
            for name, values in payload.get("samples", {}).items():
                for value in values:
                    registry.observe(name, float(value))
        return registry
