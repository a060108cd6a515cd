"""Dependency-free Prometheus text-format telemetry exporter.

The service needs live operational metrics -- jobs by state, queue
depth, admission rejections, trial throughput -- that outlive
any single job's :class:`~repro.obs.metrics.MetricsRecorder`.  This
module provides the process-wide side of that: a
:class:`TelemetryRegistry` of counters, gauges and histograms, and
:func:`render_prometheus`, which serializes a registry into the
Prometheus text exposition format (version 0.0.4) without depending on
``prometheus_client``.

Design points:

* **Thread-safe.** Updates arrive from the asyncio event-loop thread
  *and* from executor threads running jobs, so every mutation holds a
  lock.  Reads snapshot under the same lock; a scrape never sees a
  half-applied histogram.
* **Counters are monotone.** :meth:`TelemetryRegistry.counter` only
  adds non-negative amounts; resetting requires a new registry.  This
  is what lets a scraper compute rates.
* **Deterministic exposition.** Families and label sets render in
  sorted order, so two scrapes of the same state produce identical
  bytes -- scrapes are diffable and the format tests are exact.
* **Stdlib only.** The renderer and :func:`parse_prometheus_text` (used
  by ``repro top``, the tests and the CI smoke asserting the endpoint
  parses) share one grammar.

Metric names follow Prometheus conventions: ``repro_`` prefix, base
units (seconds), ``_total`` suffix on counters.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Metric",
    "TelemetryRegistry",
    "get_registry",
    "parse_prometheus_text",
    "render_prometheus",
]

#: Default histogram buckets: wall-time oriented, seconds.
DEFAULT_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: label-set key: a sorted tuple of (label, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        if nxt == "n":
            out.append("\n")
        elif nxt in ("\\", '"'):
            out.append(nxt)
        else:
            out.append("\\" + nxt)
    return "".join(out)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Metric:
    """One metric family: name, type, help text and per-label-set data."""

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Sequence[float] = ()):
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        # counter/gauge: labelkey -> float
        # histogram: labelkey -> {"sum": float, "count": int,
        #                         "buckets": [count per upper bound]}
        self.series: Dict[LabelKey, Any] = {}


class TelemetryRegistry:
    """A process-wide registry of counters, gauges and histograms.

    One registry backs one exporter.  The module-level default (see
    :func:`get_registry`) is what the service uses; tests construct
    their own to isolate counts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # -- declaration ----------------------------------------------------

    def _declare(self, name: str, kind: str, help_text: str,
                 buckets: Sequence[float] = ()) -> Metric:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        metric = self._metrics.get(name)
        if metric is None:
            metric = Metric(name, kind, help_text, buckets)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already declared as {metric.kind}, not {kind}"
            )
        return metric

    # -- write paths ----------------------------------------------------

    def counter(
        self,
        name: str,
        amount: float = 1.0,
        *,
        labels: Optional[Mapping[str, str]] = None,
        help_text: str = "",
    ) -> float:
        """Add ``amount`` (>= 0) to a counter; returns the new value."""
        if amount < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0, got {amount}")
        key = _label_key(labels)
        with self._lock:
            metric = self._declare(name, "counter", help_text)
            value = metric.series.get(key, 0.0) + amount
            metric.series[key] = value
            return value

    def gauge(
        self,
        name: str,
        value: float,
        *,
        labels: Optional[Mapping[str, str]] = None,
        help_text: str = "",
    ) -> None:
        """Set a gauge to ``value``."""
        key = _label_key(labels)
        with self._lock:
            metric = self._declare(name, "gauge", help_text)
            metric.series[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        labels: Optional[Mapping[str, str]] = None,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Record one observation into a histogram."""
        key = _label_key(labels)
        with self._lock:
            metric = self._declare(name, "histogram", help_text, buckets)
            series = metric.series.get(key)
            if series is None:
                series = {
                    "sum": 0.0,
                    "count": 0,
                    "buckets": [0] * len(metric.buckets),
                }
                metric.series[key] = series
            series["sum"] += float(value)
            series["count"] += 1
            for index, upper in enumerate(metric.buckets):
                if value <= upper:
                    series["buckets"][index] += 1

    # -- read paths -----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A consistent, JSON-ready copy of every metric family.

        Series keys are rendered as ``label="value"`` strings (empty
        string for the unlabelled series), which is what ``/healthz``
        embeds.
        """
        with self._lock:
            out: Dict[str, Dict[str, Any]] = {}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                series: Dict[str, Any] = {}
                for key in sorted(metric.series):
                    label_str = ",".join(
                        f'{label}="{escape_label_value(value)}"'
                        for label, value in key
                    )
                    value = metric.series[key]
                    series[label_str] = (
                        dict(value, buckets=list(value["buckets"]))
                        if isinstance(value, dict)
                        else value
                    )
                out[name] = {"type": metric.kind, "series": series}
            return out

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[float]:
        """The current value of a counter/gauge series, or ``None``."""
        key = _label_key(labels)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return None
            value = metric.series.get(key)
            return None if isinstance(value, dict) else value

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            lines: List[str] = []
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                help_text = metric.help_text or name.replace("_", " ")
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for key in sorted(metric.series):
                    if metric.kind == "histogram":
                        lines.extend(_render_histogram(metric, key))
                    else:
                        lines.append(
                            f"{name}{_render_labels(key)} "
                            f"{_format_value(metric.series[key])}"
                        )
            return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(key: LabelKey, extra: Iterable[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{label}="{escape_label_value(str(value))}"' for label, value in pairs
    )
    return "{" + inner + "}"


def _render_histogram(metric: Metric, key: LabelKey) -> List[str]:
    series = metric.series[key]
    lines: List[str] = []
    # Bucket counts are stored cumulative (observe() increments every
    # bucket whose upper bound admits the value), matching the format.
    for upper, count in zip(metric.buckets, series["buckets"]):
        lines.append(
            f"{metric.name}_bucket"
            f"{_render_labels(key, [('le', _format_value(upper))])} {count}"
        )
    lines.append(
        f"{metric.name}_bucket{_render_labels(key, [('le', '+Inf')])} "
        f"{series['count']}"
    )
    lines.append(
        f"{metric.name}_sum{_render_labels(key)} {_format_value(series['sum'])}"
    )
    lines.append(f"{metric.name}_count{_render_labels(key)} {series['count']}")
    return lines


def render_prometheus(registry: Optional["TelemetryRegistry"] = None) -> str:
    """Render ``registry`` (default: the process-wide one) as text."""
    return (registry or get_registry()).render()


# ---------------------------------------------------------------------------
# The shared parser (dashboard, tests, CI smoke)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse exposition text into ``{family: {type, samples}}``.

    ``samples`` maps a frozen label tuple (sorted ``(name, value)``
    pairs, histogram suffixes folded into a ``__suffix__`` label) to a
    float.  Raises :class:`ValueError` on any malformed line, which is
    exactly what the conformance tests and the CI scrape rely on.
    """
    families: Dict[str, Dict[str, Any]] = {}
    types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE line: {raw!r}")
            types[parts[2]] = parts[3]
            families.setdefault(parts[2], {"type": parts[3], "samples": {}})
            continue
        if line.startswith("#"):
            if not line.startswith("# HELP "):
                raise ValueError(f"line {lineno}: unknown comment: {raw!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line: {raw!r}")
        name = match.group("name")
        labels_raw = match.group("labels") or ""
        labels: List[Tuple[str, str]] = []
        consumed = 0
        for pair in _LABEL_PAIR_RE.finditer(labels_raw):
            labels.append(
                (pair.group("name"), _unescape_label_value(pair.group("value")))
            )
            consumed = pair.end()
        remainder = labels_raw[consumed:].strip().strip(",")
        if remainder:
            raise ValueError(f"line {lineno}: malformed labels: {labels_raw!r}")
        value_raw = match.group("value")
        if value_raw == "+Inf":
            value = float("inf")
        elif value_raw == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(value_raw)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: malformed value {value_raw!r}"
                ) from None
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) in ("histogram", "summary"):
                family = base
                labels.append(("__suffix__", suffix))
                break
        entry = families.setdefault(
            family, {"type": types.get(family, "untyped"), "samples": {}}
        )
        entry["samples"][tuple(sorted(labels))] = value
    return families


# ---------------------------------------------------------------------------
# Process-wide default registry
# ---------------------------------------------------------------------------

_default_registry: Optional[TelemetryRegistry] = None
_default_lock = threading.Lock()


def get_registry() -> TelemetryRegistry:
    """The process-wide default registry (created on first use)."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = TelemetryRegistry()
        return _default_registry


def reset_registry() -> TelemetryRegistry:
    """Replace the process-wide registry with a fresh one (tests)."""
    global _default_registry
    with _default_lock:
        _default_registry = TelemetryRegistry()
        return _default_registry
