"""Zero-dependency metrics: counters, gauges and log-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe bag of named series.  Series
are keyed by ``name`` plus an optional label mapping; the flat string
encoding (``name|label=value|...``, labels sorted) keeps snapshots plain
JSON so they can ride worker result frames and ``SweepResult.telemetry``
sections unchanged.

Three aggregation paths share one data model:

* **process-local**: instrumentation points call the module-level
  :func:`inc` / :func:`observe` / :func:`set_gauge` helpers, which write to
  the process :data:`GLOBAL` registry;
* **per-task deltas**: :func:`capture` additionally routes every write
  inside its scope into a fresh registry (a :mod:`contextvars` sink, so
  concurrent threads never see each other's deltas) -- workers snapshot it
  and piggyback the delta on their existing result frames;
* **fleet aggregation**: the verification service :meth:`~MetricsRegistry.
  merge`\\ s those snapshots into its scheduler-owned registry and renders
  the union as Prometheus text exposition (:meth:`~MetricsRegistry.
  render_prometheus` -- hand-rolled, no client library).

Histograms use fixed log-scale buckets (:data:`HISTOGRAM_BUCKETS`, powers
of two), so merged histograms from heterogeneous workers always align.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "HISTOGRAM_BUCKETS",
    "MetricsRegistry",
    "GLOBAL",
    "metric_key",
    "parse_metric_key",
    "inc",
    "observe",
    "set_gauge",
    "capture",
    "fallback_summary",
]

#: Histogram bucket upper bounds: powers of two from 2**-20 (~1 microsecond
#: when observing seconds) through 2**10 (~17 minutes); an implicit +Inf
#: overflow bucket follows.  Fixed for every histogram so snapshots merge
#: bucket-by-bucket across processes and schema-free JSON.
HISTOGRAM_BUCKETS: Tuple[float, ...] = tuple(2.0 ** k for k in range(-20, 11))


def metric_key(name: str, labels: Optional[Mapping[str, Any]] = None) -> str:
    """Flat series key: ``name`` or ``name|label=value|...`` (labels sorted)."""
    if not labels:
        return name
    return name + "|" + "|".join(f"{k}={labels[k]}" for k in sorted(labels))


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`metric_key` (label values round-trip as strings)."""
    name, _, rest = key.partition("|")
    labels: Dict[str, str] = {}
    if rest:
        for part in rest.split("|"):
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class MetricsRegistry:
    """A thread-safe registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        #: key -> [per-bucket counts (len(HISTOGRAM_BUCKETS) + 1), sum, count]
        self._histograms: Dict[str, List[Any]] = {}

    # ------------------------------------------------------------------ #
    def inc(
        self, name: str, value: float = 1.0,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(
        self, name: str, value: float,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> None:
        with self._lock:
            self._gauges[metric_key(name, labels)] = float(value)

    def observe(
        self, name: str, value: float,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> None:
        key = metric_key(name, labels)
        bucket = bisect_left(HISTOGRAM_BUCKETS, value)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = [[0] * (len(HISTOGRAM_BUCKETS) + 1), 0.0, 0]
                self._histograms[key] = hist
            hist[0][bucket] += 1
            hist[1] += value
            hist[2] += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe copy of every series (the wire/report format)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    key: {"buckets": list(h[0]), "sum": h[1], "count": h[2]}
                    for key, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the incoming value (last
        write wins -- they describe current state, not accumulation).
        Histograms with a different bucket count are ignored rather than
        corrupting aligned series (snapshots from a different code version).
        """
        with self._lock:
            for key, value in (snapshot.get("counters") or {}).items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, value in (snapshot.get("gauges") or {}).items():
                self._gauges[key] = float(value)
            for key, doc in (snapshot.get("histograms") or {}).items():
                buckets = doc.get("buckets") or []
                if len(buckets) != len(HISTOGRAM_BUCKETS) + 1:
                    continue
                hist = self._histograms.get(key)
                if hist is None:
                    hist = [[0] * (len(HISTOGRAM_BUCKETS) + 1), 0.0, 0]
                    self._histograms[key] = hist
                for i, n in enumerate(buckets):
                    hist[0][i] += n
                hist[1] += doc.get("sum", 0.0)
                hist[2] += doc.get("count", 0)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def is_empty(self) -> bool:
        with self._lock:
            return not (self._counters or self._gauges or self._histograms)

    # ------------------------------------------------------------------ #
    # Prometheus text exposition (version 0.0.4), hand-rolled: the service
    # has no third-party dependencies, and the format is line-oriented
    # enough not to need any.
    # ------------------------------------------------------------------ #
    @staticmethod
    def _escape(value: str) -> str:
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    @classmethod
    def _series_line(
        cls, name: str, labels: Mapping[str, str], value: Any,
        extra: Optional[Tuple[str, str]] = None,
    ) -> str:
        pairs = [(k, labels[k]) for k in sorted(labels)]
        if extra is not None:
            pairs.append(extra)
        label_str = (
            "{" + ",".join(f'{k}="{cls._escape(v)}"' for k, v in pairs) + "}"
            if pairs
            else ""
        )
        return f"{name}{label_str} {value}"

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition format."""
        snap = self.snapshot()
        lines: List[str] = []

        def families(series: Mapping[str, Any]) -> Iterator[Tuple[str, List[str]]]:
            by_name: Dict[str, List[str]] = {}
            for key in series:
                by_name.setdefault(parse_metric_key(key)[0], []).append(key)
            for name in sorted(by_name):
                yield name, sorted(by_name[name])

        for name, keys in families(snap["counters"]):
            lines.append(f"# TYPE {name} counter")
            for key in keys:
                _, labels = parse_metric_key(key)
                lines.append(self._series_line(name, labels, snap["counters"][key]))
        for name, keys in families(snap["gauges"]):
            lines.append(f"# TYPE {name} gauge")
            for key in keys:
                _, labels = parse_metric_key(key)
                lines.append(self._series_line(name, labels, snap["gauges"][key]))
        for name, keys in families(snap["histograms"]):
            lines.append(f"# TYPE {name} histogram")
            for key in keys:
                _, labels = parse_metric_key(key)
                doc = snap["histograms"][key]
                cumulative = 0
                for bound, count in zip(HISTOGRAM_BUCKETS, doc["buckets"]):
                    cumulative += count
                    lines.append(
                        self._series_line(
                            f"{name}_bucket", labels, cumulative,
                            extra=("le", repr(bound)),
                        )
                    )
                cumulative += doc["buckets"][-1]
                lines.append(
                    self._series_line(
                        f"{name}_bucket", labels, cumulative, extra=("le", "+Inf")
                    )
                )
                lines.append(self._series_line(f"{name}_sum", labels, doc["sum"]))
                lines.append(self._series_line(f"{name}_count", labels, doc["count"]))
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrumentation point writes to.
GLOBAL = MetricsRegistry()

#: Optional per-scope delta sink (see :func:`capture`).  A context variable
#: rather than a plain global: concurrent local-executor threads each
#: capture only their own task's writes.
_SINK: "ContextVar[Optional[MetricsRegistry]]" = ContextVar(
    "repro_metrics_sink", default=None
)


def inc(name: str, value: float = 1.0,
        labels: Optional[Mapping[str, Any]] = None) -> None:
    """Increment a counter in :data:`GLOBAL` (and the active capture sink)."""
    GLOBAL.inc(name, value, labels)
    sink = _SINK.get()
    if sink is not None:
        sink.inc(name, value, labels)


def observe(name: str, value: float,
            labels: Optional[Mapping[str, Any]] = None) -> None:
    """Record a histogram observation (GLOBAL plus the capture sink)."""
    GLOBAL.observe(name, value, labels)
    sink = _SINK.get()
    if sink is not None:
        sink.observe(name, value, labels)


def set_gauge(name: str, value: float,
              labels: Optional[Mapping[str, Any]] = None) -> None:
    """Set a gauge (GLOBAL plus the capture sink)."""
    GLOBAL.set_gauge(name, value, labels)
    sink = _SINK.get()
    if sink is not None:
        sink.set_gauge(name, value, labels)


@contextmanager
def capture() -> Iterator[MetricsRegistry]:
    """Collect the metric *delta* produced inside the ``with`` block.

    Yields a fresh registry that accumulates every write made on this
    thread (via the module-level helpers) for the duration of the block;
    :data:`GLOBAL` still sees everything.  Workers wrap task execution in
    this and ship ``registry.snapshot()`` on the result frame.
    """
    sink = MetricsRegistry()
    token = _SINK.set(sink)
    try:
        yield sink
    finally:
        _SINK.reset(token)


def fallback_summary(
    snapshot: Optional[Mapping[str, Any]], top: int = 5
) -> List[Tuple[str, int]]:
    """Top-``top`` scope fallback reasons from a metrics snapshot.

    Reads the ``repro_scope_fallback_total{reason=...}`` counter family
    (recorded by the analyze layer, keyed by its rejection-reason
    strings); returns ``(reason, count)`` pairs, most frequent first, ties
    broken alphabetically.  Tolerates ``None`` / empty snapshots.
    """
    if not snapshot:
        return []
    totals: Dict[str, int] = {}
    for key, value in (snapshot.get("counters") or {}).items():
        name, labels = parse_metric_key(key)
        if name == "repro_scope_fallback_total":
            reason = labels.get("reason", "unknown")
            totals[reason] = totals.get(reason, 0) + int(value)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]
