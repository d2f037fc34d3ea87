"""Opt-in, zero-dependency observability for the verification pipeline.

Three cooperating pieces, threaded through every layer of the system:

* :mod:`repro.telemetry.clock` -- the **clock seam**.  The only module
  (outside benchmarks) allowed to call ``time.monotonic`` /
  ``time.perf_counter`` (lint rule 4); everything timing-dependent
  injects or imports its clock from here, so tests drive time
  deterministically.
* :mod:`repro.telemetry.trace` -- the **span tracer**.  Context-manager
  spans over the analyze -> codegen -> execute prepare phases,
  per-trial fuzzing and per-state/per-scope execution; JSONL output that
  doubles as Chrome trace events.
  Disabled (the default) it allocates nothing.
* :mod:`repro.telemetry.metrics` -- the **metrics registry**.  Counters,
  gauges and fixed-log-bucket histograms for scope-lowering outcomes
  (keyed by the analyzer's rejection-reason slugs), fusion chain
  lengths, trial counts and crash-resample retries; snapshots are
  plain JSON that piggybacks worker result frames, merges fleet-wide in
  the service, and renders as Prometheus text exposition (``GET
  /metrics``).

Instrumentation invariant: telemetry observes, never participates --
verdicts, task ids and journals are bitwise identical with tracing on,
off, or half-configured.
"""

from repro.telemetry.clock import (
    Clock,
    get_clock,
    monotonic,
    perf_counter,
    set_clock,
)
from repro.telemetry.metrics import (
    GLOBAL,
    HISTOGRAM_BUCKETS,
    MetricsRegistry,
    capture,
    fallback_summary,
    inc,
    metric_key,
    observe,
    parse_metric_key,
    set_gauge,
)
from repro.telemetry.trace import (
    TRACE_ENV,
    TRACER,
    Tracer,
    configure_tracing,
    export_chrome,
    read_events,
    validate_event,
)

__all__ = [
    "Clock",
    "get_clock",
    "set_clock",
    "monotonic",
    "perf_counter",
    "GLOBAL",
    "HISTOGRAM_BUCKETS",
    "MetricsRegistry",
    "capture",
    "fallback_summary",
    "inc",
    "observe",
    "set_gauge",
    "metric_key",
    "parse_metric_key",
    "TRACE_ENV",
    "TRACER",
    "Tracer",
    "configure_tracing",
    "export_chrome",
    "read_events",
    "validate_event",
]
