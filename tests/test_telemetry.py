"""Tests for the opt-in observability subsystem (``repro.telemetry``).

Six areas, mirroring the package split:

* span nesting and JSONL/Chrome export round-trip under an injected clock;
* histogram bucket-edge placement (log-scale, shared across registries);
* metric snapshot merge semantics across worker result frames;
* Prometheus text-exposition conformance of ``render_prometheus``;
* the disabled-mode fast path (no span allocations at all);
* ``SweepResult`` schema v6: telemetry carriage, v5 load compat, and the
  ``comparable_dict`` strip that keeps verdict comparisons telemetry-blind.
"""

import json
import re
import threading

import pytest

from repro.pipeline.result import SCHEMA_VERSION, SweepResult
from repro.telemetry import (
    HISTOGRAM_BUCKETS,
    Clock,
    MetricsRegistry,
    Tracer,
    capture,
    export_chrome,
    fallback_summary,
    inc,
    metric_key,
    monotonic,
    parse_metric_key,
    read_events,
    set_clock,
    validate_event,
)


class SteppingClock:
    """A fake perf_counter advancing a fixed step per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------- #
# Span tracer
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_nested_spans_round_trip(self, tmp_path):
        clock = SteppingClock(step=1.0)
        tracer = Tracer(perf=clock)
        path = tmp_path / "trace.jsonl"
        tracer.configure(str(path))
        with tracer.span("outer", "sweep") as outer:
            outer.set("task_id", "t-1")
            with tracer.span("inner", "fuzz", args={"index": 3}):
                pass
        tracer.flush()

        events = [event for _, event in read_events(str(path))]
        assert [e["name"] for e in events] == ["inner", "outer"]
        for event in events:
            assert validate_event(event) is None
        inner, outer = events
        # Clock ticks: outer enter=1, inner enter=2, inner exit=3,
        # outer exit=4 -- all in microseconds on the wire.
        assert outer["ts"] == pytest.approx(1e6)
        assert outer["dur"] == pytest.approx(3e6)
        assert inner["ts"] == pytest.approx(2e6)
        assert inner["dur"] == pytest.approx(1e6)
        # Nesting: the inner span lies inside the outer's interval.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert outer["args"] == {"task_id": "t-1"}
        assert inner["args"] == {"index": 3}
        assert tracer.spans_started == 2

    def test_chrome_export(self, tmp_path):
        tracer = Tracer(perf=SteppingClock())
        path = tmp_path / "trace.jsonl"
        tracer.configure(str(path))
        with tracer.span("a", "prepare"):
            pass
        tracer.flush()
        out = tmp_path / "trace.json"
        assert export_chrome(str(path), str(out)) == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [e["name"] for e in doc["traceEvents"]] == ["a"]
        assert validate_event(doc["traceEvents"][0]) is None

    def test_disabled_mode_allocates_nothing(self):
        tracer = Tracer(perf=SteppingClock())
        assert not tracer.enabled
        spans = [tracer.span("hot", "execute") for _ in range(100)]
        # One shared null-span singleton: no span objects, no timestamps.
        assert all(s is spans[0] for s in spans)
        with spans[0] as span:
            span.set("ignored", 1)  # must be a no-op, not an error
        assert tracer.spans_started == 0

    def test_validate_event_rejects_malformed(self):
        good = {
            "name": "x", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0,
            "pid": 1, "tid": 2, "args": {},
        }
        assert validate_event(good) is None
        assert validate_event([]) is not None
        assert validate_event({**good, "ph": "B"}) is not None
        assert validate_event({**good, "dur": -1.0}) is not None
        missing = dict(good)
        del missing["tid"]
        assert validate_event(missing) is not None

    def test_clock_seam_injection(self):
        fake = Clock(monotonic=lambda: 123.0)
        previous = set_clock(fake)
        try:
            assert monotonic() == 123.0
        finally:
            set_clock(previous)
        assert monotonic() != 123.0

    def test_task_spans_cover_build_enumerate_and_clone(self, tmp_path):
        from repro.pipeline import enumerate_sweep_tasks
        from repro.pipeline.runner import execute_task_with_metrics
        from repro.telemetry import TRACER

        (task, *_) = enumerate_sweep_tasks(
            suite="npbench", workloads=["jacobi_1d"], max_instances=1,
            verifier_kwargs=dict(num_trials=2, size_max=8, minimize_inputs=False),
        )
        path = tmp_path / "task.jsonl"
        TRACER.configure(str(path))
        try:
            outcome, _ = execute_task_with_metrics(task)
        finally:
            TRACER.configure(None)
        assert outcome["error"] is None
        spans = {e["name"]: e for _, e in read_events(str(path))}
        outer = spans["task"]
        for name in ("task.build", "verify.enumerate", "verify.cutout",
                     "verify.clone", "verify.apply", "verify.fuzz"):
            inner = spans[name]
            assert outer["ts"] <= inner["ts"]
            assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_histogram_bucket_edges(self):
        reg = MetricsRegistry()
        # bisect_left: a value exactly on a bound lands in that bound's
        # bucket (le semantics); just above it spills into the next.
        reg.observe("h", 1.0)            # == 2**0 -> bucket of bound 1.0
        reg.observe("h", 1.0000001)      # just above -> next bucket
        reg.observe("h", HISTOGRAM_BUCKETS[0])   # smallest bound
        reg.observe("h", HISTOGRAM_BUCKETS[-1] * 4)  # beyond every bound
        doc = reg.snapshot()["histograms"]["h"]
        buckets = doc["buckets"]
        assert len(buckets) == len(HISTOGRAM_BUCKETS) + 1
        assert buckets[HISTOGRAM_BUCKETS.index(1.0)] == 1
        assert buckets[HISTOGRAM_BUCKETS.index(1.0) + 1] == 1
        assert buckets[0] == 1
        assert buckets[-1] == 1  # the +Inf overflow bucket
        assert doc["count"] == 4

    def test_merge_across_worker_frames(self):
        # Two workers produce per-task delta snapshots via capture(); the
        # scheduler merges them into one fleet registry.
        frames = []
        for worker in range(2):
            with capture() as sink:
                inc("repro_scope_exec_total", labels={"outcome": "vectorized"})
                inc("repro_scope_exec_total", 2, labels={"outcome": "vectorized"})
                sink.set_gauge("latency", float(worker))
                sink.observe("repro_trial_seconds", 0.5)
            frames.append(sink.snapshot())

        fleet = MetricsRegistry()
        for frame in frames:
            fleet.merge(frame)
        snap = fleet.snapshot()
        key = metric_key("repro_scope_exec_total", {"outcome": "vectorized"})
        assert snap["counters"][key] == 6.0  # counters add
        assert snap["gauges"]["latency"] == 1.0  # last write wins
        hist = snap["histograms"]["repro_trial_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(1.0)

    def test_merge_ignores_mismatched_buckets(self):
        fleet = MetricsRegistry()
        fleet.merge({"histograms": {"h": {"buckets": [1, 2], "sum": 1, "count": 2}}})
        assert fleet.is_empty()

    def test_capture_isolated_per_thread(self):
        # Concurrent tasks must not leak deltas into each other's sink.
        snaps = {}

        def run(tag, n):
            with capture() as sink:
                for _ in range(n):
                    inc("c", labels={"tag": tag})
                snaps[tag] = sink.snapshot()

        threads = [
            threading.Thread(target=run, args=(tag, n))
            for tag, n in (("a", 3), ("b", 5))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert snaps["a"]["counters"] == {metric_key("c", {"tag": "a"}): 3.0}
        assert snaps["b"]["counters"] == {metric_key("c", {"tag": "b"}): 5.0}

    def test_metric_key_round_trip(self):
        key = metric_key("name", {"b": "2", "a": "1"})
        assert key == "name|a=1|b=2"
        assert parse_metric_key(key) == ("name", {"a": "1", "b": "2"})
        assert parse_metric_key("bare") == ("bare", {})

    def test_fallback_summary_ranking(self):
        reg = MetricsRegistry()
        reg.inc("repro_scope_fallback_total", 3, labels={"reason": "zeta"})
        reg.inc("repro_scope_fallback_total", 3, labels={"reason": "alpha"})
        reg.inc("repro_scope_fallback_total", 7, labels={"reason": "mid"})
        reg.inc("other_counter", 99)
        ranked = fallback_summary(reg.snapshot())
        assert ranked == [("mid", 7), ("alpha", 3), ("zeta", 3)]
        assert fallback_summary(None) == []
        assert fallback_summary({}) == []


# ---------------------------------------------------------------------- #
# Prometheus exposition
# ---------------------------------------------------------------------- #
#: One sample line of the text exposition format (version 0.0.4).
EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9a-zA-Z+.eE-]+$"
)


class TestPrometheus:
    def test_exposition_conformance(self):
        reg = MetricsRegistry()
        reg.inc("repro_sweep_tasks_total", 4, labels={"sweep": "sweep-001"})
        reg.inc("repro_sweep_tasks_total", 2, labels={"sweep": "sweep-002"})
        reg.set_gauge(
            "repro_worker_latency_ewma_seconds", 0.25, labels={"worker": "1"}
        )
        reg.observe("repro_trial_seconds", 0.01)
        reg.observe("repro_trial_seconds", 4.0)
        text = reg.render_prometheus()
        lines = text.strip().splitlines()

        # Every line is a comment or a conformant sample line.
        for line in lines:
            assert line.startswith("# TYPE ") or EXPOSITION_LINE.match(line), line
        # One TYPE header per family, preceding its samples.
        assert "# TYPE repro_sweep_tasks_total counter" in lines
        assert "# TYPE repro_worker_latency_ewma_seconds gauge" in lines
        assert "# TYPE repro_trial_seconds histogram" in lines
        assert 'repro_sweep_tasks_total{sweep="sweep-001"} 4.0' in lines
        assert 'repro_worker_latency_ewma_seconds{worker="1"} 0.25' in lines

        # Histogram: cumulative buckets, +Inf == count, sum present.
        bucket_values = [
            float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_trial_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)  # cumulative
        inf_lines = [l for l in lines if 'le="+Inf"' in l]
        assert len(inf_lines) == 1
        assert float(inf_lines[0].rsplit(" ", 1)[1]) == 2
        assert any(l.startswith("repro_trial_seconds_sum ") for l in lines)
        assert "repro_trial_seconds_count 2" in lines

    def test_escaping(self):
        reg = MetricsRegistry()
        reg.inc("c", labels={"reason": 'say "hi"\nplease\\'})
        text = reg.render_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text
        assert "\\\\" in text


# ---------------------------------------------------------------------- #
# SweepResult schema v6
# ---------------------------------------------------------------------- #
class TestSchemaV6:
    OUTCOME = {
        "suite": "npbench", "workload": "gemm", "transformation": "MapTiling",
        "match_index": 0, "task_id": "tid-0", "worker": None, "error": None,
        "verdict": "pass", "match_description": "m", "report": None,
    }

    def telemetry(self):
        reg = MetricsRegistry()
        reg.inc("repro_scope_fallback_total", 2, labels={"reason": "dynamic-range"})
        reg.inc("repro_scope_fallback_total", 1, labels={"reason": "scope-not-single-tasklet"})
        return {"metrics": reg.snapshot()}

    def test_round_trip_and_strip(self):
        result = SweepResult(
            suite="npbench", outcomes=[dict(self.OUTCOME)],
            telemetry=self.telemetry(),
        )
        doc = result.to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION == 6
        reloaded = SweepResult.from_dict(doc)
        assert reloaded.telemetry == result.telemetry
        assert reloaded.fallback_reasons() == [
            ("dynamic-range", 2), ("scope-not-single-tasklet", 1),
        ]
        # comparable_dict is telemetry-blind: a traced sweep and an
        # untraced sweep over the same tasks compare equal.
        bare = SweepResult(suite="npbench", outcomes=[dict(self.OUTCOME)])
        assert "telemetry" not in result.comparable_dict()
        assert result.comparable_dict() == bare.comparable_dict()

    def test_a_result_without_telemetry_has_no_fallback_reasons(self):
        bare = SweepResult(suite="npbench", outcomes=[dict(self.OUTCOME)])
        result = SweepResult.from_dict(bare.to_dict())
        assert result.telemetry is None
        assert result.fallback_reasons() == []

    def test_markdown_fallback_table(self):
        result = SweepResult(
            suite="npbench", outcomes=[dict(self.OUTCOME)],
            telemetry=self.telemetry(),
        )
        md = result.to_markdown()
        assert "## Fallback reasons (top 5)" in md
        assert "| dynamic-range | 2 |" in md
        bare = SweepResult(suite="npbench", outcomes=[dict(self.OUTCOME)])
        assert "Fallback reasons" not in bare.to_markdown()
