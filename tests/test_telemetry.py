"""Unit tests for repro.telemetry: clocks, metrics, tracer, exporters."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    NULL_TELEMETRY,
    NULL_TRACER,
    Histogram,
    MetricRegistry,
    NullMetricRegistry,
    SimulatedClock,
    Telemetry,
    Tracer,
    WallClock,
    prometheus_text,
    read_jsonl,
    render_series,
    telemetry_records,
    write_jsonl,
)
from repro.telemetry.tracer import NULL_SPAN


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
class TestClocks:
    def test_simulated_clock_only_moves_when_ticked(self):
        clock = SimulatedClock(start_s=5.0)
        assert clock.now() == 5.0
        assert clock.now() == 5.0
        assert clock.tick(2.5) == 7.5
        assert clock.now() == 7.5

    def test_simulated_clock_refuses_to_run_backwards(self):
        with pytest.raises(ValueError, match="backwards"):
            SimulatedClock().tick(-1.0)

    def test_wall_clock_is_monotonic(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_telemetry_defaults_to_simulated_clock(self):
        assert isinstance(Telemetry.enabled().clock, SimulatedClock)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetricRegistry:
    def test_counter_accumulates_and_is_shared_by_name(self):
        registry = MetricRegistry()
        registry.counter("engine.samples").add()
        registry.counter("engine.samples").add(4)
        assert registry.counter_value("engine.samples") == 5.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricRegistry().counter("c").add(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricRegistry()
        registry.gauge("node.load").set(0.3)
        registry.gauge("node.load").set(0.7)
        assert registry.snapshot()["node.load"]["value"] == 0.7

    def test_labels_split_series(self):
        registry = MetricRegistry()
        registry.counter("node.qos.violations", job="a").add(2)
        registry.counter("node.qos.violations", job="b").add(3)
        snapshot = registry.snapshot()
        assert snapshot['node.qos.violations{job="a"}']["value"] == 2.0
        assert snapshot['node.qos.violations{job="b"}']["value"] == 3.0
        assert registry.counter_value("node.qos.violations", job="a") == 2.0

    def test_invalid_name_rejected(self):
        registry = MetricRegistry()
        for bad in ("Engine.Samples", "9lives", "node load", "_x"):
            with pytest.raises(ValueError, match="must match"):
                registry.counter(bad)

    def test_invalid_name_raises_on_first_and_every_use(self):
        """Names are checked when an instrument is created, so a bad
        name is never stored and raises each time it is asked for."""
        registry = MetricRegistry()
        registry.counter("warehouse.arrivals").add()
        for _ in range(2):
            for make in (registry.counter, registry.gauge, registry.histogram):
                with pytest.raises(ValueError, match="must match"):
                    make("Warehouse.Arrivals", node="1")
        assert [i.name for i in registry.instruments()] == [
            "warehouse.arrivals"
        ]

    def test_kind_conflict_rejected(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_render_series_plain_and_labelled(self):
        assert render_series("a.b", ()) == "a.b"
        assert render_series("a.b", (("k", "v"),)) == 'a.b{k="v"}'

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricRegistry()

        def work():
            for _ in range(2000):
                registry.counter("hits").add()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter_value("hits") == 16000.0

    def test_null_registry_records_nothing(self):
        registry = NullMetricRegistry()
        # The bad name is the point: the null registry skips validation.
        registry.counter("anything goes, no validation").add(5)  # repro-lint: disable=RPL501
        registry.gauge("g").set(1)
        registry.histogram("h").observe(2)
        assert registry.instruments() == []
        assert registry.snapshot() == {}
        assert registry.active is False


class TestHistogram:
    def test_quantiles_interpolate_and_clamp(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(6.6)
        assert hist.p50 <= hist.p95 <= hist.p99
        assert 0.5 <= hist.p50 <= 3.0
        assert hist.p99 <= 3.0  # clamped to observed max

    def test_empty_histogram_quantile_is_nan(self):
        assert math.isnan(Histogram("h").p50)

    def test_overflow_bucket_catches_everything(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(100.0)
        assert hist.bucket_counts() == (0, 1)
        assert hist.p99 == 100.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("h").quantile(0.0)

    def test_default_buckets_sorted_distinct(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_timing_through_simulated_clock(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("phase", jobs=2):
            clock.tick(1.5)
        (record,) = tracer.finished()
        assert record.name == "phase"
        assert record.duration_s == pytest.approx(1.5)
        assert record.attributes["jobs"] == 2

    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.finished()  # finish order: inner first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_threads_get_independent_stacks(self):
        tracer = Tracer()
        with tracer.span("main.outer"):
            worker_parent = []

            def work():
                with tracer.span("worker"):
                    pass

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        worker = next(r for r in tracer.finished() if r.name == "worker")
        assert worker.parent_id is None  # not a child of main.outer

    def test_exception_closes_span_with_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("risky"):
                raise RuntimeError("boom")
        (record,) = tracer.finished()
        assert record.attributes["error"] == "RuntimeError"

    def test_max_records_drops_instead_of_growing(self):
        tracer = Tracer(max_records=2)
        tracer.event("a")
        tracer.event("b")
        tracer.event("c")
        with tracer.span("late"):
            pass
        assert len(tracer.events()) == 2
        assert tracer.finished() == ()
        assert tracer.dropped == 2

    def test_finished_since_scopes_a_window(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        mark = tracer.finished_count
        with tracer.span("second"):
            pass
        (record,) = tracer.finished(since=mark)
        assert record.name == "second"

    def test_phase_totals(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        for _ in range(2):
            with tracer.span("p"):
                clock.tick(1.0)
        count, total = Tracer.phase_totals(tracer.finished())["p"]
        assert count == 2
        assert total == pytest.approx(2.0)

    def test_null_tracer_is_free_and_shared(self):
        # Deliberately bare: asserting the null span singleton identity.
        span = NULL_TRACER.span("anything")  # repro-lint: disable=RPL502
        assert span is NULL_SPAN
        with span as s:
            s.set("k", 1)
        NULL_TRACER.event("e")
        assert NULL_TRACER.finished() == ()
        assert NULL_TRACER.events() == ()


# ----------------------------------------------------------------------
# Facade + snapshot
# ----------------------------------------------------------------------
class TestTelemetryFacade:
    def test_null_telemetry_is_the_shared_disabled_context(self):
        assert Telemetry.disabled() is NULL_TELEMETRY
        assert NULL_TELEMETRY.active is False
        assert NULL_TELEMETRY.tracer is NULL_TRACER

    def test_snapshot_collects_all_kinds(self):
        tel = Telemetry.enabled()
        tel.metrics.counter("c").add(3)
        tel.metrics.gauge("g").set(2.5)
        tel.metrics.histogram("h").observe(0.01)
        clock = tel.clock
        with tel.tracer.span("phase"):
            clock.tick(0.5)
        tel.tracer.event("evt", detail="x")
        snap = tel.snapshot()
        assert snap.counters == {"c": 3.0}
        assert snap.gauges == {"g": 2.5}
        assert snap.histograms["h"]["count"] == 1
        assert snap.phase_seconds["phase"] == pytest.approx(0.5)
        assert snap.phase_counts["phase"] == 1
        assert snap.span_count == 1
        assert snap.event_count == 1
        assert snap.dropped == 0

    def test_snapshot_spans_since_scopes_phases_not_metrics(self):
        tel = Telemetry.enabled()
        tel.metrics.counter("c").add()
        with tel.tracer.span("early"):
            pass
        mark = tel.tracer.finished_count
        with tel.tracer.span("late"):
            pass
        snap = tel.snapshot(spans_since=mark)
        assert set(snap.phase_counts) == {"late"}
        assert snap.counters == {"c": 1.0}  # registry stays cumulative


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def recording_telemetry():
    tel = Telemetry.enabled()
    with tel.tracer.span("engine.optimize", jobs=2):
        tel.clock.tick(1.0)
        tel.metrics.counter("engine.samples").add(7)
    tel.tracer.event("qos.violation", job="img-dnn")
    tel.metrics.histogram("window.s").observe(0.2)
    return tel


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        tel = recording_telemetry()
        path = tmp_path / "trace.jsonl"
        lines = write_jsonl(tel, path)
        assert lines == path.read_text().count("\n")
        records = read_jsonl(path)
        assert len(records) == lines
        kinds = {r["type"] for r in records}
        assert kinds == {"span", "event", "metric"}
        span = next(r for r in records if r["type"] == "span")
        assert span["name"] == "engine.optimize"
        assert span["duration_s"] == pytest.approx(1.0)
        assert span["attributes"] == {"jobs": 2}

    def test_records_stream_spans_then_events_then_metrics(self):
        types = [r["type"] for r in telemetry_records(recording_telemetry())]
        assert types == sorted(
            types, key=["span", "event", "metric"].index
        )

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_jsonl(path)
        path.write_text('{"no_type": 1}\n')
        with pytest.raises(ValueError, match="not a telemetry record"):
            read_jsonl(path)

    def test_prometheus_text_format(self):
        tel = recording_telemetry()
        text = prometheus_text(tel.metrics)
        assert "# TYPE engine_samples counter" in text
        assert "engine_samples 7.0" in text
        assert "# TYPE window_s histogram" in text
        assert 'window_s_bucket{le="+Inf"} 1' in text
        assert "window_s_count 1" in text
        assert "." not in text.split()[2]  # dots sanitized out of names

    def test_prometheus_empty_registry_is_empty_string(self):
        assert prometheus_text(MetricRegistry()) == ""

    def test_jsonl_is_valid_json_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(recording_telemetry(), path)
        for line in path.read_text().splitlines():
            json.loads(line)
