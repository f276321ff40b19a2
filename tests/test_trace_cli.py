"""End-to-end ``repro-trace``: an engine run's JSONL trace renders back
into the same per-phase breakdown the in-process snapshot reports."""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from conftest import make_node
from repro.core import CLITEEngine
from repro.telemetry import (
    Telemetry,
    make_server,
    prometheus_text,
    read_jsonl,
    registry_from_records,
    write_jsonl,
)
from repro.telemetry.serve import parse_series
from repro.telemetry.trace_cli import main
from test_core_termination_engine import small_engine_config


@pytest.fixture
def traced_run(mini_server, tmp_path):
    tel = Telemetry.enabled()
    node = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, seed=3)
    result = CLITEEngine(
        node, small_engine_config(seed=3, telemetry=tel)
    ).optimize()
    path = tmp_path / "trace.jsonl"
    write_jsonl(tel, path)
    return tel, result, path


class TestSummary:
    def test_breakdown_matches_snapshot(self, traced_run, capsys):
        tel, result, path = traced_run
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        snap = result.telemetry
        for phase, count in snap.phase_counts.items():
            row = next(
                line for line in out.splitlines() if line.startswith(phase)
            )
            assert row.split()[1] == str(count)
        assert f"spans: {snap.span_count}" in out

    def test_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["summary", str(path)]) == 0
        assert "no spans" in capsys.readouterr().out


class TestTimeline:
    def test_events_render_in_node_time_order(self, tmp_path, capsys):
        tel = Telemetry.enabled()
        # deliberately emitted out of node-time order
        tel.tracer.event(
            "qos.violation", job="b", node_time_s=20.0, p95_ms=9.1
        )
        tel.tracer.event(
            "qos.violation", job="a", node_time_s=10.0, p95_ms=8.2
        )
        tel.tracer.event("monitor.trigger", trigger="load_change",
                         node_time_s=15.0)
        path = tmp_path / "t.jsonl"
        write_jsonl(tel, path)
        assert main(["timeline", str(path)]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("t=")]
        assert "job=a" in lines[0]
        assert "trigger=load_change" in lines[1]
        assert "job=b" in lines[2]
        assert "2 QoS-violation window(s), 3 event(s)" in out

    def test_violation_free_trace(self, traced_run, capsys):
        _, result, path = traced_run
        code = main(["timeline", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        if result.qos_met and not result.telemetry.event_count:
            assert "no QoS events" in out


class TestMetrics:
    def test_counters_render(self, traced_run, capsys):
        tel, result, path = traced_run
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.samples" in out
        assert f"{float(result.samples_taken):.6g}" in out

    def test_metric_free_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        write_jsonl(Telemetry.enabled(), path)
        assert main(["metrics", str(path)]) == 0
        assert "no metrics" in capsys.readouterr().out


def write_phase_trace(path, phases):
    """A synthetic trace: ``phases`` maps span name -> durations (s)."""
    t = 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for name, durations in phases.items():
            for duration in durations:
                handle.write(
                    json.dumps(
                        {
                            "type": "span",
                            "name": name,
                            "span_id": 0,
                            "parent_id": None,
                            "start_s": t,
                            "end_s": t + duration,
                            "duration_s": duration,
                            "attributes": {},
                        }
                    )
                    + "\n"
                )
                t += duration


class TestDiff:
    def test_identical_traces_pass(self, tmp_path, capsys):
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        phases = {"engine.sample": [0.5, 0.5], "engine.fit": [0.2]}
        write_phase_trace(before, phases)
        write_phase_trace(after, phases)
        assert main(["diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "no regression" in out
        assert "REGRESSION" not in out

    def test_slower_phase_fails_and_is_named(self, tmp_path, capsys):
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        write_phase_trace(before, {"engine.sample": [1.0], "engine.fit": [0.2]})
        write_phase_trace(after, {"engine.sample": [1.5], "engine.fit": [0.2]})
        assert main(["diff", str(before), str(after)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: 1 phase(s)" in out
        assert "engine.sample" in out
        assert "+50.0%" in out

    def test_threshold_is_configurable(self, tmp_path, capsys):
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        write_phase_trace(before, {"engine.sample": [1.0]})
        write_phase_trace(after, {"engine.sample": [1.5]})
        assert (
            main(["diff", str(before), str(after), "--threshold", "0.6"]) == 0
        )
        assert "no regression (threshold 60%)" in capsys.readouterr().out

    def test_new_phase_counts_as_regression(self, tmp_path, capsys):
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        write_phase_trace(before, {"engine.sample": [1.0]})
        write_phase_trace(after, {"engine.sample": [1.0], "extra": [0.3]})
        assert main(["diff", str(before), str(after)]) == 1
        out = capsys.readouterr().out
        assert "new" in out and "extra" in out

    def test_vanished_phase_is_not_a_regression(self, tmp_path, capsys):
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        write_phase_trace(before, {"engine.sample": [1.0], "gone.phase": [0.3]})
        write_phase_trace(after, {"engine.sample": [1.0]})
        assert main(["diff", str(before), str(after)]) == 0
        assert "gone" in capsys.readouterr().out

    def test_missing_before_exits_two(self, tmp_path, capsys):
        after = tmp_path / "after.jsonl"
        write_phase_trace(after, {"engine.sample": [1.0]})
        assert main(["diff", str(tmp_path / "nope.jsonl"), str(after)]) == 2
        assert "repro-trace:" in capsys.readouterr().err


class TestServeRegistry:
    def test_parse_series_round_trip(self):
        assert parse_series("engine.samples") == ("engine.samples", {})
        assert parse_series('node.p95{job="lc0",node="3"}') == (
            "node.p95",
            {"job": "lc0", "node": "3"},
        )

    def test_registry_from_records_round_trip(self, tmp_path):
        tel = Telemetry.enabled()
        tel.metrics.counter("engine.samples").add(7)
        tel.metrics.gauge("node.load", job="lc0").set(0.4)
        for value in (0.01, 0.02, 0.03):
            tel.metrics.histogram("engine.sample.seconds").observe(value)
        path = tmp_path / "t.jsonl"
        write_jsonl(tel, path)
        registry = registry_from_records(read_jsonl(path))
        assert registry.counter_value("engine.samples") == 7.0
        text = prometheus_text(registry)
        assert "engine_samples 7.0" in text
        assert 'node_load{job="lc0"} 0.4' in text
        # Histogram snapshots re-export as summary gauges.
        assert "engine_sample_seconds_count 3.0" in text
        assert "engine_sample_seconds_sum 0.06" in text
        assert "engine_sample_seconds_p95" in text

    def test_empty_histogram_skips_nan_quantiles(self, tmp_path):
        tel = Telemetry.enabled()
        tel.metrics.histogram("engine.idle.seconds")  # never observed
        path = tmp_path / "t.jsonl"
        write_jsonl(tel, path)
        text = prometheus_text(registry_from_records(read_jsonl(path)))
        assert "engine_idle_seconds_count 0.0" in text
        assert "p50" not in text and "nan" not in text


class TestServeEndpoint:
    def test_scrape_over_a_real_socket(self):
        tel = Telemetry.enabled()
        tel.metrics.counter("engine.samples").add(42)
        server = make_server(tel.metrics)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
                body = response.read().decode("utf-8")
            assert "# TYPE engine_samples counter" in body
            assert "engine_samples 42.0" in body
            # A scrape sees *live* values, not a bind-time snapshot.
            tel.metrics.counter("engine.samples").add(1)
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert "engine_samples 43.0" in response.read().decode("utf-8")
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    def test_unknown_path_is_404(self):
        server = make_server(Telemetry.enabled().metrics)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=5
                )
            excinfo.value.close()  # the error carries the open response
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    def test_cli_serves_a_trace_for_n_requests(self, tmp_path, capsys):
        tel = Telemetry.enabled()
        tel.metrics.counter("engine.samples").add(5)
        path = tmp_path / "t.jsonl"
        write_jsonl(tel, path)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        exit_codes = []
        runner = threading.Thread(
            target=lambda: exit_codes.append(
                main(
                    ["serve", str(path), "--port", str(port), "--requests", "1"]
                )
            ),
            daemon=True,
        )
        runner.start()
        body = None
        for _ in range(50):
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5
                ) as response:
                    body = response.read().decode("utf-8")
                break
            except OSError:
                runner.join(timeout=0.1)
        runner.join(timeout=5)
        assert body is not None and "engine_samples 5.0" in body
        assert exit_codes == [0]


class TestErrors:
    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro-trace:" in capsys.readouterr().err

    def test_corrupt_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        assert main(["timeline", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
