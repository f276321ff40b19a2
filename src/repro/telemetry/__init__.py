"""repro.telemetry — tracing, metrics, and structured event export.

Production co-location controllers are operated through telemetry:
per-iteration optimizer overhead, QoS-violation windows, per-node
sample counts.  This subpackage provides that observability for the
reproduction without touching its determinism story:

* :class:`~repro.telemetry.clock.Clock` — injectable time source
  (:class:`SimulatedClock` by default, :class:`WallClock` for real
  runs; the only sanctioned wall-clock boundary in the package);
* :class:`~repro.telemetry.metrics.MetricRegistry` — thread-safe
  counters, gauges, and fixed-bucket histograms with p50/p95/p99;
* :class:`~repro.telemetry.tracer.Tracer` — context-manager spans with
  parent/child nesting, per-span attributes, and point events;
* exporters — JSONL event streams, Prometheus text format, and the
  ``repro-trace`` CLI that renders per-phase breakdowns and
  QoS-violation timelines from a JSONL file.

Instrumentation is off by default and near-free when off: every hook
routes through :data:`NULL_TELEMETRY`, whose registry and tracer are
shared no-op singletons.  Enable it per run::

    from repro.telemetry import Telemetry, WallClock

    tel = Telemetry.enabled(clock=WallClock())
    result = CLITEEngine(node, CLITEConfig(seed=0, telemetry=tel)).optimize()
    print(result.telemetry.phase_seconds)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .clock import Clock, SimulatedClock, WallClock
from .metrics import (
    DEFAULT_BUCKETS,
    METRIC_NAME_RE,
    Counter,
    CounterHandles,
    Gauge,
    Histogram,
    MetricRegistry,
    NullMetricRegistry,
    render_series,
)
from .tracer import (
    NULL_TRACER,
    EventRecord,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Plain-data view of a telemetry session, embeddable in results.

    ``phase_seconds``/``phase_counts`` are computed over the span window
    the producer selected (e.g. one engine run), while the metric maps
    reflect the registry's cumulative state at snapshot time — a shared
    registry keeps accumulating across runs by design.
    """

    counters: Mapping[str, float]
    gauges: Mapping[str, float]
    histograms: Mapping[str, Mapping[str, float]]
    phase_seconds: Mapping[str, float]
    phase_counts: Mapping[str, int]
    span_count: int
    event_count: int
    dropped: int = 0


class Telemetry:
    """One run's telemetry context: clock + metric registry + tracer.

    Build enabled instances via :meth:`enabled`; the module-level
    :data:`NULL_TELEMETRY` singleton (returned by :meth:`disabled`) is
    the default everywhere instrumentation is threaded through.
    """

    active: bool = True

    def __init__(
        self,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else Tracer(clock=self.clock)

    @classmethod
    def enabled(cls, clock: Optional[Clock] = None) -> "Telemetry":
        """A fresh recording context (simulated clock unless given one)."""
        return cls(clock=clock)

    @staticmethod
    def disabled() -> "Telemetry":
        """The shared no-op context."""
        return NULL_TELEMETRY

    def snapshot(self, spans_since: int = 0) -> TelemetrySnapshot:
        """Freeze the current state into a :class:`TelemetrySnapshot`.

        Args:
            spans_since: Only spans finished after this index (see
                :attr:`Tracer.finished_count`) enter the per-phase
                breakdown — producers use it to scope the breakdown to
                their own run on a shared tracer.
        """
        spans = self.tracer.finished(since=spans_since)
        totals = Tracer.phase_totals(spans)
        metric_snapshot = self.metrics.snapshot()
        counters = {
            series: data["value"]
            for series, data in metric_snapshot.items()
            if data["kind"] == "counter"
        }
        gauges = {
            series: data["value"]
            for series, data in metric_snapshot.items()
            if data["kind"] == "gauge"
        }
        histograms = {
            series: {k: v for k, v in data.items() if k != "kind"}
            for series, data in metric_snapshot.items()
            if data["kind"] == "histogram"
        }
        return TelemetrySnapshot(
            counters=counters,  # type: ignore[arg-type]
            gauges=gauges,  # type: ignore[arg-type]
            histograms=histograms,  # type: ignore[arg-type]
            phase_seconds={name: total for name, (_, total) in totals.items()},
            phase_counts={name: count for name, (count, _) in totals.items()},
            span_count=len(spans),
            event_count=len(self.tracer.events()),
            dropped=self.tracer.dropped,
        )


class _NullTelemetry(Telemetry):
    """Disabled context: shared no-op registry and tracer."""

    active = False

    def __init__(self) -> None:
        super().__init__(
            clock=SimulatedClock(),
            metrics=NullMetricRegistry(),
            tracer=NULL_TRACER,
        )


#: The package-wide disabled context; instrumented components default to it.
NULL_TELEMETRY = _NullTelemetry()

from .export import (  # noqa: E402  (exporters need the facade types above)
    prometheus_text,
    read_jsonl,
    telemetry_records,
    write_jsonl,
)
from .serve import (  # noqa: E402  (serves the exporters)
    MetricsServer,
    make_server,
    registry_from_records,
)

__all__ = [
    "Clock",
    "Counter",
    "CounterHandles",
    "DEFAULT_BUCKETS",
    "EventRecord",
    "Gauge",
    "Histogram",
    "METRIC_NAME_RE",
    "MetricRegistry",
    "MetricsServer",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullMetricRegistry",
    "NullTracer",
    "SimulatedClock",
    "Span",
    "SpanRecord",
    "Telemetry",
    "TelemetrySnapshot",
    "Tracer",
    "WallClock",
    "make_server",
    "prometheus_text",
    "read_jsonl",
    "registry_from_records",
    "render_series",
    "telemetry_records",
    "write_jsonl",
]
