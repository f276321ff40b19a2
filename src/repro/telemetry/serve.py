"""Pull-based metrics endpoint: Prometheus text over stdlib HTTP.

The push side of the subsystem writes JSONL traces; this module covers
the pull side the paper's production setting assumes — a monitoring
system periodically scraping each node.  :func:`make_server` binds a
:class:`MetricsServer` that renders a live :class:`~repro.telemetry.
metrics.MetricRegistry` through :func:`~repro.telemetry.export.
prometheus_text` on every ``GET /metrics``, so scrapes always see the
current instrument state, not a cached snapshot.

For offline traces, :func:`registry_from_records` rebuilds a registry
from the ``metric`` records of a JSONL trace (``repro-trace serve``
uses it to re-export a finished run).  Snapshot records carry only the
summary of a histogram — bucket detail is not recoverable — so
histogram series are re-exposed as ``<name>.count`` / ``<name>.sum`` /
``<name>.p50`` / ``<name>.p95`` / ``<name>.p99`` gauges rather than
fabricating observations.
"""

from __future__ import annotations

import math
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterable, Tuple

from ..sanitizer.hooks import register_shared
from .export import prometheus_text
from .metrics import MetricRegistry

#: Inverse of :func:`~repro.telemetry.metrics.render_series`:
#: ``name{k="v",...}`` or a bare ``name``.
_SERIES_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")
_LABEL_RE = re.compile(r'(?P<key>[^=,]+)="(?P<value>[^"]*)"')

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def parse_series(series: str) -> Tuple[str, Dict[str, str]]:
    """Split a rendered series key back into ``(name, labels)``."""
    match = _SERIES_RE.match(series)
    if match is None:  # pragma: no cover - render_series can't produce this
        raise ValueError(f"unparseable series key: {series!r}")
    labels = {
        m.group("key"): m.group("value")
        for m in _LABEL_RE.finditer(match.group("labels") or "")
    }
    return match.group("name"), labels


def registry_from_records(
    records: Iterable[Dict[str, object]],
) -> MetricRegistry:
    """Rebuild a :class:`MetricRegistry` from JSONL ``metric`` records."""
    registry = MetricRegistry()
    for record in records:
        if record.get("type") != "metric":
            continue
        name, labels = parse_series(str(record["series"]))
        kind = str(record.get("kind"))
        if kind == "counter":
            registry.counter(name, **labels).add(float(record["value"]))  # type: ignore[arg-type]
        elif kind == "gauge":
            registry.gauge(name, **labels).set(float(record["value"]))  # type: ignore[arg-type]
        elif kind == "histogram":
            registry.gauge(f"{name}.count", **labels).set(
                float(record["count"])  # type: ignore[arg-type]
            )
            registry.gauge(f"{name}.sum", **labels).set(
                float(record["sum"])  # type: ignore[arg-type]
            )
            for quantile in ("p50", "p95", "p99"):
                value = float(record[quantile])  # type: ignore[arg-type]
                if math.isnan(value):
                    continue  # empty histogram: no quantile to re-expose
                registry.gauge(f"{name}.{quantile}", **labels).set(value)
    return registry


class _MetricsHandler(BaseHTTPRequestHandler):
    """Serves the owning server's registry; silent on the access log."""

    server_version = "repro-metrics/1.0"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path not in ("/", "/metrics"):
            self.send_error(404, "try /metrics")
            return
        body = prometheus_text(self.server.registry).encode("utf-8")  # type: ignore[attr-defined]
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        pass  # scrape traffic is not worth a stderr line each


class MetricsServer(ThreadingHTTPServer):
    """An HTTP server bound to one registry.

    ``daemon_threads`` keeps a slow scraper from pinning shutdown, and
    the registry reference is read by the handler on every request, so
    live instruments show their latest values.
    """

    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], registry: MetricRegistry
    ) -> None:
        super().__init__(address, _MetricsHandler)
        self.registry = registry
        # Shared by the serve_forever thread and its handler threads.
        register_shared(self, name=f"MetricsServer@{id(self):x}")

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}/metrics"


def make_server(
    registry: MetricRegistry, host: str = "127.0.0.1", port: int = 0
) -> MetricsServer:
    """Bind (but do not start) a metrics endpoint for ``registry``.

    Port 0 picks a free ephemeral port; read it back from
    :attr:`MetricsServer.port`.  Call ``serve_forever()`` (typically on
    a thread) or ``handle_request()`` to actually serve.
    """
    return MetricsServer((host, port), registry)
