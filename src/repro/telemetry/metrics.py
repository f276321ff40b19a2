"""Metric instruments: counters, gauges, fixed-bucket histograms.

A :class:`MetricRegistry` hands out named instruments and snapshots
them.  All instruments are thread-safe: creation is serialized on the
registry lock and every update on the owning instrument's lock, so
``GET /metrics`` scrapes on HTTP handler threads never see a half-made
instrument and concurrent writers never lose increments.

Metric names must match ``^[a-z][a-z0-9_.]*$`` (dots as namespace
separators, e.g. ``node.cache.hits``); repro-lint RPL501 enforces the
same pattern statically at call sites.  Instruments may carry labels
(``registry.counter("cluster.verify.samples", node="3")``), which keep
one logical metric per labelled series, Prometheus-style.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..sanitizer.hooks import register_shared

#: The legal shape of a metric name (RPL501 checks literals against it).
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_.]*$")

#: Default histogram buckets: upper bounds in seconds, exponential from
#: 100 µs to one minute — sized for observation windows and BO phases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Mapping[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_series(name: str, labels: LabelItems) -> str:
    """``name{k="v",...}`` — the snapshot/export key of one series."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def add(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = float(value)


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimation.

    Buckets are upper bounds; an implicit overflow bucket catches
    everything beyond the last bound.  Quantiles are estimated by
    linear interpolation inside the bucket where the target cumulative
    count falls, clamped to the observed min/max so a sparse histogram
    never reports a quantile outside the data.
    """

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        labels: LabelItems = (),
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket counts, overflow last (not cumulative)."""
        return tuple(self._counts)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1); NaN when empty."""
        if not 0 < q <= 1:
            raise ValueError("quantile must be in (0, 1]")
        if self._count == 0:
            return float("nan")
        target = q * self._count
        cumulative = 0
        lower = self._min
        for i, bound in enumerate(self.bounds):
            in_bucket = self._counts[i]
            if cumulative + in_bucket >= target and in_bucket > 0:
                fraction = (target - cumulative) / in_bucket
                estimate = lower + fraction * (bound - lower)
                return min(max(estimate, self._min), self._max)
            cumulative += in_bucket
            lower = bound
        return self._max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


class MetricRegistry:
    """Named instruments, created on first use, snapshotted on demand."""

    #: Whether instruments actually record (the null registry says no).
    active: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        register_shared(self, name=f"MetricRegistry@{id(self):x}")

    def _get(self, kind: type, name: str, labels: Mapping[str, str], **kwargs):
        key = (name, _label_items(labels))
        with self._lock:
            instrument = self._metrics.get(key)
            if instrument is None:
                # Only valid names are ever stored, so a name needs
                # checking only when its instrument is created.
                if not METRIC_NAME_RE.match(name):
                    raise ValueError(
                        f"metric name {name!r} must match "
                        f"{METRIC_NAME_RE.pattern}"
                    )
                instrument = kind(name, labels=key[1], **kwargs)
                self._metrics[key] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def instruments(self) -> List[object]:
        """Every live instrument, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return [instrument for _, instrument in items]

    def counter_value(self, name: str, **labels: str) -> float:
        """Current value of one counter series (0.0 if never touched)."""
        key = (name, _label_items(labels))
        instrument = self._metrics.get(key)
        return instrument.value if isinstance(instrument, Counter) else 0.0

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-data view: rendered series name -> kind + value(s)."""
        out: Dict[str, Dict[str, object]] = {}
        for instrument in self.instruments():
            series = render_series(instrument.name, instrument.labels)  # type: ignore[attr-defined]
            if isinstance(instrument, Counter):
                out[series] = {"kind": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[series] = {"kind": "gauge", "value": instrument.value}
            elif isinstance(instrument, Histogram):
                out[series] = {
                    "kind": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "p50": instrument.p50,
                    "p95": instrument.p95,
                    "p99": instrument.p99,
                }
        return out


class CounterHandles:
    """Counter handles of one registry, looked up on first use and then
    reused, for hot paths that count per event.

    Registering the handles up front would add zero-valued series, so a
    handle is created on its first lookup, exactly as a plain
    ``registry.counter(...)`` call would create it.  A handle may carry
    one label, ``label``, whose value is given per call.
    """

    def __init__(self, metrics: MetricRegistry, label: str) -> None:
        self._metrics = metrics
        self._label = label
        self._handles: Dict[Tuple[str, Optional[int]], Counter] = {}

    def __call__(self, name: str, value: Optional[int] = None) -> Counter:
        handle = self._handles.get((name, value))
        if handle is None:
            labels = {} if value is None else {self._label: str(value)}
            handle = self._metrics.counter(name, **labels)
            self._handles[(name, value)] = handle
        return handle


class _NullCounter(Counter):
    def add(self, amount: Union[int, float] = 1) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: Union[int, float]) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: Union[int, float]) -> None:
        pass


class NullMetricRegistry(MetricRegistry):
    """The disabled path: every lookup returns a shared no-op instrument.

    Kept allocation-free after construction so instrumented code pays a
    dict-free attribute call and an early-returning method when
    telemetry is off.
    """

    active = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")

    def counter(self, name: str, **labels: str) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._gauge

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._histogram

    def instruments(self) -> List[object]:
        return []
