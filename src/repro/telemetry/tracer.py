"""Span-based tracing with parent/child nesting and point events.

Spans are opened as context managers (``with tracer.span("engine.bootstrap",
jobs=3) as span:``) and close themselves on exit, timestamped through the
tracer's injectable :class:`~repro.telemetry.clock.Clock`.  Nesting is
tracked per thread, so a span opened on an HTTP handler thread never
becomes the parent of a scheduler span, while every thread shares one
finished-span log.

repro-lint RPL502 statically enforces the ``with`` discipline: a span
that is opened but never closed would silently corrupt the per-phase
breakdown the ``repro-trace`` CLI reports.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Dict, List, Mapping, Optional, Tuple, Type, Union

from .clock import Clock, SimulatedClock

AttrValue = Union[str, int, float, bool, None]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: what happened, when, and under which parent."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: float
    attributes: Mapping[str, AttrValue]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class EventRecord:
    """A point-in-time event (e.g. one QoS violation window)."""

    name: str
    time_s: float
    attributes: Mapping[str, AttrValue]


class Span:
    """A live span; use only as a context manager."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "_start_s", "_attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, AttrValue],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = -1  # assigned on __enter__
        self.parent_id: Optional[int] = None
        self._start_s = 0.0
        self._attrs = attrs

    def set(self, key: str, value: AttrValue) -> None:
        """Attach or overwrite one attribute on the live span."""
        self._attrs[key] = value

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._tracer._close(self)


class _NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()

    def set(self, key: str, value: AttrValue) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans and events, in memory, thread-safely.

    Args:
        clock: Time source for span boundaries and event stamps.
        max_records: Cap on retained spans + events; once reached, new
            records are counted in :attr:`dropped` instead of stored, so
            a runaway loop cannot exhaust memory through telemetry.
    """

    active: bool = True

    def __init__(
        self,
        clock: Optional[Clock] = None,
        max_records: int = 200_000,
    ) -> None:
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.clock = clock if clock is not None else SimulatedClock()
        self.max_records = max_records
        self.dropped = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._finished: List[SpanRecord] = []
        self._events: List[EventRecord] = []
        self._stacks = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: AttrValue) -> Span:
        """Open a span; must be used as ``with tracer.span(...):``."""
        return Span(self, name, dict(attrs))

    def event(self, name: str, **attrs: AttrValue) -> None:
        """Record a point event at the current clock time."""
        record = EventRecord(
            name=name, time_s=self.clock.now(), attributes=dict(attrs)
        )
        with self._lock:
            if len(self._finished) + len(self._events) >= self.max_records:
                self.dropped += 1
                return
            self._events.append(record)

    def _stack(self) -> List[int]:
        stack = getattr(self._stacks, "open_ids", None)
        if stack is None:
            stack = []
            self._stacks.open_ids = stack
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        span.parent_id = stack[-1] if stack else None
        with self._lock:
            span.span_id = next(self._ids)
        stack.append(span.span_id)
        span._start_s = self.clock.now()

    def _close(self, span: Span) -> None:
        end_s = self.clock.now()
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        record = SpanRecord(
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            start_s=span._start_s,
            end_s=end_s,
            attributes=dict(span._attrs),
        )
        with self._lock:
            if len(self._finished) + len(self._events) >= self.max_records:
                self.dropped += 1
                return
            self._finished.append(record)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def finished_count(self) -> int:
        return len(self._finished)

    def finished(self, since: int = 0) -> Tuple[SpanRecord, ...]:
        """Finished spans, optionally only those after index ``since``."""
        with self._lock:
            return tuple(self._finished[since:])

    def events(self) -> Tuple[EventRecord, ...]:
        with self._lock:
            return tuple(self._events)

    @staticmethod
    def phase_totals(
        spans: Tuple[SpanRecord, ...]
    ) -> Dict[str, Tuple[int, float]]:
        """Per-span-name ``(count, total seconds)`` over a span set."""
        totals: Dict[str, Tuple[int, float]] = {}
        for record in spans:
            count, total = totals.get(record.name, (0, 0.0))
            totals[record.name] = (count + 1, total + record.duration_s)
        return totals


class NullTracer(Tracer):
    """The disabled path: hands out the shared no-op span, records nothing."""

    active = False

    def __init__(self) -> None:
        super().__init__(clock=SimulatedClock())

    def span(self, name: str, **attrs: AttrValue) -> Span:
        return NULL_SPAN  # type: ignore[return-value]

    def event(self, name: str, **attrs: AttrValue) -> None:
        pass


#: Shared no-op tracer for components that take a tracer (not a full
#: :class:`~repro.telemetry.Telemetry`) and default to disabled.
NULL_TRACER = NullTracer()
