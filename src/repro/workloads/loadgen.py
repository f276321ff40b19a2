"""Load generation, knee detection, and QoS-target calibration.

Reproduces the paper's Fig. 6 methodology: run each latency-critical
workload *in isolation* (maximum allocation of every resource), sweep the
offered load (queries per second), record the 95th-percentile latency,
and take the *knee* of the QPS-vs-latency curve as the QoS tail-latency
target; the QPS at the knee is the workload's 100% load.  This module
also provides piecewise-constant load schedules for the dynamic-load
experiments (Fig. 16).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .base import LCWorkload
from .latency import capacity_qps, p95_latency_ms
from ..core.units import Fraction, Millis, Rate, Seconds
from ..resources.spec import CORES, ServerSpec


@dataclass(frozen=True)
class LoadSweep:
    """The outcome of an isolated QPS sweep for one LC workload."""

    workload: str
    qps: Tuple[Rate, ...]
    p95_ms: Tuple[Millis, ...]
    knee_index: int

    @property
    def knee_qps(self) -> Rate:
        return self.qps[self.knee_index]

    @property
    def knee_latency_ms(self) -> Millis:
        return self.p95_ms[self.knee_index]

    def rows(self) -> List[Tuple[Rate, Millis]]:
        """(qps, p95_ms) pairs, e.g. for printing the Fig. 6 series."""
        return list(zip(self.qps, self.p95_ms))


def find_knee(x: Sequence[float], y: Sequence[float]) -> int:
    """Index of the knee of a convex increasing curve.

    Normalizes both axes to [0, 1] and returns the point of maximum
    vertical distance *below* the chord from the first to the last point
    (the Kneedle construction for convex increasing data).  Points with
    non-finite ``y`` are ignored.

    Raises:
        ValueError: if fewer than three finite points are available.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    finite = np.isfinite(ys)
    if finite.sum() < 3:
        raise ValueError("need at least 3 finite points to find a knee")
    idx = np.flatnonzero(finite)
    xf, yf = xs[idx], ys[idx]
    x_span = xf[-1] - xf[0]
    y_span = yf[-1] - yf[0]
    if x_span <= 0 or y_span <= 0:
        raise ValueError("knee detection needs strictly increasing spans")
    x_norm = (xf - xf[0]) / x_span
    y_norm = (yf - yf[0]) / y_span
    knee_local = int(np.argmax(x_norm - y_norm))
    return int(idx[knee_local])


def isolated_shares(server: ServerSpec) -> dict:
    """Full shares of every resource — the isolation (max) allocation."""
    return {r.name: 1.0 for r in server.resources}


def sweep_load(
    workload: LCWorkload,
    server: ServerSpec,
    points: int = 60,
    latency_ceiling: float = 10.0,
) -> LoadSweep:
    """Sweep QPS in isolation and locate the knee (Fig. 6).

    Mirrors how a real load generator (Mutilate, the Tailbench harness)
    produces these curves: load is pushed until tail latency blows past
    any useful level — ``latency_ceiling`` times the unloaded latency —
    and the sweep covers everything up to that point.  Bounding the
    sweep by *latency* rather than by utilization is what places the
    knee (and therefore the workload's "100% load") meaningfully below
    raw saturation, leaving the headroom that makes high-load
    co-location possible at all.
    """
    if points < 3:
        raise ValueError("need at least 3 sweep points")
    if latency_ceiling <= 1:
        raise ValueError("latency ceiling must exceed the unloaded latency")
    shares = isolated_shares(server)
    cores = server.resource(CORES).units
    saturation = capacity_qps(workload, cores, shares)
    unloaded_ms = p95_latency_ms(workload, saturation * 1e-6, cores, shares)
    ceiling_ms = latency_ceiling * unloaded_ms

    # The ceiling QPS exists and is unique because p95 is monotone in load.
    lo, hi = 0.0, saturation * (1.0 - 1e-9)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if p95_latency_ms(workload, mid, cores, shares) < ceiling_ms:
            lo = mid
        else:
            hi = mid
    qmax = 0.5 * (lo + hi)

    fractions = np.linspace(1.0 / points, 1.0, points)
    qps = tuple(float(f * qmax) for f in fractions)
    p95 = tuple(
        p95_latency_ms(workload, rate, cores, shares) for rate in qps
    )
    knee = find_knee(qps, p95)
    return LoadSweep(workload=workload.name, qps=qps, p95_ms=p95, knee_index=knee)


def calibrate(
    workload: LCWorkload,
    server: ServerSpec,
    points: int = 60,
    qos_slack: float = 1.8,
) -> LCWorkload:
    """Return ``workload`` with QoS target and max load set from the knee.

    Args:
        qos_slack: Multiplier applied to the knee latency when setting
            the QoS target.  The default of 1.8 models the headroom
            production QoS targets keep above the knee; without any
            slack a job at 100% load could never be co-located (it
            would need every unit of every resource just to reproduce
            its isolated knee latency), contradicting the co-location
            matrices in the paper's Figs. 7, 8, and 12.
    """
    sweep = sweep_load(workload, server, points=points)
    return workload.calibrated(
        qos_latency_ms=sweep.knee_latency_ms * qos_slack,
        max_qps=sweep.knee_qps,
    )


@dataclass(frozen=True)
class LoadPhase:
    """One step of a piecewise-constant load schedule."""

    start_s: Seconds
    load_fraction: Fraction

    def __post_init__(self) -> None:
        # NaN compares false both ways, so it would pass ``< 0`` and
        # then scramble the schedule's ordering check.
        if not math.isfinite(self.start_s) or self.start_s < 0:
            raise ValueError(
                f"phase start must be finite and >= 0, got {self.start_s}"
            )
        if not 0 <= self.load_fraction <= 1.5:
            raise ValueError(
                f"load fraction should be in [0, 1.5], got {self.load_fraction}"
            )


@dataclass(frozen=True)
class LoadSchedule:
    """Piecewise-constant load over time for dynamic experiments (Fig. 16)."""

    phases: Tuple[LoadPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a schedule needs at least one phase")
        starts = [p.start_s for p in self.phases]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("phases must have strictly increasing start times")
        if self.phases[0].start_s != 0:
            raise ValueError("the first phase must start at t=0")

    @staticmethod
    def constant(load_fraction: Fraction) -> "LoadSchedule":
        return LoadSchedule((LoadPhase(0.0, load_fraction),))

    @property
    def is_constant(self) -> bool:
        """True when every phase carries the same load fraction.

        A constant schedule can never invalidate a verified placement on
        its own — the warehouse recheck loop uses this to keep such
        nodes out of the per-tick volatile set.
        """
        first = self.phases[0].load_fraction
        return all(p.load_fraction == first for p in self.phases)

    @staticmethod
    def steps(steps: Sequence[Tuple[Seconds, Fraction]]) -> "LoadSchedule":
        """Build a schedule from (start_seconds, load_fraction) pairs."""
        return LoadSchedule(tuple(LoadPhase(t, f) for t, f in steps))

    def load_at(self, t: Seconds) -> Fraction:
        """Load fraction in force at time ``t`` (clamped to the first phase)."""
        if t < 0 or math.isnan(t):
            raise ValueError(f"time must be >= 0, got {t}")
        starts = [p.start_s for p in self.phases]
        i = bisect.bisect_right(starts, t) - 1
        return self.phases[max(i, 0)].load_fraction
