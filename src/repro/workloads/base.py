"""Workload abstractions and resource-sensitivity profiles.

The simulator replaces the paper's Tailbench and PARSEC binaries with
analytic performance models.  Each workload owns a *resource profile*: a
per-resource utility curve describing how much of its peak speed it
retains at a given share of that resource.  The curves are concave and
saturating, which is what produces the paper's central phenomenon — the
"resource equivalence class" property where many different partitions
satisfy the same QoS (Sec. 2, Fig. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from ..core.units import Fraction, Millis, Rate
from ..resources.spec import CORES


@dataclass(frozen=True)
class SensitivityCurve:
    """How one workload's speed scales with its share of one resource.

    The utility of a share ``s`` in ``(0, 1]`` is::

        u(s) = floor + (1 - floor) * (1 - exp(-shape * s)) / (1 - exp(-shape))

    which rises from ``floor`` (performance retained with a minimal
    share) to exactly 1 at full allocation.  ``shape`` controls how
    quickly the curve saturates: large values mean the workload only
    needs a small share (insensitive), values near zero approach a
    linear dependence (highly sensitive throughout).  The curve enters
    the workload's overall multiplier raised to ``weight``, so
    ``weight = 0`` removes the resource from the model entirely.

    Attributes:
        weight: Sensitivity exponent, >= 0.
        shape: Saturation speed, > 0.
        floor: Utility at share -> 0, in [0, 1).
    """

    weight: float = 1.0
    shape: float = 3.0
    floor: float = 0.05

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        if self.shape <= 0:
            raise ValueError(f"shape must be > 0, got {self.shape}")
        if not 0 <= self.floor < 1:
            raise ValueError(f"floor must be in [0, 1), got {self.floor}")
        # The curve's denominator, fixed by ``shape``: computed once here
        # rather than per call.  Not a field, so equality, hashing and
        # the store fingerprint see the same three parameters.
        object.__setattr__(self, "_full_rise", 1.0 - math.exp(-self.shape))

    def utility(self, share: Fraction) -> Fraction:
        """Fraction of peak speed retained at ``share`` of the resource."""
        share = min(max(share, 0.0), 1.0)
        rise = (1.0 - math.exp(-self.shape * share)) / self._full_rise
        return self.floor + (1.0 - self.floor) * rise

    def contribution(self, share: Fraction) -> Fraction:
        """``utility(share) ** weight`` — this curve's factor of the multiplier."""
        return self.utility(share) ** self.weight


@dataclass(frozen=True)
class ResourceProfile:
    """A workload's sensitivity curves, keyed by resource name.

    Resources absent from ``curves`` do not affect the workload (same as
    ``weight = 0``).
    """

    curves: Mapping[str, SensitivityCurve] = field(default_factory=dict)

    def multiplier(self, shares: Mapping[str, float]) -> Fraction:
        """Combined speed multiplier in ``(0, 1]`` for the given shares.

        ``shares`` maps resource names to fractional allocations in
        ``(0, 1]``.  Resources the profile has no curve for are ignored;
        resources the profile cares about but that are missing from
        ``shares`` are treated as fully allocated (share 1), which is how
        unpartitioned resources behave on a real machine.
        """
        result = 1.0
        for name, curve in self.curves.items():
            result *= curve.contribution(shares.get(name, 1.0))
        return result

    def sensitivity(self, resource: str) -> float:
        """The weight of one resource (0 if the profile ignores it)."""
        curve = self.curves.get(resource)
        return curve.weight if curve is not None else 0.0


@dataclass(frozen=True)
class Workload:
    """Common fields of latency-critical and background workloads.

    Attributes:
        name: Short identifier, e.g. ``"memcached"``.
        description: One-line description (Table 3).
        profile: Resource-sensitivity curves for *non-core* resources.
        core_curve: Scaling curve for the core count itself (used by BG
            jobs, where parallel speedup is sub-linear; LC jobs model
            cores explicitly as queueing servers instead).
        pressure: Contention this job exerts on unpartitioned shared
            hardware (prefetchers, ring bus, SMT) per unit of load.
        contention_sensitivity: How strongly co-runner pressure degrades
            this job.
    """

    name: str
    description: str
    profile: ResourceProfile
    core_curve: SensitivityCurve = SensitivityCurve(weight=1.0, shape=1.0, floor=0.0)
    pressure: float = 0.3
    contention_sensitivity: float = 0.1

    def non_core_multiplier(self, shares: Mapping[str, float]) -> Fraction:
        """Speed multiplier from every resource except cores.

        ``profile.multiplier`` of ``shares`` without their cores entry: a
        profile's ``cores`` curve, if it has one, reads a full share.
        """
        result = 1.0
        for name, curve in self.profile.curves.items():
            share = 1.0 if name == CORES else shares.get(name, 1.0)
            result *= curve.contribution(share)
        return result


@dataclass(frozen=True)
class LCWorkload(Workload):
    """A latency-critical job with a QoS tail-latency target.

    An LC job is a two-stage tandem queue (see
    :mod:`repro.workloads.latency`): a per-job single-threaded bottleneck
    stage taking ``serial_fraction`` of each request's work, and a
    parallel stage over the job's allocated cores taking the rest.  The
    serial stage is what saturates first in real latency-critical
    services — it caps maximum load almost independently of core count,
    which is the reason multiple LC jobs fit on one machine at all.

    Attributes:
        base_service_rate: Unit-work completion rate (requests/second of
            total work) with every non-core resource fully allocated.
        serial_fraction: Fraction of each request's work serialized on
            the job's own software bottleneck, in [0, 1).
        qos_latency_ms: 95th-percentile latency target.  ``None`` until
            calibrated from the knee of the QPS-vs-latency curve
            (Fig. 6 methodology, :mod:`repro.workloads.loadgen`).
        max_qps: Load corresponding to 100% in the paper's figures.
            ``None`` until calibrated.
    """

    base_service_rate: Rate = 1000.0
    serial_fraction: Fraction = 0.1
    qos_latency_ms: Millis = None  # type: ignore[assignment]
    max_qps: Rate = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.base_service_rate <= 0:
            raise ValueError("base_service_rate must be positive")
        if not 0 <= self.serial_fraction < 1:
            raise ValueError(
                f"serial_fraction must be in [0, 1), got {self.serial_fraction}"
            )

    def min_cores_for(self, load_capacity_ratio: float) -> float:
        """Cores needed for the parallel stage to sustain a given demand.

        ``load_capacity_ratio`` is the offered load as a fraction of the
        serial stage's capacity; the parallel stage keeps up when
        ``c >= ratio * (1 - sigma) / sigma``.  Purely diagnostic.
        """
        if self.serial_fraction == 0:
            return load_capacity_ratio
        return (
            load_capacity_ratio
            * (1.0 - self.serial_fraction)
            / self.serial_fraction
        )

    def is_calibrated(self) -> bool:
        return self.qos_latency_ms is not None and self.max_qps is not None

    def calibrated(self, qos_latency_ms: Millis, max_qps: Rate) -> "LCWorkload":
        """Return a copy with QoS target and maximum load filled in."""
        from dataclasses import replace

        if qos_latency_ms <= 0 or max_qps <= 0:
            raise ValueError("QoS target and max load must be positive")
        return replace(self, qos_latency_ms=qos_latency_ms, max_qps=max_qps)


@dataclass(frozen=True)
class BGWorkload(Workload):
    """A throughput-oriented background job.

    Attributes:
        base_throughput: Work units/second at full allocation of every
            resource; only ratios to isolated performance matter to the
            paper's metrics, but an absolute scale keeps traces legible.
    """

    base_throughput: float = 100.0

    def __post_init__(self) -> None:
        if self.base_throughput <= 0:
            raise ValueError("base_throughput must be positive")
