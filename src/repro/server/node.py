"""The simulated co-location server.

A :class:`Node` hosts a set of latency-critical and background jobs,
enacts resource-partition configurations through the simulated isolation
tools, and reports what the controller would see on real hardware: per-
job 95th-percentile latency (LC) and normalized throughput (BG), read
through noisy performance counters over an observation window, with a
simulated wall clock advancing as samples are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.units import Fraction, Millis, Rate, Seconds
from ..resources.allocation import Configuration, ConfigurationSpace
from ..resources.isolation import IsolationManager
from ..resources.spec import CORES, ServerSpec
from ..sanitizer.hooks import register_shared
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..workloads.base import BGWorkload, LCWorkload
from ..workloads.interference import co_runner_pressure, exerted_pressure
from ..workloads.latency import capacity_qps, p95_latency_ms, p95_meets_target
from ..workloads.loadgen import LoadSchedule
from ..workloads.throughput import normalized_throughput
from .counters import DEFAULT_OBSERVATION_PERIOD_S, PerformanceCounters
from .obstore import ObservationStore, Verdict, node_fingerprint

LC_ROLE = "LC"
BG_ROLE = "BG"


@dataclass(frozen=True)
class Job:
    """One co-located job: a workload plus (for LC jobs) a load schedule."""

    workload: Union[LCWorkload, BGWorkload]
    load: Optional[LoadSchedule] = None

    def __post_init__(self) -> None:
        if self.is_lc:
            if self.load is None:
                raise ValueError(
                    f"LC job {self.workload.name!r} needs a load schedule"
                )
            if not self.workload.is_calibrated():
                raise ValueError(
                    f"LC job {self.workload.name!r} must be calibrated "
                    "(use repro.workloads.calibrate or the tailbench catalog)"
                )
        elif self.load is not None:
            raise ValueError("BG jobs do not take a load schedule")

    @property
    def is_lc(self) -> bool:
        return isinstance(self.workload, LCWorkload)

    @property
    def role(self) -> str:
        return LC_ROLE if self.is_lc else BG_ROLE

    @property
    def name(self) -> str:
        return self.workload.name

    @staticmethod
    def lc(workload: LCWorkload, load_fraction: Fraction) -> "Job":
        """Convenience: an LC job at a constant load fraction."""
        return Job(workload, LoadSchedule.constant(load_fraction))

    @staticmethod
    def bg(workload: BGWorkload) -> "Job":
        return Job(workload)


@dataclass(frozen=True)
class JobObservation:
    """What the counters reported for one job over one window."""

    name: str
    role: str
    load_fraction: Optional[Fraction]
    qps: Optional[Rate]
    p95_ms: Optional[Millis]
    qos_target_ms: Optional[Millis]
    throughput_norm: Optional[Fraction]

    @property
    def qos_met(self) -> bool:
        """Whether the LC job met its tail-latency target (True for BG)."""
        if self.role != LC_ROLE:
            return True
        return self.p95_ms <= self.qos_target_ms

    @property
    def qos_ratio(self) -> Fraction:
        """``min(1, target / latency)`` — the Eq. 3 per-LC-job factor."""
        if self.role != LC_ROLE:
            raise ValueError(f"{self.name} is not an LC job")
        if self.p95_ms == 0:
            return 1.0
        return min(1.0, self.qos_target_ms / self.p95_ms)

    @property
    def counter_metric(self) -> Optional[float]:
        """The one metric the hardware counters carry noise into."""
        return self.p95_ms if self.role == LC_ROLE else self.throughput_norm

    def with_counter_metric(self, value: float) -> "JobObservation":
        """Copy with the counter-borne metric replaced (p95 for LC,
        normalized throughput for BG).  Direct construction — this runs
        per job per window, where ``dataclasses.replace`` is measurably
        slow."""
        if self.role == LC_ROLE:
            return JobObservation(
                name=self.name,
                role=self.role,
                load_fraction=self.load_fraction,
                qps=self.qps,
                p95_ms=value,
                qos_target_ms=self.qos_target_ms,
                throughput_norm=self.throughput_norm,
            )
        return JobObservation(
            name=self.name,
            role=self.role,
            load_fraction=self.load_fraction,
            qps=self.qps,
            p95_ms=self.p95_ms,
            qos_target_ms=self.qos_target_ms,
            throughput_norm=value,
        )


@dataclass(frozen=True)
class Observation:
    """One observation window: the configuration and every job's reading."""

    config: Configuration
    time_s: Seconds
    window_s: Seconds
    jobs: Tuple[JobObservation, ...]

    @property
    def lc_jobs(self) -> Tuple[JobObservation, ...]:
        return tuple(j for j in self.jobs if j.role == LC_ROLE)

    @property
    def bg_jobs(self) -> Tuple[JobObservation, ...]:
        return tuple(j for j in self.jobs if j.role == BG_ROLE)

    @property
    def all_qos_met(self) -> bool:
        return all(j.qos_met for j in self.lc_jobs)

    def job(self, name: str) -> JobObservation:
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(f"no job named {name!r} in this observation")


class Node:
    """A server running a fixed set of co-located jobs.

    The node is the controller's entire world: it can apply a partition
    (:meth:`observe`) and read back per-job performance.  ``observe``
    advances a simulated wall clock by the observation window, so load
    schedules and convergence-time measurements behave like they would
    online.

    Args:
        spec: The server's partitionable resources.
        jobs: Co-located jobs; LC jobs first by convention, but any
            order works.  Job names must be unique.
        counters: Noise model for measurements (default: 3% log-normal).
        window_s: Observation window (paper default: 2 s).
        cache_enabled: Memoize noise-free truths per lattice point.
        store: Optional :class:`~.obstore.ObservationStore` consulted on
            in-memory cache misses before paying the physics cost, and
            fed every freshly computed truth.  Stores outlive the node,
            so grid benches and re-verification sweeps become near-free
            on warm cache; readings stay bit-identical because only
            noise-free truths are shared and counter noise is always
            drawn fresh.
        telemetry: Optional :class:`repro.telemetry.Telemetry` context;
            observation windows are then wrapped in ``node.observe``
            spans, cache traffic and QoS-violation windows are counted,
            and each violation emits a ``qos.violation`` event.  The
            attribute is public and reassignable — the engine installs
            its own context here when it has one.
    """

    #: Observation-cache entries kept before new points stop being cached
    #: (one engine run touches at most a few hundred lattice points).
    CACHE_MAX_ENTRIES = 4096

    def __init__(
        self,
        spec: ServerSpec,
        jobs: Sequence[Job],
        counters: Optional[PerformanceCounters] = None,
        window_s: Seconds = DEFAULT_OBSERVATION_PERIOD_S,
        cache_enabled: bool = True,
        store: Optional[ObservationStore] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not jobs:
            raise ValueError("a node needs at least one job")
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {names}")
        if window_s <= 0:
            raise ValueError("observation window must be positive")
        self.spec = spec
        self.jobs: Tuple[Job, ...] = tuple(jobs)
        self._lc_indices = tuple(i for i, j in enumerate(self.jobs) if j.is_lc)
        self._cores = spec.resource_names.index(CORES)
        self.space = ConfigurationSpace.of(spec, len(self.jobs))
        self.counters = counters if counters is not None else PerformanceCounters()
        self.window_s = window_s
        self.isolation = IsolationManager(spec)
        self.cache_enabled = cache_enabled
        self.store = store
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._fingerprint = (
            node_fingerprint(spec, self.jobs, window_s)
            if store is not None
            else None
        )
        self._clock_s = 0.0
        self._loads_time: Optional[Seconds] = None
        self._loads: Tuple[Optional[Fraction], ...] = ()
        self._history: List[Observation] = []
        # The simulator is deterministic given a partition and the LC
        # loads, so noise-free truths are memoized per lattice point.
        self._obs_cache: Dict[tuple, Observation] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._physics_count = 0
        register_shared(
            self,
            name=f"Node@{id(self):x}",
            container_attrs=("_obs_cache", "_history"),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def lc_indices(self) -> Tuple[int, ...]:
        return self._lc_indices

    @property
    def bg_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.jobs) if not j.is_lc)

    @property
    def clock_s(self) -> Seconds:
        """Simulated wall-clock time."""
        return self._clock_s

    @property
    def history(self) -> Tuple[Observation, ...]:
        """Every observation taken so far (oldest first)."""
        return tuple(self._history)

    @property
    def samples_taken(self) -> int:
        return len(self._history)

    def job_names(self) -> Tuple[str, ...]:
        return tuple(j.name for j in self.jobs)

    # ------------------------------------------------------------------
    # The physics: true performance of a configuration
    # ------------------------------------------------------------------
    def _shares(self, config: Configuration, job_index: int) -> Dict[str, float]:
        return {
            res.name: config.get(job_index, r) / res.units
            for r, res in enumerate(self.spec.resources)
        }

    def _loads_at(self, at_time: Seconds) -> Tuple[Optional[Fraction], ...]:
        """Every job's load fraction at ``at_time`` (None for BG jobs).

        Read once per time point and shared by :meth:`_pressures`,
        :meth:`_lc_inputs` and :meth:`_cache_key`: the schedules are
        fixed, so the loads depend on the time alone.
        """
        if at_time != self._loads_time:
            loads: List[Optional[Fraction]] = [None] * len(self.jobs)
            for i in self._lc_indices:
                loads[i] = self.jobs[i].load.load_at(at_time)
            self._loads = tuple(loads)
            self._loads_time = at_time
        return self._loads

    def _pressures(self, config: Configuration, at_time: Seconds) -> List[float]:
        """What each job exerts: an LC job by its load, a BG job by its
        core share."""
        cores = self._cores
        core_units = self.spec.resources[cores].units
        return [
            exerted_pressure(
                job.workload,
                load if load is not None else config.get(i, cores) / core_units,
            )
            for i, (job, load) in enumerate(
                zip(self.jobs, self._loads_at(at_time))
            )
        ]

    def _lc_inputs(
        self,
        config: Configuration,
        job_index: int,
        at_time: Seconds,
        pressures: List[float],
    ) -> Tuple[Fraction, Rate, int, Dict[str, float], float]:
        """One LC job's physics inputs: load, qps, cores, shares and
        co-runner contention."""
        load = self._loads_at(at_time)[job_index]
        return (
            load,
            load * self.jobs[job_index].workload.max_qps,
            config.get(job_index, self._cores),
            self._shares(config, job_index),
            co_runner_pressure(pressures, job_index),
        )

    def _saturated_latency_ms(
        self,
        lc: LCWorkload,
        qps: Rate,
        cores: int,
        shares: Dict[str, float],
        contention: float,
    ) -> Millis:
        """What a saturated queue reports over one window.

        Queries that do complete waited on the order of the window,
        scaled by how overloaded the queue is.  This keeps the score
        landscape graded instead of flat-zero (Sec. 4's smoothness
        requirement on the objective).
        """
        capacity = capacity_qps(lc, cores, shares, contention)
        overload = qps / capacity if capacity > 0 else 2.0
        return 1000.0 * self.window_s * max(overload, 1.0)

    def true_performance(
        self, config: Configuration, at_time: Optional[Seconds] = None
    ) -> Observation:
        """Noise-free performance of ``config``: every job's reading.

        The truth the observation caches hold and ORACLE reads; for a
        bare QoS verdict :meth:`qos_met` is cheaper.  Does not touch the
        clock, the isolation layer, or the history.
        """
        self.space.validate(config)
        t = self._clock_s if at_time is None else at_time
        pressures = self._pressures(config, t)
        readings: List[JobObservation] = []
        for i, job in enumerate(self.jobs):
            if job.is_lc:
                lc = job.workload
                load, qps, cores, shares, contention = self._lc_inputs(
                    config, i, t, pressures
                )
                latency = p95_latency_ms(lc, qps, cores, shares, contention)
                if math.isinf(latency):
                    latency = self._saturated_latency_ms(
                        lc, qps, cores, shares, contention
                    )
                readings.append(
                    JobObservation(
                        name=job.name,
                        role=LC_ROLE,
                        load_fraction=load,
                        qps=qps,
                        p95_ms=latency,
                        qos_target_ms=lc.qos_latency_ms,
                        throughput_norm=None,
                    )
                )
            else:
                perf = normalized_throughput(
                    job.workload,
                    self._shares(config, i),
                    co_runner_pressure(pressures, i),
                )
                readings.append(
                    JobObservation(
                        name=job.name,
                        role=BG_ROLE,
                        load_fraction=None,
                        qps=None,
                        p95_ms=None,
                        qos_target_ms=None,
                        throughput_norm=perf,
                    )
                )
        return Observation(
            config=config, time_s=t, window_s=self.window_s, jobs=tuple(readings)
        )

    def qos_met(
        self, config: Configuration, at_time: Optional[Seconds] = None
    ) -> bool:
        """``true_performance(config, at_time).all_qos_met``, bit for bit.

        The cheap form of that question for admission screens: it
        visits LC jobs only (BG readings never affect the verdict),
        stops at the first violation, and lets each p95 bisection stop
        as soon as its bracket decides (:func:`p95_meets_target`).
        Pure, like :meth:`true_performance`.
        """
        self.space.validate(config)
        t = self._clock_s if at_time is None else at_time
        pressures = self._pressures(config, t)
        for i in self._lc_indices:
            lc = self.jobs[i].workload
            _, qps, cores, shares, contention = self._lc_inputs(
                config, i, t, pressures
            )
            target = lc.qos_latency_ms
            met = p95_meets_target(lc, qps, cores, shares, target, contention)
            if met is None:
                saturated = self._saturated_latency_ms(
                    lc, qps, cores, shares, contention
                )
                met = saturated <= target
            if not met:
                return False
        return True

    # ------------------------------------------------------------------
    # The controller-facing interface
    # ------------------------------------------------------------------
    def cache_info(self) -> Tuple[int, int]:
        """Observation-cache ``(hits, misses)`` since construction/reset."""
        return self._cache_hits, self._cache_misses

    @property
    def physics_computations(self) -> int:
        """Full physics evaluations since construction/reset.

        Unlike :meth:`cache_info`'s miss counter, this stays zero when a
        warm :class:`~.obstore.ObservationStore` serves every in-memory
        miss — it is the number an observation actually *cost*.
        """
        return self._physics_count

    @property
    def fingerprint(self) -> Optional[str]:
        """The store fingerprint of this node's physics (None storeless)."""
        return self._fingerprint

    def _cache_key(
        self, config: Configuration, at_time: Optional[Seconds] = None
    ) -> tuple:
        """What the truth of one window depends on: partition + LC loads."""
        t = self._clock_s if at_time is None else at_time
        loads = self._loads_at(t)
        return (config.flat(), tuple(loads[i] for i in self._lc_indices))

    def _store_lookup(
        self, key: tuple
    ) -> Optional[Tuple[JobObservation, ...]]:
        if self.store is None or self._fingerprint is None:
            return None
        flat, loads = key
        return self.store.get(self._fingerprint, flat, loads)

    def _store_publish(self, key: tuple, truth: Observation) -> None:
        if self.store is None or self._fingerprint is None:
            return
        flat, loads = key
        # The sanctioned publish path: probe-side CLITE admission reaches
        # this write through verify_node -> Node.observe, but the stored
        # truth is a deterministic function of (fingerprint, config,
        # loads, seed), so publishing it is replay-invariant — any replay
        # recomputes the identical value on a miss.  No other
        # ObservationStore.put runs on a probe path.
        self.store.put(self._fingerprint, flat, loads, truth.jobs)

    def stored_verdict(self, key: str) -> Optional[Verdict]:
        """The store's memoised verification verdict under ``key``."""
        if self.store is None:
            return None
        return self.store.get_verdict(key)

    def publish_verdict(self, key: str, verdict: Verdict) -> None:
        """Memoise one whole verification of this node in the store."""
        if self.store is None:
            return
        # The sanctioned verdict publish path, mirroring _store_publish:
        # probe-side CLITE admission reaches it through verify_node, but
        # the verdict is a deterministic function of its key (physics
        # fingerprint, LC loads, seed, engine settings), so any replay
        # recomputes the identical value on a miss.
        self.store.put_verdict(key, verdict)

    def _cached_truth(self, config: Configuration) -> Observation:
        """The noise-free truth of ``config`` now, memoized.

        The simulator is deterministic given the partition and the LC
        load fractions, so re-observing a lattice point the search has
        already visited (repair retries, refinement rejections,
        confirmation windows) skips the physics entirely.  Only the
        truth is cached — counter noise is drawn fresh for every window,
        so noisy-counter runs see exactly the same readings they would
        without the cache.  When an :class:`~.obstore.ObservationStore`
        is attached, in-memory misses fall through to it before paying
        the physics cost, and fresh truths are published back.
        """
        t = self._clock_s
        if not self.cache_enabled:
            self._physics_count += 1
            return self.true_performance(config, at_time=t)
        key = self._cache_key(config, t)
        truth = self._obs_cache.get(key)
        if truth is not None:
            self._cache_hits += 1
            self.telemetry.metrics.counter("node.cache.hits").add()
            return truth
        self._cache_misses += 1
        self.telemetry.metrics.counter("node.cache.misses").add()
        jobs = self._store_lookup(key)
        if jobs is not None:
            truth = Observation(
                config=config, time_s=t, window_s=self.window_s, jobs=jobs
            )
        else:
            truth = self.true_performance(config, at_time=t)
            self._physics_count += 1
            self._store_publish(key, truth)
        if len(self._obs_cache) < self.CACHE_MAX_ENTRIES:
            self._obs_cache[key] = truth
        return truth

    def observe(self, config: Configuration) -> Observation:
        """Enact ``config``, run one observation window, read the counters.

        Advances the simulated clock by the window length and appends
        the (noisy) observation to the node's history.
        """
        with self.telemetry.tracer.span("node.observe") as span:
            self.isolation.apply(config)
            truth = self._cached_truth(config)
            noisy_jobs = [
                reading.with_counter_metric(
                    self.counters.read(reading.counter_metric, self.window_s)
                )
                for reading in truth.jobs
            ]
            observation = Observation(
                config=config,
                time_s=self._clock_s,
                window_s=self.window_s,
                jobs=tuple(noisy_jobs),
            )
            self._clock_s += self.window_s
            self._history.append(observation)
            span.set("node_time_s", observation.time_s)
        self._record_window(observation)
        return observation

    def _record_window(self, observation: Observation) -> None:
        """Count the window and narrate QoS violations (telemetry only)."""
        telemetry = self.telemetry
        if not telemetry.active:
            return
        telemetry.metrics.counter("node.observe.windows").add()
        for reading in observation.lc_jobs:
            if reading.qos_met:
                continue
            telemetry.metrics.counter(
                "node.qos.violations", job=reading.name
            ).add()
            telemetry.tracer.event(
                "qos.violation",
                job=reading.name,
                node_time_s=observation.time_s,
                p95_ms=round(reading.p95_ms or 0.0, 3),
                target_ms=round(reading.qos_target_ms or 0.0, 3),
            )

    def advance(self, seconds: Seconds) -> None:
        """Let simulated time pass without taking a sample."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        self._clock_s += seconds

    def reset(self, seed: Optional[int] = None) -> None:
        """Fresh clock, history, isolation state, and (optionally) noise.

        The observation cache's truths stay valid across resets (they do
        not depend on the noise seed), so the cache is kept; only its
        hit/miss counters start over.
        """
        self._clock_s = 0.0
        self._history.clear()
        self.isolation.reset()
        self._cache_hits = 0
        self._cache_misses = 0
        self._physics_count = 0
        if seed is not None:
            self.counters.reseed(seed)


@dataclass(frozen=True)
class NodeBudget:
    """Sampling limits shared by every policy for fair comparisons.

    Attributes:
        max_samples: Upper bound on observation windows a policy may take.
    """

    max_samples: int = 100

    def __post_init__(self) -> None:
        if self.max_samples < 1:
            raise ValueError("budget must allow at least one sample")
