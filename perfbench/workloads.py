"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in :meth:`setup` and
plays them in :meth:`run_round`, which times every decision from outside
the program and checks the program's outputs.  A round is deterministic
given the seed: every round of a run must produce the same digest, and a
traced round must reproduce the untraced one's.  See ``METRICS.md`` for
why each workload exists and which layers it is meant to load.
"""

from __future__ import annotations

import hashlib
import statistics
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments import MixSpec
from repro.schedulers import CLITEPolicy
from repro.server import NodeBudget, ObservationStore
from repro.telemetry import (
    NULL_TRACER,
    Counter,
    MetricRegistry,
    Telemetry,
    WallClock,
)
from repro.warehouse import (
    ScenarioConfig,
    WarehouseFederation,
    WarehouseService,
    load_into,
    synthesize,
)

from hostspeed import HostSpeed
from ledger import Ledger

CLOCK = WallClock()


@dataclass
class Record:
    """What one run measured, accumulated over its rounds.

    Every decision's raw wall time goes through :meth:`time`; the
    host-speed-scaled times (see :mod:`hostspeed`) are filled in when
    the round closes.
    """

    #: Scaled arrival latencies (partition: every run's).
    latencies_ms: List[float] = field(default_factory=list)
    raw_latencies_ms: List[float] = field(default_factory=list)
    decisions: int = 0
    #: Summed decision time, raw and scaled.
    wall_s: float = 0.0
    scaled_s: float = 0.0
    #: Every reference-kernel measurement, in seconds.
    kernel_s: List[float] = field(default_factory=list)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: Deterministic per-round values (the same in every round).
    quality: Dict[str, float] = field(default_factory=dict)
    #: Exact per-round counts reported beside the times.
    counts: Dict[str, float] = field(default_factory=dict)
    #: The ledger's own counts (see :class:`Ledger`) over each pass of
    #: the last round; all zero unless the ledger is installed.
    passes: List[Dict[str, int]] = field(default_factory=list)
    #: The program's counters over the last round (its cold pass, for
    #: admit-clite), written beside the traced round's spans.
    metrics: MetricRegistry = field(default_factory=MetricRegistry)

    _speed: Any = None
    _is_latency: List[bool] = field(default_factory=list)

    def fail(self, message: str, decisions: int = 1) -> None:
        self.failed += decisions
        if len(self.problems) < 20:
            self.problems.append(message)

    def open_round(self) -> None:
        self._speed = HostSpeed()
        self._is_latency = []

    def time(self, seconds: float, latency: bool) -> None:
        """One decision's raw wall time; ``latency`` marks an arrival."""
        self._speed.add(seconds)
        self._is_latency.append(latency)
        self.wall_s += seconds
        if latency:
            self.raw_latencies_ms.append(seconds * 1e3)

    def close_round(self) -> None:
        scaled = self._speed.finish()
        self.kernel_s.extend(self._speed.kernel_s)
        self.scaled_s += sum(scaled)
        self.latencies_ms.extend(
            s * 1e3 for s, latency in zip(scaled, self._is_latency) if latency
        )
        self._speed = None


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def _telemetry() -> Telemetry:
    """Counters on, spans off: the program counts its own checks, truths,
    windows and cache traffic, and records nothing else."""
    return Telemetry(metrics=MetricRegistry(), tracer=NULL_TRACER)


def _counter(metrics: MetricRegistry, name: str) -> int:
    """A counter summed over all its label sets."""
    return int(sum(
        instrument.value
        for instrument in metrics.instruments()
        if isinstance(instrument, Counter) and instrument.name == name
    ))


def _delta(now: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in now.items()}


class Workload:
    """What ``run.py`` drives: warm up once, then set up and play rounds."""

    name = ""

    def warmup(self) -> None:
        """Untimed work that takes one-off costs out of the first round."""

    def setup(self) -> Any:
        raise NotImplementedError

    def run_round(self, state: Any, ledger: Ledger, rec: Record) -> None:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` acquired."""

    def close(self) -> None:
        """Release what the workload holds for the whole run."""


# ----------------------------------------------------------------------
# partition: CLITE on a fresh node per mix, one mix after another.
# ----------------------------------------------------------------------

#: ``(LC jobs at load, BG jobs, engine/noise seed)``: two mixes of each
#: shape (2 or 3 Tailbench LC jobs at 10-70% load, with 0 or 1 PARSEC BG
#: job), drawn once from the paper's catalogs and then fixed; the first
#: is the cheapest.  The seed is fixed per mix because CLITE's cost per
#: mix is heavy-tailed in the trajectory — the same 3-LC mix took 1.7 s
#: on two engine seeds and 19.5 s on a third — so drawing mixes or seeds
#: per run would make the run-to-run spread a measure of luck.  The 3-LC
#: mix at seed 9 is one of those slow trajectories (about 7 s, four
#: times its siblings) and stays in on purpose, so the acquisition
#: optimizer's tail shows.
PARTITION_MIXES: Tuple[Tuple[Tuple[Tuple[str, float], ...], Tuple[str, ...], int], ...] = (
    ((("xapian", 0.3), ("specjbb", 0.5)), (), 3),
    ((("memcached", 0.3), ("img-dnn", 0.5)), (), 15),
    ((("masstree", 0.1), ("specjbb", 0.1)), ("fluidanimate",), 5),
    ((("img-dnn", 0.7), ("xapian", 0.7)), ("canneal",), 38),
    ((("xapian", 0.7), ("masstree", 0.1), ("memcached", 0.1)), (), 23),
    ((("memcached", 0.5), ("masstree", 0.1), ("specjbb", 0.3)), (), 9),
    ((("masstree", 0.5), ("specjbb", 0.1), ("memcached", 0.1)), ("fluidanimate",), 28),
    ((("specjbb", 0.1), ("masstree", 0.7), ("memcached", 0.1)), ("freqmine",), 51),
)

#: The figure benches' per-node sample budget.
PARTITION_BUDGET = NodeBudget(80)


class Partition(Workload):
    """Closed loop over :meth:`CLITEPolicy.partition`, one mix at a time."""

    name = "partition"

    def __init__(self, seed: int) -> None:
        order = np.random.default_rng(seed).permutation(len(PARTITION_MIXES))
        self.mixes = [PARTITION_MIXES[int(i)] for i in order]

    def setup(self) -> List[Tuple[MixSpec, Any, CLITEPolicy]]:
        state = []
        for lc, bg, mix_seed in self.mixes:
            mix = MixSpec.of(lc=lc, bg=bg)
            state.append(
                (mix, mix.build_node(seed=mix_seed), CLITEPolicy(seed=mix_seed))
            )
        return state

    def warmup(self) -> None:
        """Partition the cheapest mix once, untimed.

        The first engine run in a process pays one-off costs (lazy
        scipy paths, interpreter warm-up); without this the seed, which
        picks the mix order, would pick which mix pays them.
        """
        lc, bg, mix_seed = PARTITION_MIXES[0]
        mix = MixSpec.of(lc=lc, bg=bg)
        CLITEPolicy(seed=mix_seed).partition(
            mix.build_node(seed=mix_seed), PARTITION_BUDGET
        )

    def run_round(self, state: Any, ledger: Ledger, rec: Record) -> None:
        results: List[Tuple[MixSpec, Any, Any]] = []
        ledger.counts.clear()
        for mix, node, policy in state:
            ledger.decision += 1
            try:
                with ledger.timed():
                    t0 = CLOCK.now()
                    result = policy.partition(node, PARTITION_BUDGET)
                    dt = CLOCK.now() - t0
            except Exception as exc:  # a decision that raised is failed
                rec.fail(f"{mix.label()}: {exc!r}")
                continue
            rec.time(dt, latency=True)
            results.append((mix, node, result))
        rec.decisions += len(state)

        windows, qos_met, admitted, bg_perf, keys = [], [], [], [], []
        for mix, node, result in results:
            try:
                node.space.validate(result.best_config)
            except (ValueError, AttributeError) as exc:
                rec.fail(f"{mix.label()}: invalid partition ({exc})")
                continue
            truth = node.true_performance(result.best_config)
            windows.append(len(result.trace))
            qos_met.append(truth.all_qos_met)
            admitted.append(result.qos_met)
            bg_perf.extend(job.throughput_norm for job in truth.bg_jobs)
            keys.append((mix.label(), result.best_config.flat(), len(result.trace)))
        rec.digests.append(_digest(keys))
        rec.quality = {
            "samples_per_decision": _mean(windows),
            "qos_met_fraction": _mean(qos_met),
            "admit_fraction": _mean(admitted),
            "nodes_used_mean": 1.0,
            "bg_perf_mean": _mean(bg_perf),
        }
        rec.counts = {
            "engine_runs": len(results),
            "windows": sum(windows),
            "node_cache_hits": sum(node.cache_info()[0] for _, node, _ in state),
            "node_cache_misses": sum(node.cache_info()[1] for _, node, _ in state),
        }
        rec.passes = [dict(ledger.counts)]


def _mean(values: List[Any]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


# ----------------------------------------------------------------------
# Warehouse workloads: step run_until through every event and tick time.
# ----------------------------------------------------------------------


def _step_times(events: Tuple[Any, ...], period: Optional[float]) -> List[float]:
    horizon = max(e.time_s for e in events)
    times = {e.time_s for e in events}
    if period is not None:
        times.update(period * i for i in range(1, int(horizon // period) + 1))
    return sorted(times)


def _over_cap(services: List[WarehouseService]) -> List[str]:
    return [
        f"node {node.index} runs {node.n_jobs} jobs"
        for service in services
        for node in service.cluster.nodes
        if node.n_jobs > service.max_jobs_per_node
    ]


def _play(
    target: Any,
    services: List[WarehouseService],
    events: Tuple[Any, ...],
    period: Optional[float],
    ledger: Ledger,
    rec: Record,
) -> float:
    """Step ``target.run_until`` through every scripted and tick time.

    Each step is one decision span; a step at an arrival time is that
    arrival's admission, timed from outside.  Returns the occupied-node
    count averaged over steps.
    """
    times = _step_times(events, period)
    arrivals = {e.time_s for e in events if e.kind == "submit"}
    ticks = set(times) - {e.time_s for e in events}
    used_total = 0
    steps = 0
    for t in times:
        ledger.decision += 1
        try:
            with ledger.timed():
                t0 = CLOCK.now()
                processed = target.run_until(t)
                dt = CLOCK.now() - t0
        except Exception as exc:  # the rest of the pass is undefined
            rec.fail(f"run_until({t}): {exc!r}", len(arrivals))
            break
        rec.time(dt, latency=t in arrivals)
        rec.decisions += processed
        used_total += sum(service.nodes_used for service in services)
        steps += 1
        if t in ticks:
            for problem in _over_cap(services):
                rec.fail(f"t={t}: {problem}")
    for problem in _over_cap(services):
        rec.fail(f"end of pass: {problem}")
    return used_total / max(steps, 1)


def _renamed(stream: ScenarioConfig, prefix: str) -> Tuple[Any, ...]:
    """The stream's events with every job name prefixed.

    A common prefix keeps the names' relative order, and names only
    break ties, so every decision is the same as without it.
    """
    return tuple(
        replace(
            e,
            name=prefix + e.name,
            job=replace(e.job, name=prefix + e.name) if e.job else None,
        )
        for e in synthesize(stream)
    )


class ChurnQuick(Workload):
    """A two-shard federation replaying churn with quick probes.

    The stream is fixed (:data:`STREAM`) and the run seed only prefixes
    the job names.  Drawing the stream per run moved the arrival p50 by
    30% from seed to seed (how many arrivals need a second probe shifts
    with the job mix), even at 1000 jobs.
    """

    name = "churn-quick"
    SHARDS = 2
    NODES_PER_SHARD = 60
    RECHECK_S = 120.0
    #: About 1.6 arrivals per simulated second, half of them LC jobs with
    #: three load phases: peak load reaches the co-location cap, so some
    #: arrivals are rejected and admission probes dense nodes.
    STREAM = ScenarioConfig(n_jobs=1000, duration_s=900.0, seed=1)

    def __init__(self, seed: int) -> None:
        self.prefix = f"s{seed}-"

    def setup(self) -> Tuple[Tuple[Any, ...], WarehouseFederation]:
        events = _renamed(self.STREAM, self.prefix)
        federation = WarehouseFederation(
            self.SHARDS,
            self.NODES_PER_SHARD,
            routing="least-loaded",
            probe="quick",
            recheck_period_s=self.RECHECK_S,
            seed=self.STREAM.seed,
            telemetry=_telemetry(),
        )
        load_into(federation, events)
        return events, federation

    def teardown(self, state: Any) -> None:
        state[1].close()

    def run_round(self, state: Any, ledger: Ledger, rec: Record) -> None:
        events, federation = state
        shards = federation.shards
        ledger.counts.clear()
        used_mean = _play(federation, shards, events, self.RECHECK_S, ledger, rec)
        status = federation.status()
        if status["routed"] + status["rejections"] != status["arrivals"]:
            rec.fail(f"arrivals unaccounted for: {status}")
        metrics = federation.telemetry.metrics
        checks = _counter(metrics, "warehouse.verify.nodes")
        truths = _counter(metrics, "warehouse.probe.truths")
        rec.digests.append(
            _digest(
                federation.routed,
                [shard.timeline for shard in shards],
                sorted(federation.placements().items()),
            )
        )
        rec.quality = {
            "samples_per_decision": truths / max(checks, 1),
            "qos_met_fraction": float(status["qos_met_fraction"]),
            "admit_fraction": status["routed"] / status["arrivals"],
            "nodes_used_mean": used_mean,
        }
        rec.counts = {
            "arrivals": status["arrivals"],
            "rejections": status["rejections"],
            "migrations": status["migrations"],
            "checks": checks,
            "truths": truths,
        }
        rec.passes = [dict(ledger.counts)]
        rec.metrics = metrics


class AdmitCLITE(Workload):
    """Full-CLITE admission over a persistent store, cold then restarted.

    The stream is fixed (:data:`STREAM`) and the run seed only prefixes
    the job names.  Drawing the stream, or only the probe seed, per run
    moved the admission times by 15-45% from seed to seed — per-probe
    CLITE cost is heavy-tailed in the trajectory — which no run short
    enough for this benchmark averages away.
    """

    name = "admit-clite"
    NODES = 16
    #: 24 jobs in 400 simulated seconds: 48 arrivals a round over both
    #: passes, 44 CLITE probes a pass.  A 50-job stream took about 50 s
    #: a round, longer than a run.
    STREAM = ScenarioConfig(n_jobs=24, duration_s=400.0, seed=1)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.prefix = f"s{seed}-"
        scratch.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix="admit-", dir=scratch)
        self._stores = 0

    def close(self) -> None:
        self._tmp.cleanup()

    def _service(self, store: ObservationStore) -> WarehouseService:
        return WarehouseService(
            self.NODES,
            probe="clite",
            seed=self.STREAM.seed,
            store=store,
            telemetry=_telemetry(),
        )

    def setup(self) -> Dict[str, Any]:
        events = _renamed(self.STREAM, self.prefix)
        self._stores += 1
        path = Path(self._tmp.name) / f"observations-{self._stores}.jsonl"
        store = ObservationStore(path)
        service = self._service(store)
        load_into(service, events)
        return {"events": events, "path": path, "store": store,
                "service": service}

    def teardown(self, state: Dict[str, Any]) -> None:
        for key in ("store", "store2"):
            if key in state:
                state[key].close()
        state["path"].unlink(missing_ok=True)

    def run_round(self, state: Dict[str, Any], ledger: Ledger, rec: Record) -> None:
        events = state["events"]
        ledger.counts.clear()
        cold = state["service"]
        used_cold = _play(cold, [cold], events, None, ledger, rec)
        cold_stats = state["store"].stats()
        cold_counts = dict(ledger.counts)

        # Restart: persist, then reopen the file in a fresh store object
        # under a fresh service replaying the same stream.
        ledger.decision += 1
        with ledger.timed():
            t0 = CLOCK.now()
            state["store"].flush()
            state["store"].close()
            with ledger.span("server.obstore.open"):
                state["store2"] = ObservationStore(state["path"])
            dt = CLOCK.now() - t0
        rec.time(dt, latency=False)
        warm = self._service(state["store2"])
        load_into(warm, events)
        used_warm = _play(warm, [warm], events, None, ledger, rec)
        warm_stats = state["store2"].stats()

        if warm.timeline != cold.timeline:
            rec.fail("restart timeline differs from the cold pass", len(events))
        if warm.placements() != cold.placements():
            rec.fail("restart placements differ from the cold pass")
        if warm_stats.misses:
            rec.fail(f"restart pass missed the store {warm_stats.misses} times")
        status = cold.status()
        if status["admitted"] + status["rejections"] != status["arrivals"]:
            rec.fail(f"arrivals unaccounted for: {status}")
        metrics = [cold.telemetry.metrics, warm.telemetry.metrics]
        runs = sum(_counter(m, "engine.runs") for m in metrics)
        windows = sum(_counter(m, "engine.samples") for m in metrics)
        rec.digests.append(
            _digest(cold.timeline, sorted(cold.placements().items()))
        )
        rec.quality = {
            "samples_per_decision": windows / max(runs, 1),
            "qos_met_fraction": float(status["qos_met_fraction"]),
            "admit_fraction": status["admitted"] / status["arrivals"],
            "nodes_used_mean": (used_cold + used_warm) / 2,
        }
        rec.counts = {
            "arrivals": 2 * status["arrivals"],
            "rejections": 2 * status["rejections"],
            "checks": sum(_counter(m, "warehouse.verify.nodes") for m in metrics),
            "engine_runs": runs,
            "windows": windows,
            "store_hits": cold_stats.hits + warm_stats.hits,
            "store_misses": cold_stats.misses + warm_stats.misses,
            "store_hits.cold": cold_stats.hits,
            "store_misses.cold": cold_stats.misses,
            "store_hits.restart": warm_stats.hits,
            "store_misses.restart": warm_stats.misses,
            "node_cache_hits": sum(_counter(m, "node.cache.hits") for m in metrics),
            "node_cache_misses": sum(_counter(m, "node.cache.misses") for m in metrics),
        }
        rec.passes = [cold_counts, _delta(ledger.counts, cold_counts)]
        rec.metrics = cold.telemetry.metrics


WORKLOADS = ("partition", "churn-quick", "admit-clite")


def make(name: str, seed: int, scratch: Path) -> Workload:
    if name == "partition":
        return Partition(seed)
    if name == "churn-quick":
        return ChurnQuick(seed)
    if name == "admit-clite":
        return AdmitCLITE(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
