"""Tracked perf benchmark for the BO hot path.

Unlike the figure benches (which reproduce the paper's *results*), this
bench tracks the *speed* of the reproduction itself: how many CLITE
iterations per second the engine sustains end to end, how fast the
acquisition optimizer proposes, and GP fit/predict microbenchmarks.

A full run writes ``BENCH_perf.json`` at the repo root with three
sections:

* ``baseline`` — the pre-optimization numbers, frozen in this file as
  constants (measured on the seed revision with the same methodology);
* ``current``  — this run's numbers;
* ``speedup``  — current / baseline rates, so regressions in later PRs
  show up as a ratio drifting down rather than an absolute number that
  depends on the machine of the day.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py          # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_perf.py --quick  # CI smoke, no JSON

``--quick`` shrinks every workload so the whole script finishes in a few
seconds and skips the JSON write — it exists to prove the harness runs,
not to produce stable numbers.  ``--check`` runs the same quick
workloads after one untimed warm-up, repeats every gated section
``CHECK_REPEATS`` times, and gates the medians; the telemetry overhead
is gated as the median ratio of ``TELEMETRY_PAIRS`` interleaved
disabled/enabled pairs, and the batch (k=4 vs k=1) and warehouse-scale
(indexed vs fullscan) speedups as the medians of ``RATIO_PAIRS``
interleaved pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.engine import CLITEConfig, CLITEEngine
from repro.core.gp import GaussianProcess
from repro.core.optimizer import AcquisitionOptimizer
from repro.experiments import MixSpec
from repro.schedulers import CLITEPolicy
from repro.server import NodeBudget, ObservationStore
from repro.telemetry import (
    NULL_TRACER,
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

REPO_ROOT = Path(__file__).resolve().parent.parent

#: All timing goes through the injectable clock interface (the RPL104
#: boundary) rather than ad-hoc ``time.perf_counter()`` reads.
CLOCK = WallClock()
OUTPUT_PATH = REPO_ROOT / "BENCH_perf.json"

#: The workload every timing section runs against: two LC jobs at
#: moderate load sharing a node with one batch job — the paper's bread
#: and butter co-location, heavy enough that the BO loop dominates.
MIX = MixSpec.of(lc=[("img-dnn", 0.3), ("memcached", 0.3)], bg=["streamcluster"])

#: Pre-optimization rates, measured on the seed revision (commit before
#: this harness landed) with exactly the methodology below on the same
#: container.  Frozen so every future run reports speedup against the
#: same origin.
BASELINE = {
    "end_to_end": {
        "samples": 107,
        "seconds": 9.406007009000064,
        "iterations_per_sec": 11.375709150292774,
    },
    "propose": {
        "proposals": 20,
        "seconds": 2.431524070000023,
        "proposals_per_sec": 8.225293858596189,
    },
    "gp": {
        "fit_per_sec": 2831.448673893597,
        "predict_batch256_per_sec": 310.5317784245153,
        # The seed GP had no add_sample(); incremental conditioning is
        # compared against repeated batch refits of the same stream.
        "incremental_build_seconds": None,
    },
    # The seed had neither a persistent store (every sweep repaid the
    # full physics cost) nor batching (strictly sequential Algorithm 1),
    # so both ratios were definitionally 1.0 before this harness landed.
    "obstore": {"warm_speedup": 1.0},
    "batch": {"k4_speedup_vs_k1": 1.0},
    # The seed had no event-driven service either: events/sec has no
    # baseline rate (None keeps it out of the speedup table), and the
    # warm-store probe ratio was definitionally 1.0 pre-subsystem.
    "warehouse": {"events_per_sec": None, "warm_probe_speedup": 1.0},
    # Before the density-bucket/dirty-set indices every admission and
    # re-check scanned the fleet, so indexed-vs-scan was by definition
    # a wash.
    "warehouse_scale": {"index_speedup": 1.0},
}


def bench_end_to_end(seeds=(0, 1), budget_units=80, enable_telemetry=False):
    """Full CLITEPolicy.partition runs; the headline iterations/sec.

    With ``enable_telemetry`` every run gets a live wall-clock
    :class:`Telemetry` threaded through the engine, so the rate measures
    the *enabled* path — spans, counters, and histogram observes all
    active — instead of the null-object fast path.
    """
    samples = 0
    t0 = CLOCK.now()
    for seed in seeds:
        node = MIX.build_node(seed=seed)
        policy = CLITEPolicy(seed=seed)
        if enable_telemetry:
            policy = policy.instrument(Telemetry.enabled(clock=WallClock()))
        result = policy.partition(node, NodeBudget(budget_units))
        samples += len(result.trace)
    dt = CLOCK.now() - t0
    return {"samples": samples, "seconds": dt, "iterations_per_sec": samples / dt}


def bench_telemetry_pairs(pairs, **kwargs):
    """Telemetry overhead as back-to-back disabled/enabled
    :func:`bench_end_to_end` pairs: the per-pair enabled/disabled rate
    ratios and their median.

    Even pairs run the disabled half first, odd pairs the enabled one,
    so neither half always inherits the other's warm caches; each pair
    shares the host's load of the moment, and the median drops the
    pairs a burst of load hit.
    """
    ratios = []
    for i in range(pairs):
        rates = {}
        for enabled in (False, True) if i % 2 == 0 else (True, False):
            rates[enabled] = bench_end_to_end(
                enable_telemetry=enabled, **kwargs
            )["iterations_per_sec"]
        ratios.append(rates[True] / rates[False])
    return {"ratios": ratios, "enabled_ratio": statistics.median(ratios)}


def bench_propose(n=20, warmup_iterations=12):
    """AcquisitionOptimizer.propose against a realistically-sized GP."""
    node = MIX.build_node(seed=0)
    engine = CLITEEngine(node, CLITEConfig(seed=0, max_iterations=warmup_iterations))
    result = engine.optimize()
    records = result.samples
    x = np.array([node.space.to_unit_cube(r.config) for r in records])
    y = np.array([r.score for r in records])
    gp = GaussianProcess()
    gp.fit(x, y)
    best = max(records, key=lambda r: r.score)
    sampled = {r.config.flat() for r in records}
    opt = AcquisitionOptimizer(node.space, rng=np.random.default_rng(0))
    t0 = CLOCK.now()
    for _ in range(n):
        opt.propose(gp, best_score=best.score, sampled=sampled, incumbent=best.config)
    dt = CLOCK.now() - t0
    return {"proposals": n, "seconds": dt, "proposals_per_sec": n / dt}


def bench_gp(n_train=60, d=9, n_query=256, reps=30):
    """GP microbenchmarks: batch fit, batch predict, incremental build."""
    rng = np.random.default_rng(0)
    x = rng.random((n_train, d))
    y = rng.random(n_train)
    xq = rng.random((n_query, d))
    gp = GaussianProcess()
    t0 = CLOCK.now()
    for _ in range(reps):
        gp.fit(x, y)
    fit_dt = CLOCK.now() - t0
    t0 = CLOCK.now()
    for _ in range(reps):
        gp.predict(xq)
    pred_dt = CLOCK.now() - t0
    incr_reps = max(reps // 3, 1)
    t0 = CLOCK.now()
    for _ in range(incr_reps):
        g = GaussianProcess()
        g.fit(x[:5], y[:5])
        for i in range(5, n_train):
            g.add_sample(x[i], y[i])
    incr_dt = (CLOCK.now() - t0) / incr_reps
    return {
        "fit_per_sec": reps / fit_dt,
        "predict_batch256_per_sec": reps / pred_dt,
        "incremental_build_seconds": incr_dt,
    }


def bench_obstore(n_configs=300, seed=7):
    """Cold vs warm repeated sweep through a persistent store.

    The cold pass observes ``n_configs`` random partitions against an
    empty store; the warm pass replays the *same* partitions through a
    fresh node and a fresh :class:`ObservationStore` object that reloads
    the file the cold pass wrote — so the speedup measured is the full
    persist-reload path, not in-process memoization.  ``warm_physics``
    must come out 0: a warm store makes repeated sweeps observation-free.
    """
    rng = np.random.default_rng(12345)
    probe = MIX.build_node(seed=seed)
    configs = [probe.space.random(rng) for _ in range(n_configs)]

    def sweep(store):
        node = MIX.build_node(seed=seed, store=store)
        t0 = CLOCK.now()
        for config in configs:
            node.observe(config)
        return CLOCK.now() - t0, node.physics_computations

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "observations.jsonl"
        with ObservationStore(path) as store:
            cold_dt, cold_physics = sweep(store)
            store.flush()
        with ObservationStore(path) as store:
            warm_dt, warm_physics = sweep(store)
    return {
        "configs": n_configs,
        "cold_seconds": cold_dt,
        "warm_seconds": warm_dt,
        "cold_physics": cold_physics,
        "warm_physics": warm_physics,
        "warm_speedup": cold_dt / warm_dt,
    }


def bench_batch(ks=(1, 2, 4, 8), max_samples=60, seed=0):
    """Equal-budget wall-clock across acquisition batch sizes.

    EI termination is disabled (``post_qos_iterations`` effectively
    infinite) so every batch size observes exactly ``max_samples``
    windows; the k > 1 speedup then isolates what batching is for —
    amortizing one acquisition maximization (pool screen plus lockstep
    SLSQP) over k observations — instead of rewarding earlier
    termination on an easier trajectory.
    """
    runs = {str(k): _batch_run(k, max_samples, seed) for k in ks}
    out = {"max_samples": max_samples, "runs": runs}
    if "1" in runs and "4" in runs:
        out["k4_speedup_vs_k1"] = runs["1"]["seconds"] / runs["4"]["seconds"]
    return out


def _batch_run(k, max_samples, seed):
    """One :func:`bench_batch` engine run at batch size ``k``."""
    node = MIX.build_node(seed=seed)
    engine = CLITEEngine(
        node,
        CLITEConfig(
            seed=seed,
            max_samples=max_samples,
            max_iterations=10**6,
            post_qos_iterations=10**6,
            batch_k=k,
        ),
    )
    t0 = CLOCK.now()
    result = engine.optimize()
    dt = CLOCK.now() - t0
    return {
        "seconds": dt,
        "samples": len(result.samples),
        "samples_per_sec": len(result.samples) / dt,
    }


def bench_batch_pairs(pairs, max_samples=60, seed=0):
    """``k4_speedup_vs_k1`` as the median of interleaved k=1/k=4 run
    pairs, alternating which runs first (see
    :func:`bench_telemetry_pairs`)."""
    ratios = []
    for i in range(pairs):
        seconds = {}
        for k in (1, 4) if i % 2 == 0 else (4, 1):
            seconds[k] = _batch_run(k, max_samples, seed)["seconds"]
        ratios.append(seconds[1] / seconds[4])
    return {"ratios": ratios, "k4_speedup_vs_k1": statistics.median(ratios)}


def bench_warehouse(n_jobs=120, probe_jobs=24, seed=31):
    """Event-driven service throughput plus cold/warm admission probes.

    Part one plays a synthetic scenario against the issue's reference
    topology — 200 nodes split across 2 shards with quick probes and
    periodic QoS re-checks — and reports simulated scheduler events per
    wall second.  The topology is fixed; quick/full modes only scale the
    job count, so the per-event rate stays comparable.

    Part two replays one small arrival stream through full-CLITE
    admission probes twice against the same observation-store file (a
    fresh service and a fresh store object each pass, as in
    :func:`bench_obstore`), isolating what the shared store buys a
    *service*: every warm probe repeats a cold one, so it replays the
    stored verdict without any BO run.  The warm pass must decide
    exactly like the cold one and run zero engine runs.
    """
    events = synthesize(
        ScenarioConfig(n_jobs=n_jobs, duration_s=900.0, seed=seed)
    )
    with WarehouseFederation(
        2, 100, recheck_period_s=120.0, seed=seed
    ) as federation:
        load_into(federation, events)
        horizon = federation.loop.queue.last_time()
        t0 = CLOCK.now()
        # run_until counts everything processed, re-check ticks included.
        processed = federation.run_until(horizon)
        events_dt = CLOCK.now() - t0

    probe_events = synthesize(
        ScenarioConfig(n_jobs=probe_jobs, duration_s=600.0, seed=seed)
    )
    probe_engine = CLITEConfig(
        max_iterations=8, post_qos_iterations=2, refine_budget=3,
        confirm_top=1, n_restarts=2,
    )

    def sweep(store):
        # Counters only: the pass counts its engine runs, records no spans.
        telemetry = Telemetry(metrics=MetricRegistry(), tracer=NULL_TRACER)
        service = WarehouseService(
            16, probe="clite", engine_config=probe_engine, seed=seed,
            store=store, telemetry=telemetry,
        )
        load_into(service, probe_events)
        t0 = CLOCK.now()
        service.run_to_completion()
        dt = CLOCK.now() - t0
        runs = telemetry.metrics.counter("engine.runs").value
        return dt, service.timeline, int(runs)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "warehouse-observations.jsonl"
        with ObservationStore(path) as store:
            cold_dt, cold_timeline, cold_runs = sweep(store)
            cold_misses = store.stats().misses
            store.flush()
        with ObservationStore(path) as store:
            warm_dt, warm_timeline, warm_runs = sweep(store)
            warm_stats = store.stats()
    return {
        "events": processed,
        "seconds": events_dt,
        "events_per_sec": processed / events_dt,
        "probe_cold_seconds": cold_dt,
        "probe_warm_seconds": warm_dt,
        "probe_cold_misses": cold_misses,
        "probe_warm_misses": warm_stats.misses,
        "probe_cold_engine_runs": cold_runs,
        "probe_warm_engine_runs": warm_runs,
        "probe_warm_verdict_hits": warm_stats.verdict_hits,
        "probe_warm_identical": warm_timeline == cold_timeline,
        "warm_probe_speedup": cold_dt / max(warm_dt, 1e-9),
    }


class IndexFreeService(WarehouseService):
    """The pre-index read paths: full-fleet candidate scans for
    admission and the recheck walking every used node — the code the
    density buckets and the dirty-set recheck replaced.  Only the two
    scan-shaped readers are restored, reading nodes through the event's
    plan; ``_apply`` still maintains the (unused) indices, so the
    comparison isolates exactly what the buckets buy."""

    def _find_target(self, plan, job, exclude=frozenset()):
        from repro.warehouse.service import _request_at

        t = plan.t
        request = _request_at(job, t)
        verified = []
        fleet = self.cluster.nodes
        if plan.nodes:
            fleet = [plan.nodes.get(i, node) for i, node in enumerate(fleet)]
        candidates = {
            node_state.index
            for node_state in fleet
            if 0 < node_state.n_jobs < self.max_jobs_per_node
            and node_state.index not in exclude
            and node_state.can_host(request)
        }
        occupied = sorted(candidates, key=lambda i: (-fleet[i].n_jobs, i))
        for index in occupied[: self.max_probe_nodes]:
            tentative = self._refreshed(fleet[index], t).with_request(request)
            if not tentative.lc_requests:
                return index, tentative, tuple(verified)
            if self._check_node(tentative, verified):
                return index, tentative, tuple(verified)
        for node_state in fleet:
            if (
                node_state.n_jobs == 0
                and node_state.index not in exclude
                and node_state.can_host(request)
            ):
                return (
                    node_state.index,
                    node_state.with_request(request),
                    tuple(verified),
                )
        return None, None, tuple(verified)

    def _on_recheck(self, t, seq):
        from repro.warehouse.service import _Plan

        plan = _Plan(t)
        plan.count("rechecks", "warehouse.rechecks")
        checked = 0
        failed = 0
        verified_all = []
        for node_state in self.cluster.used_nodes():
            if not node_state.lc_requests:
                continue
            loads = self._loads_of(plan, node_state.index)
            if self._verified_at(plan, node_state.index) == loads:
                continue
            checked += 1
            verified = self._rebalance_node(plan, node_state.index, loads)
            verified_all.extend(verified)
            if self._verified_at(plan, node_state.index) != loads:
                failed += 1
        plan.count("recheck_failures", n=failed)
        plan.log(
            "recheck",
            detail=f"checked={checked} failed={failed}",
            verified=tuple(verified_all),
        )
        self._apply(plan, seq)


def bench_warehouse_scale(n_nodes=2000, n_jobs=2000, seed=47):
    """Scheduler-structure throughput at warehouse scale.

    Plays one all-background scenario through the indexed service and
    through :class:`IndexFreeService` (the pre-index full-scan read
    paths) on the same ``n_nodes``-machine cluster.  Background jobs
    admit structurally — no QoS probe physics, which ``bench_warehouse``
    already times — so events/sec here is purely the bookkeeping cost
    per scheduling decision: exactly the term the density buckets and
    the dirty-set recheck turned fleet-size-independent.  Both runs
    must replay to bit-identical timelines; ``index_speedup`` is the
    fullscan-to-indexed wall-time ratio.
    """
    events = _scale_events(n_jobs, seed)
    indexed_events, indexed_dt, indexed_timeline = _scale_play(
        WarehouseService, events, n_nodes, seed
    )
    scan_events, scan_dt, scan_timeline = _scale_play(
        IndexFreeService, events, n_nodes, seed
    )
    return {
        "nodes": n_nodes,
        "events": indexed_events,
        "indexed_seconds": indexed_dt,
        "fullscan_seconds": scan_dt,
        "indexed_events_per_sec": indexed_events / indexed_dt,
        "fullscan_events_per_sec": scan_events / scan_dt,
        "index_speedup": scan_dt / indexed_dt,
        "identical": (
            indexed_events == scan_events
            and indexed_timeline == scan_timeline
        ),
    }


def _scale_events(n_jobs, seed):
    return synthesize(
        ScenarioConfig(
            n_jobs=n_jobs, duration_s=900.0, lc_fraction=0.0, seed=seed
        )
    )


def _scale_play(cls, events, n_nodes, seed):
    """Play ``events`` through a fresh ``cls`` service: (events, s, timeline)."""
    service = cls(n_nodes, recheck_period_s=60.0, seed=seed)
    load_into(service, events)
    horizon = service.loop.queue.last_time()
    t0 = CLOCK.now()
    processed = service.run_until(horizon)
    dt = CLOCK.now() - t0
    return processed, dt, service.timeline


def bench_warehouse_scale_pairs(pairs, n_nodes=2000, n_jobs=2000, seed=47):
    """``index_speedup`` as the median of interleaved fullscan/indexed
    play pairs, alternating which plays first (see
    :func:`bench_telemetry_pairs`); ``identical`` holds only if every
    pair replayed to one timeline."""
    events = _scale_events(n_jobs, seed)
    ratios, identical = [], True
    order = (WarehouseService, IndexFreeService)
    for i in range(pairs):
        plays = {
            cls: _scale_play(cls, events, n_nodes, seed)
            for cls in (order if i % 2 == 0 else order[::-1])
        }
        indexed, scan = plays[WarehouseService], plays[IndexFreeService]
        ratios.append(scan[1] / indexed[1])
        identical = identical and (indexed[0], indexed[2]) == (scan[0], scan[2])
    return {
        "ratios": ratios,
        "index_speedup": statistics.median(ratios),
        "identical": identical,
    }


def speedups(current):
    """current/baseline for every rate both sections report."""
    out = {}
    for section, metrics in BASELINE.items():
        for key, base in metrics.items():
            if base is None or not (
                key.endswith("_per_sec") or "speedup" in key
            ):
                continue
            now = current.get(section, {}).get(key)
            if now:
                out[f"{section}.{key}"] = now / base
    return out


#: ``--check`` fails when the quick-mode end-to-end rate falls below
#: this fraction of the tracked ``BENCH_perf.json`` rate.  Generous
#: (30% headroom) because quick mode runs seconds, not minutes — the
#: guard exists to catch order-of-magnitude regressions (an accidental
#: O(n²) in the hot loop, telemetry overhead leaking into the disabled
#: path), not single-digit drift.
CHECK_THRESHOLD = 0.70

#: ``--check`` also budgets the *enabled*-telemetry path: the measured
#: enabled/disabled rate ratio must stay within 10% of the tracked
#: ratio from ``BENCH_perf.json``.  Comparing ratios (both rates from
#: the same run) keeps the budget machine-independent — a slower CI box
#: slows both paths alike, but telemetry overhead creeping into spans
#: or counters drags only the enabled rate down.
ENABLED_BUDGET = 0.90

#: Interleaved disabled/enabled pairs behind the measured ratio (see
#: :func:`bench_telemetry_pairs`).  On a 2-vCPU host single pairs read
#: x0.59-1.37 with nothing regressed, and the old ratio of the two
#: halves' medians failed the x0.87 floor in 3 of 5 runs; the median
#: of 9 pairs read x0.97-1.01 over 7 runs and x0.81-0.86 with a 0.3 ms
#: sleep injected into every span.
TELEMETRY_PAIRS = 9

#: Interleaved pairs behind the ``--check`` batch and warehouse-scale
#: ratios (:func:`bench_batch_pairs`, :func:`bench_warehouse_scale_pairs`),
#: which were the medians of three back-to-back runs before: their single
#: shots on a 2-vCPU host read k4 x2.60-3.20 against a x2.31 floor and
#: index x2.14-3.11 against a x2.49 floor with nothing regressed.
RATIO_PAIRS = 9

#: ``--check`` budgets the store and batch ratios the same way: the
#: quick-mode ratio must stay within this fraction of the tracked
#: full-run ratio.  Ratios (both halves timed in the same run) stay
#: machine-independent; the generous floors absorb quick mode's smaller
#: sweeps, where fixed per-observe costs weigh more than in the tracked
#: full run.
OBSTORE_BUDGET = 0.55
BATCH_BUDGET = 0.65

#: The warehouse events/sec floor vs the tracked rate.  More generous
#: than CHECK_THRESHOLD: quick mode schedules fewer jobs over the same
#: 200-node topology, so fixed per-run costs (calibration, fleet
#: construction) weigh more heavily on the quick rate.
WAREHOUSE_BUDGET = 0.50

#: The indexed-vs-fullscan ratio floor.  The quick topology (600 nodes)
#: gives the full scan less to lose than the tracked 2000-node run, so
#: the ratio-of-ratios budget is generous — but the measured speedup
#: must also clear an absolute 2x floor even in quick mode: that is the
#: acceptance bar the density-bucket/dirty-set refactor shipped under.
SCALE_BUDGET = 0.35
SCALE_FLOOR = 2.0

#: The warm-store probe sweep's absolute floor.  Every warm probe
#: replays a stored verdict, so the warm pass costs almost nothing and
#: a ratio against the tracked value would be noise-dominated; 10x is
#: the acceptance bar the verdict memo shipped under.
WARM_PROBE_FLOOR = 10.0

#: ``--check`` runs each gated section this many times, round-robin
#: after one untimed warm-up, and gates the median.  A single quick run
#: lasts seconds, and on a 2-vCPU host one cold end-to-end shot read
#: x0.42 of the tracked rate while three back-to-back shots read x0.9-1.6.
CHECK_REPEATS = 3

#: The sections ``check_regression`` gates by the median of repeats;
#: the others run once (telemetry, batch and warehouse_scale gate the
#: median of their interleaved pairs instead).
CHECK_GATED = (
    "end_to_end",
    "obstore",
    "warehouse",
)


def merge_repeats(runs):
    """One section's repeated results: medians, and worst-case invariants.

    Floats (times, rates, ratios) become their median; ints (counts
    that must hold, such as warm-store physics runs) their maximum;
    booleans (must-be-true checks) their conjunction.
    """
    merged = {}
    for key, first in runs[0].items():
        values = [run[key] for run in runs]
        if isinstance(first, dict):
            merged[key] = merge_repeats(values)
        elif isinstance(first, bool):
            merged[key] = all(values)
        elif isinstance(first, int):
            merged[key] = max(values)
        elif isinstance(first, float):
            merged[key] = statistics.median(values)
        else:
            merged[key] = first
    return merged


def check_regression(current) -> int:
    """Compare quick-mode rates against the tracked full-run numbers."""
    if not OUTPUT_PATH.exists():
        print(f"check: no {OUTPUT_PATH.name} to compare against; skipping")
        return 0
    tracked = json.loads(OUTPUT_PATH.read_text())
    reference = tracked["current"]["end_to_end"]["iterations_per_sec"]
    measured = current["end_to_end"]["iterations_per_sec"]
    ratio = measured / reference
    verdict = "ok" if ratio >= CHECK_THRESHOLD else "REGRESSION"
    print(
        f"check: end_to_end {measured:.1f} it/s vs tracked "
        f"{reference:.1f} it/s (x{ratio:.2f}, floor x{CHECK_THRESHOLD}): "
        f"{verdict}"
    )
    failed = ratio < CHECK_THRESHOLD

    tracked_enabled = tracked["current"].get("end_to_end_enabled")
    if tracked_enabled is None:
        print("check: no tracked end_to_end_enabled section; enabled budget skipped")
    else:
        tracked_overhead = (
            tracked_enabled["iterations_per_sec"]
            / tracked["current"]["end_to_end"]["iterations_per_sec"]
        )
        pairs = current["telemetry"]
        measured_overhead = pairs["enabled_ratio"]
        floor = tracked_overhead * ENABLED_BUDGET
        enabled_verdict = "ok" if measured_overhead >= floor else "REGRESSION"
        spread = ", ".join(f"{ratio:.2f}" for ratio in sorted(pairs["ratios"]))
        print(
            f"check: enabled/disabled ratio x{measured_overhead:.2f} (median "
            f"of {len(pairs['ratios'])} pairs: {spread}) vs tracked "
            f"x{tracked_overhead:.2f} (floor x{floor:.2f}): {enabled_verdict}"
        )
        failed = failed or measured_overhead < floor

    # A warm store must serve every truth — any physics here means the
    # persist-reload path is silently broken, whatever the timings say.
    warm_physics = current["obstore"]["warm_physics"]
    physics_verdict = "ok" if warm_physics == 0 else "REGRESSION"
    print(f"check: warm-store physics runs {warm_physics} (must be 0): {physics_verdict}")
    failed = failed or warm_physics != 0

    tracked_warehouse = tracked["current"].get("warehouse")
    if tracked_warehouse is None:
        print("check: no tracked warehouse section; events/sec budget skipped")
    else:
        reference = tracked_warehouse["events_per_sec"]
        measured = current["warehouse"]["events_per_sec"]
        ratio = measured / reference
        verdict = "ok" if ratio >= WAREHOUSE_BUDGET else "REGRESSION"
        print(
            f"check: warehouse {measured:.0f} events/s vs tracked "
            f"{reference:.0f} events/s (x{ratio:.2f}, floor "
            f"x{WAREHOUSE_BUDGET}): {verdict}"
        )
        failed = failed or ratio < WAREHOUSE_BUDGET

    # Same-seed warm probes must replay entirely from the store: any
    # miss means the service's probe path stopped being deterministic
    # (or stopped consulting the store), whatever the timings say.
    warm_misses = current["warehouse"]["probe_warm_misses"]
    misses_verdict = "ok" if warm_misses == 0 else "REGRESSION"
    print(
        f"check: warehouse warm-probe store misses {warm_misses} "
        f"(must be 0): {misses_verdict}"
    )
    failed = failed or warm_misses != 0

    # ... and from the verdict memo: the warm pass must decide exactly
    # like the cold one without a single BO run, and be >= 10x faster.
    warehouse = current["warehouse"]
    identical = warehouse["probe_warm_identical"]
    warm_runs = warehouse["probe_warm_engine_runs"]
    memo_ok = identical and warm_runs == 0
    print(
        f"check: warehouse warm-probe timeline identical {identical}, "
        f"engine runs {warm_runs} (must be True, 0): "
        f"{'ok' if memo_ok else 'REGRESSION'}"
    )
    failed = failed or not memo_ok
    warm_speedup = warehouse["warm_probe_speedup"]
    warm_verdict = "ok" if warm_speedup >= WARM_PROBE_FLOOR else "REGRESSION"
    print(
        f"check: warehouse.warm_probe_speedup x{warm_speedup:.2f} "
        f"(absolute floor x{WARM_PROBE_FLOOR}): {warm_verdict}"
    )
    failed = failed or warm_speedup < WARM_PROBE_FLOOR

    # The fullscan reference must still replay bit-identically — a
    # divergence means the indices changed scheduling decisions, which
    # no speedup excuses.
    identical = current["warehouse_scale"]["identical"]
    identical_verdict = "ok" if identical else "REGRESSION"
    print(
        f"check: warehouse_scale indexed/fullscan timelines identical "
        f"{identical} (must be True): {identical_verdict}"
    )
    failed = failed or not identical

    scale_speedup = current["warehouse_scale"]["index_speedup"]
    scale_verdict = "ok" if scale_speedup >= SCALE_FLOOR else "REGRESSION"
    print(
        f"check: warehouse_scale index_speedup x{scale_speedup:.2f} "
        f"(absolute floor x{SCALE_FLOOR}): {scale_verdict}"
    )
    failed = failed or scale_speedup < SCALE_FLOOR

    for section, key, budget in (
        ("obstore", "warm_speedup", OBSTORE_BUDGET),
        ("batch", "k4_speedup_vs_k1", BATCH_BUDGET),
        ("warehouse_scale", "index_speedup", SCALE_BUDGET),
    ):
        tracked_section = tracked["current"].get(section)
        if tracked_section is None or key not in tracked_section:
            print(f"check: no tracked {section}.{key}; budget skipped")
            continue
        reference = tracked_section[key]
        measured = current[section][key]
        floor = reference * budget
        verdict = "ok" if measured >= floor else "REGRESSION"
        ratios = current[section].get("ratios")
        pairs = (
            ""
            if ratios is None
            else f" (median of {len(ratios)} pairs: "
            + ", ".join(f"{ratio:.2f}" for ratio in sorted(ratios))
            + ")"
        )
        print(
            f"check: {section}.{key} x{measured:.2f}{pairs} vs tracked "
            f"x{reference:.2f} (floor x{floor:.2f}): {verdict}"
        )
        failed = failed or measured < floor

    return 1 if failed else 0


def cache_smoke() -> int:
    """CI smoke for the persistent store: sweep twice, expect free replay.

    Runs a tiny sweep against an empty store, then replays it through a
    fresh node and a fresh store object reloading the same file.  Fails
    unless the second pass runs zero physics — i.e. unless warm
    observations are actually free.
    """
    result = bench_obstore(n_configs=40)
    ok = result["cold_physics"] > 0 and result["warm_physics"] == 0
    print(
        f"cache-smoke: cold {result['cold_physics']} physics, warm "
        f"{result['warm_physics']} physics (warm x{result['warm_speedup']:.1f} "
        f"faster): {'ok' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: tiny workloads, prints results, does not write JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="quick workloads + fail (exit 1) if iterations/sec drops "
        f"more than {1 - CHECK_THRESHOLD:.0%} below BENCH_perf.json, or if "
        f"the enabled-telemetry rate ratio regresses more than "
        f"{1 - ENABLED_BUDGET:.0%}, the store/batch speedup ratios fall "
        "below their budgets, a warm store runs any physics, or the "
        "warm-store probe sweep runs any BO or is less than "
        f"{WARM_PROBE_FLOOR:.0f}x faster than the cold one",
    )
    parser.add_argument(
        "--cache-smoke",
        action="store_true",
        help="store-only CI smoke: sweep twice through one store file and "
        "fail unless the second pass runs zero physics",
    )
    args = parser.parse_args()

    if args.cache_smoke:
        return cache_smoke()

    if args.quick or args.check:
        quick = {
            "end_to_end": lambda: bench_end_to_end(seeds=(0,), budget_units=25),
            "telemetry": lambda: bench_telemetry_pairs(
                TELEMETRY_PAIRS if args.check else 1,
                seeds=(0,),
                budget_units=25,
            ),
            "propose": lambda: bench_propose(n=3, warmup_iterations=6),
            "gp": lambda: bench_gp(n_train=20, reps=5),
            "obstore": lambda: bench_obstore(n_configs=80),
            "batch": lambda: bench_batch_pairs(
                RATIO_PAIRS if args.check else 1, max_samples=24
            ),
            "warehouse": lambda: bench_warehouse(n_jobs=40, probe_jobs=10),
            "warehouse_scale": lambda: bench_warehouse_scale_pairs(
                RATIO_PAIRS if args.check else 1, n_nodes=600, n_jobs=600
            ),
        }
        if args.check:
            # The first engine run in a process pays one-off costs (lazy
            # scipy paths, interpreter warm-up); keep them out of the
            # gated numbers.
            quick["end_to_end"]()
        runs = {name: [] for name in quick}
        for rep in range(CHECK_REPEATS if args.check else 1):
            for name, bench in quick.items():
                if rep == 0 or name in CHECK_GATED:
                    runs[name].append(bench())
        current = {name: merge_repeats(results) for name, results in runs.items()}
    else:
        current = {
            "end_to_end": bench_end_to_end(),
            "end_to_end_enabled": bench_end_to_end(enable_telemetry=True),
            "propose": bench_propose(),
            "gp": bench_gp(),
            "obstore": bench_obstore(),
            "batch": bench_batch(),
            "warehouse": bench_warehouse(),
            "warehouse_scale": bench_warehouse_scale(),
        }

    report = {
        "mode": "quick" if (args.quick or args.check) else "full",
        "baseline": BASELINE,
        "current": current,
        "speedup": speedups(current),
    }
    print(json.dumps(report, indent=2))
    if args.check:
        return check_regression(current)
    if args.quick:
        print("\n(quick mode: BENCH_perf.json not updated)")
        return 0
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
