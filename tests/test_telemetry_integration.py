"""Telemetry woven through engine, node, monitor, cluster, and dynamic
runs: snapshots on results and counters that agree with ground truth."""

from __future__ import annotations

import pytest

from conftest import make_bg, make_lc, make_node
from repro.cluster import Cluster, ClusterNode, JobRequest
from repro.core import CLITEConfig, CLITEEngine
from repro.experiments import MixSpec, run_dynamic, run_trial
from repro.server import Job, Node, NodeBudget, PerformanceCounters, QoSMonitor
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.warehouse import CLITEProbe, QoSBlindProbe, place, verify_node
from repro.workloads import LoadSchedule
from test_core_termination_engine import small_engine_config

FAST_ENGINE = CLITEConfig(
    max_iterations=10,
    post_qos_iterations=3,
    refine_budget=5,
    confirm_top=1,
    n_restarts=3,
)


def run_engine(mini_server, telemetry=None, seed=3):
    node = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, seed=seed)
    config = small_engine_config(seed=seed, telemetry=telemetry)
    return CLITEEngine(node, config).optimize()


# ----------------------------------------------------------------------
# Engine + node
# ----------------------------------------------------------------------
class TestEngineTelemetry:
    def test_disabled_by_default_result_carries_no_snapshot(self, mini_server):
        assert run_engine(mini_server).telemetry is None

    def test_enabled_result_carries_phase_breakdown(self, mini_server):
        tel = Telemetry.enabled()
        result = run_engine(mini_server, telemetry=tel)
        snap = result.telemetry
        assert snap is not None
        assert snap.phase_counts["engine.optimize"] == 1
        assert snap.phase_counts["engine.bootstrap"] == 1
        assert snap.phase_counts["optimizer.propose"] >= 1
        assert snap.phase_counts["node.observe"] == result.samples_taken
        assert snap.dropped == 0
        # children sum within the root span's envelope
        assert snap.phase_seconds["engine.bootstrap"] <= (
            snap.phase_seconds["engine.optimize"] + 1e-9
        )

    def test_engine_counters_match_result(self, mini_server):
        tel = Telemetry.enabled()
        result = run_engine(mini_server, telemetry=tel)
        assert tel.metrics.counter_value("engine.runs") == 1.0
        assert (
            tel.metrics.counter_value("engine.samples")
            == result.samples_taken
        )
        assert tel.metrics.counter_value("node.observe.windows") == float(
            result.samples_taken
        )

    def test_cache_counters_match_registry(self, mini_server):
        """CLITEResult's cache accounting and the MetricRegistry count
        the same cache, so they must agree exactly."""
        tel = Telemetry.enabled()
        result = run_engine(mini_server, telemetry=tel)
        assert tel.metrics.counter_value("node.cache.hits") == float(
            result.cache_hits
        )
        assert tel.metrics.counter_value("node.cache.misses") == float(
            result.cache_misses
        )

    def test_snapshot_scoped_to_one_run_on_shared_context(self, mini_server):
        tel = Telemetry.enabled()
        first = run_engine(mini_server, telemetry=tel, seed=3)
        second = run_engine(mini_server, telemetry=tel, seed=4)
        # per-run span windows do not bleed into each other ...
        assert first.telemetry.phase_counts["engine.optimize"] == 1
        assert second.telemetry.phase_counts["engine.optimize"] == 1
        # ... while registry counters accumulate across the session
        assert second.telemetry.counters["engine.runs"] == 2.0

    def test_run_trial_threads_telemetry(self):
        from repro.schedulers import CLITEPolicy

        mix = MixSpec.of(lc=[("img-dnn", 0.3)], bg=["streamcluster"])
        tel = Telemetry.enabled()
        trial = run_trial(
            mix,
            CLITEPolicy(config=FAST_ENGINE),
            seed=0,
            budget=NodeBudget(25),
            telemetry=tel,
        )
        assert trial.result.telemetry is not None
        assert tel.metrics.counter_value("engine.runs") == 1.0


# ----------------------------------------------------------------------
# Monitor
# ----------------------------------------------------------------------
class TestMonitorTelemetry:
    def _node(self, mini_server, schedule):
        jobs = [Job(make_lc("lc0"), schedule), Job.bg(make_bg("bg0"))]
        return Node(
            mini_server, jobs, counters=PerformanceCounters(seed=0)
        )

    def test_checks_counted_and_spanned(self, mini_server):
        tel = Telemetry.enabled()
        node = self._node(mini_server, LoadSchedule.constant(0.3))
        monitor = QoSMonitor(node, telemetry=tel)
        config = node.space.equal_partition()
        for _ in range(3):
            monitor.check(config)
        assert tel.metrics.counter_value("monitor.checks") == 3.0
        assert tel.snapshot().phase_counts["monitor.check"] == 3

    def test_trigger_emits_event_and_labelled_counter(self, mini_server):
        tel = Telemetry.enabled()
        schedule = LoadSchedule.steps([(0, 0.2), (6, 0.5)])
        node = self._node(mini_server, schedule)
        monitor = QoSMonitor(
            node, load_change_threshold=0.05, telemetry=tel
        )
        config = node.space.equal_partition()
        reports = [monitor.check(config) for _ in range(5)]
        reinvocations = sum(1 for r in reports if r.reinvoke)
        assert reinvocations >= 1
        triggered = [
            e for e in tel.tracer.events() if e.name == "monitor.trigger"
        ]
        assert len(triggered) == reinvocations
        total = sum(
            data["value"]
            for series, data in tel.metrics.snapshot().items()
            if series.startswith("monitor.triggers")
        )
        assert total == reinvocations


# ----------------------------------------------------------------------
# Cluster
# ----------------------------------------------------------------------
def cluster_states(mini_server, n=3):
    states = []
    for i in range(n):
        states.append(
            ClusterNode(i, mini_server)
            .with_request(JobRequest(make_lc(f"svc-{i}"), 0.3, name=f"svc-{i}"))
            .with_request(JobRequest(make_bg(f"batch-{i}"), name=f"batch-{i}"))
        )
    return states


class TestClusterTelemetry:
    def test_verify_span_per_node(self, mini_server):
        states = cluster_states(mini_server)
        tel = Telemetry.enabled()
        for state in states:
            verify_node(state, FAST_ENGINE, seed=0, telemetry=tel)
        snap = tel.snapshot()
        assert snap.phase_counts["cluster.verify_node"] == len(states)

    def test_placement_outcome_carries_snapshot(self, mini_server):
        cluster = Cluster(n_nodes=3, spec=mini_server)
        requests = [
            JobRequest(make_lc("svc"), 0.3, name="svc"),
            JobRequest(make_bg("batch"), name="batch"),
        ]
        tel = Telemetry.enabled()
        outcome = place(
            cluster, requests, QoSBlindProbe(), 1, verify=False, telemetry=tel
        )
        assert outcome.telemetry is not None
        assert outcome.telemetry.phase_counts["cluster.place"] == 1

    def test_clite_placement_resolves_engine_config_telemetry(
        self, mini_server
    ):
        cluster = Cluster(n_nodes=2, spec=mini_server)
        requests = [JobRequest(make_lc("svc"), 0.3, name="svc")]
        tel = Telemetry.enabled()
        config = CLITEConfig(
            max_iterations=8,
            post_qos_iterations=2,
            confirm_top=1,
            n_restarts=3,
            telemetry=tel,
        )
        outcome = place(cluster, requests, CLITEProbe(config), 4)
        assert outcome.telemetry is not None
        assert outcome.telemetry.phase_counts["cluster.place"] == 1
        assert tel.metrics.counter_value("engine.runs") >= 1.0

    def test_disabled_outcome_carries_no_snapshot(self, mini_server):
        cluster = Cluster(n_nodes=2, spec=mini_server)
        requests = [JobRequest(make_bg("batch"), name="batch")]
        outcome = place(cluster, requests, QoSBlindProbe(), 1, verify=False)
        assert outcome.telemetry is None


# ----------------------------------------------------------------------
# Dynamic runs
# ----------------------------------------------------------------------
class TestDynamicTelemetry:
    def _mix(self):
        ramp = LoadSchedule.steps([(0, 0.1), (150, 0.3)])
        return MixSpec.of(
            lc=[("img-dnn", 0.1), ("memcached", ramp)],
            bg=["fluidanimate"],
        )

    def _config(self, telemetry=None):
        return CLITEConfig(
            seed=0,
            max_iterations=10,
            ei_min_iterations=2,
            post_qos_iterations=2,
            confirm_top=1,
            n_restarts=3,
            telemetry=telemetry,
        )

    def test_trace_counts_reinvocations(self):
        tel = Telemetry.enabled()
        trace = run_dynamic(
            self._mix(),
            total_time_s=300,
            engine_config=self._config(),
            telemetry=tel,
        )
        assert trace.telemetry is not None
        reinvocations = len(trace.reinvocations)
        assert (
            tel.metrics.counter_value("dynamic.reinvocations")
            == reinvocations
        )
        events = [
            e
            for e in tel.tracer.events()
            if e.name == "dynamic.reinvocation"
        ]
        assert len(events) == reinvocations

    def test_disabled_trace_carries_no_snapshot(self):
        trace = run_dynamic(
            self._mix(), total_time_s=250, engine_config=self._config()
        )
        assert trace.telemetry is None


# ----------------------------------------------------------------------
# Zero-interference guarantees
# ----------------------------------------------------------------------
class TestNullPathInvariants:
    def test_null_telemetry_is_never_mutated(self, mini_server):
        before = NULL_TELEMETRY.tracer.finished_count
        run_engine(mini_server)
        assert NULL_TELEMETRY.tracer.finished_count == before
        assert NULL_TELEMETRY.metrics.instruments() == []

    def test_engine_does_not_overwrite_node_context(self, mini_server):
        """A node that already records keeps its own context even when
        the engine brings a different one."""
        node_tel = Telemetry.enabled()
        engine_tel = Telemetry.enabled()
        node = make_node(mini_server, lc_loads=(0.4,), n_bg=1, seed=0)
        node.telemetry = node_tel
        config = small_engine_config(seed=0, telemetry=engine_tel)
        result = CLITEEngine(node, config).optimize()
        assert node.telemetry is node_tel
        assert node_tel.metrics.counter_value("node.observe.windows") == float(
            result.samples_taken
        )
        assert engine_tel.metrics.counter_value("node.observe.windows") == 0.0
