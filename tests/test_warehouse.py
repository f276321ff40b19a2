"""The warehouse service: event core, admission, migration, determinism."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from conftest import books_consistent, make_bg, make_lc, service_trace
from repro.core import CLITEConfig
from repro.telemetry import Telemetry
from repro.telemetry.clock import SimulatedClock
from repro.telemetry.serve import parse_series
from repro.server import ObservationStore
from repro.warehouse import (
    AdmissionProbe,
    Arrival,
    CLITEProbe,
    Departure,
    EventLoop,
    EventQueue,
    MigrationModel,
    QuickProbe,
    Recheck,
    ScenarioConfig,
    WarehouseFederation,
    WarehouseJob,
    WarehouseService,
    load_into,
    synthesize,
)
from repro.workloads import LoadSchedule

#: Small engine budgets for full-CLITE probes in tests.
FAST_ENGINE = CLITEConfig(
    max_iterations=10,
    post_qos_iterations=3,
    refine_budget=5,
    confirm_top=1,
    n_restarts=3,
)


def _counter_total(telemetry, name):
    """One counter summed over all its label sets."""
    return sum(
        value
        for series, value in telemetry.snapshot().counters.items()
        if parse_series(series)[0] == name
    )


def lc_job(name, load, qos_latency_ms=10.0):
    return WarehouseJob.lc(
        make_lc(name, qos_latency_ms=qos_latency_ms), load, name
    )


def bg_job(name):
    return WarehouseJob.bg(make_bg(name), name)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(5.0, Departure("b"))
        queue.push(1.0, Departure("a"))
        queue.push(3.0, Departure("c"))
        times = [queue.pop()[0] for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_ties_pop_in_submission_order(self):
        queue = EventQueue()
        first = queue.push(2.0, Departure("first"))
        second = queue.push(2.0, Departure("second"))
        assert second == first + 1
        assert queue.pop()[2] == Departure("first")
        assert queue.pop()[2] == Departure("second")

    def test_peek_and_last_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert queue.last_time() is None
        queue.push(4.0, Recheck())
        queue.push(9.0, Recheck())
        assert queue.peek_time() == 4.0
        assert queue.last_time() == 9.0
        assert len(queue) == 2 and bool(queue)


class TestEventLoop:
    def test_rejects_scheduling_in_the_past(self):
        loop = EventLoop()
        loop.clock.tick(10.0)
        with pytest.raises(ValueError, match="cannot schedule"):
            loop.schedule(5.0, Recheck())

    @pytest.mark.parametrize("at", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_times(self, at):
        """A NaN head never satisfies ``head <= t`` and would wedge
        ``run_until`` for every later event."""
        loop = EventLoop()
        with pytest.raises(ValueError, match="non-finite"):
            loop.schedule(at, Recheck())
        loop.schedule(5.0, Departure("valid"))
        seen = []
        assert loop.run_until(10.0, lambda t, seq, p: seen.append(t)) == 1
        assert seen == [5.0]

    def test_rejects_running_backwards(self):
        loop = EventLoop()
        loop.clock.tick(10.0)
        with pytest.raises(ValueError, match="cannot run"):
            loop.run_until(5.0, lambda *a: None)

    def test_clock_lands_exactly_on_target(self):
        loop = EventLoop()
        loop.schedule(3.0, Recheck())
        loop.run_until(7.5, lambda *a: None)
        assert loop.now_s == 7.5

    def test_recheck_ticks_interleave_after_same_time_events(self):
        loop = EventLoop(recheck_period_s=10.0)
        loop.schedule(10.0, Departure("at-tick-time"))
        loop.schedule(25.0, Departure("later"))
        seen = []
        loop.run_until(30.0, lambda t, seq, p: seen.append((t, type(p).__name__)))
        assert seen == [
            (10.0, "Departure"),  # heap events beat the tick at t=10
            (10.0, "Recheck"),
            (20.0, "Recheck"),
            (25.0, "Departure"),
            (30.0, "Recheck"),
        ]

    def test_clock_advances_monotonically_through_handlers(self):
        loop = EventLoop()
        loop.schedule(2.0, Recheck())
        loop.schedule(6.0, Recheck())
        times = []
        loop.run_until(8.0, lambda t, seq, p: times.append(loop.now_s))
        assert times == [2.0, 6.0]


class TestWarehouseJob:
    def test_lc_requires_schedule(self):
        with pytest.raises(ValueError, match="needs a load schedule"):
            WarehouseJob(make_lc("a"), "a")

    def test_bg_refuses_schedule(self):
        with pytest.raises(ValueError, match="does not take"):
            WarehouseJob(make_bg("b"), "b", LoadSchedule.constant(0.5))

    def test_load_clamped_into_probe_range(self):
        job = WarehouseJob.lc(
            make_lc("a"), LoadSchedule.steps([(0.0, 0.0), (10.0, 1.4)]), "a"
        )
        assert job.load_at(0.0) == pytest.approx(0.01)
        assert job.load_at(10.0) == pytest.approx(1.0)
        assert bg_job("b").load_at(5.0) is None

    def test_float_becomes_constant_schedule(self):
        job = lc_job("a", 0.4)
        assert job.load_at(0.0) == job.load_at(1e6) == pytest.approx(0.4)


class TestMigrationModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationModel(cost_s=-1.0)
        with pytest.raises(ValueError):
            MigrationModel(max_evictions_per_check=0)

    def test_victim_prefers_bg_then_lightest_lc(self, mini_server):
        from repro.cluster.state import ClusterNode, JobRequest

        lc_heavy = JobRequest(make_lc("heavy"), 0.9, name="heavy")
        lc_light = JobRequest(make_lc("light"), 0.2, name="light")
        bg = JobRequest(make_bg("noise"), name="noise")
        model = MigrationModel()
        node = ClusterNode(0, mini_server, [lc_heavy, lc_light, bg])
        assert model.select_victim(node, 0.0).request_name == "noise"
        node = ClusterNode(0, mini_server, [lc_heavy, lc_light])
        assert model.select_victim(node, 0.0).request_name == "light"
        node = ClusterNode(0, mini_server, [lc_heavy])
        assert model.select_victim(node, 0.0) is None


class TestQuickProbe:
    def test_bg_only_node_always_passes(self, mini_server):
        from repro.cluster.state import ClusterNode, JobRequest

        node = ClusterNode(0, mini_server, [JobRequest(make_bg("b"), name="b")])
        assert QuickProbe().check(node, seed=0)

    def test_infeasible_pair_rejected_feasible_singles_pass(self, mini_server):
        from repro.cluster.state import ClusterNode, JobRequest

        probe = QuickProbe()

        def node_of(loads):
            requests = [
                JobRequest(
                    make_lc(f"w{i}", qos_latency_ms=6.0), load, name=f"w{i}"
                )
                for i, load in enumerate(loads)
            ]
            return ClusterNode(0, mini_server, requests)

        assert probe.check(node_of([1.0]), seed=0)
        assert probe.check(node_of([0.85]), seed=0)
        assert not probe.check(node_of([1.0, 0.85]), seed=0)


def _per_candidate_quick_check(node_state, seed):
    """Reference quick probe: each boosted candidate projected on its own.

    Returns ``(verdict, truths)`` where ``truths`` counts the distinct
    candidates whose noise-free truth was evaluated.
    """
    from repro.resources import Configuration
    from repro.resources.allocation import _round_column

    node = node_state.build_node(seed=seed)
    if not node.lc_indices:
        return True, 0
    space = node.space
    configs = [space.equal_partition()]
    for boost in QuickProbe.BOOSTS:
        weights = np.array(
            [
                boost * (0.15 + job.load.load_at(0.0))
                if job.is_lc and job.load is not None
                else 1.0
                for job in node.jobs
            ]
        )
        cube = np.repeat(weights, space.n_resources)
        peak = float(cube.max())
        if peak > 0:
            cube = cube / peak
        vec = cube.reshape(space.n_jobs, space.n_resources)
        matrix = np.empty((space.n_jobs, space.n_resources), dtype=int)
        for r, resource in enumerate(space.spec.resources):
            matrix[:, r] = _round_column(vec[:, r], resource.units)
        configs.append(Configuration.from_matrix(matrix))
    tried = set()
    for config in configs:
        if config.flat() in tried:
            continue
        tried.add(config.flat())
        if node.true_performance(config).all_qos_met:
            return True, len(tried)
    return False, len(tried)


def _seeded_tailbench_nodes(count, seed):
    """Random Tailbench/PARSEC co-locations on the paper's testbed."""
    from repro.cluster.state import ClusterNode, JobRequest
    from repro.resources import default_server
    from repro.workloads.parsec import BG_NAMES, bg_workload
    from repro.workloads.tailbench import LC_NAMES, lc_workload

    server = default_server()
    rng = np.random.default_rng(seed)
    nodes = []
    for index in range(count):
        requests = []
        for slot in range(int(rng.integers(1, 6))):
            if rng.random() < 0.7:
                name = LC_NAMES[int(rng.integers(len(LC_NAMES)))]
                load = round(float(rng.uniform(0.05, 1.0)), 3)
                requests.append(
                    JobRequest(
                        lc_workload(name, server), load, name=f"{name}-{slot}"
                    )
                )
            else:
                name = BG_NAMES[int(rng.integers(len(BG_NAMES)))]
                requests.append(
                    JobRequest(bg_workload(name), name=f"{name}-{slot}")
                )
        nodes.append(ClusterNode(index, server, requests))
    return nodes


class TestQuickProbeEquivalence:
    def test_verdicts_and_truths_match_per_candidate_projection(self):
        from repro.telemetry import MetricRegistry

        telemetry = Telemetry.enabled()
        truths = telemetry.metrics.counter("warehouse.probe.truths")
        probe = QuickProbe()
        probe.attach(None, telemetry)
        got, want = [], []
        for seed, node in enumerate(_seeded_tailbench_nodes(60, seed=14)):
            before = truths.value
            verdict = probe.check(node, seed=seed)
            got.append((verdict, int(truths.value - before)))
            want.append(_per_candidate_quick_check(node, seed))
        assert got == want
        # The set exercises admits, rejects, the early return and the
        # dedupe (a reject that evaluated fewer than five candidates).
        assert {verdict for verdict, _ in want} == {True, False}
        assert any(v and n > 1 for v, n in want)
        assert any(not v and n < 1 + len(QuickProbe.BOOSTS) for v, n in want)


def _reference_candidates(node):
    """The boosted candidates as one ``(len(BOOSTS), n_dims)`` array, the
    way the quick probe built them before it projected them one by one:
    each job's weight once per resource, over the row's peak."""
    base = [
        0.15 + job.load.load_at(node.clock_s)
        if job.is_lc and job.load is not None
        else None
        for job in node.jobs
    ]
    rows = []
    for boost in QuickProbe.BOOSTS:
        weights = [1.0 if b is None else boost * b for b in base]
        peak = max(weights)
        rows.append(
            [w / peak for w in weights for _ in range(node.space.n_resources)]
        )
    return np.array(rows)


def _reference_configs(node):
    """The equal partition, then the old 4-row batch's projections."""
    from repro.resources import Configuration

    boosted = node.space.from_unit_cube_batch(_reference_candidates(node))
    return [node.space.equal_partition()] + [
        Configuration.from_matrix(m) for m in boosted.tolist()
    ]


class TestQuickProbeCandidateStream:
    """The lazy candidate stream against the old 4-row batch."""

    @staticmethod
    def _distinct(configs):
        seen = []
        for config in configs:
            if config not in seen:
                seen.append(config)
        return seen

    @pytest.mark.parametrize(
        "nodes",
        [
            lambda: _seeded_tailbench_nodes(80, seed=31),
            lambda: _heterogeneous_nodes(60, seed=32),
        ],
        ids=["tailbench", "heterogeneous"],
    )
    def test_same_distinct_configs_in_the_same_order(self, nodes, monkeypatch):
        from repro.resources.allocation import ConfigurationSpace

        projected = []
        original = ConfigurationSpace.from_unit_cube

        def counting(space, x):
            projected.append(1)
            return original(space, x)

        monkeypatch.setattr(ConfigurationSpace, "from_unit_cube", counting)
        probe = QuickProbe()
        skipped = 0
        for seed, node_state in enumerate(nodes()):
            node = node_state.build_node(seed=seed)
            if not node.lc_indices:
                continue
            projected.clear()
            stream = list(probe._configs(node))
            reference = _reference_configs(node)
            assert self._distinct(stream) == self._distinct(reference)
            # One projection per distinct normalised weight row.
            assert len(projected) == len(stream) - 1 <= len(QuickProbe.BOOSTS)
            skipped += len(reference) - len(stream)
        assert skipped > 0  # all-LC nodes repeat their boosted row

    def test_same_truths_count_as_the_batch(self):
        answers = _quick_answers(_seeded_tailbench_nodes(80, seed=33))
        want = []
        for seed, node_state in enumerate(_seeded_tailbench_nodes(80, seed=33)):
            node = node_state.build_node(seed=seed)
            if not node.lc_indices:
                want.append((True, 0))
                continue
            tried = set()
            for config in _reference_configs(node):
                if config.flat() in tried:
                    continue
                tried.add(config.flat())
                if node.qos_met(config):
                    break
            else:
                want.append((False, len(tried)))
                continue
            want.append((True, len(tried)))
        assert answers == want


class _TruthQuickProbe(QuickProbe):
    """Reference quick probe: each candidate judged by a whole noise-free
    observation (``Node.true_performance(...).all_qos_met``)."""

    def check(self, node_state, seed):
        node = node_state.build_node(seed=seed if seed is not None else self.seed)
        if not node.lc_indices:
            return True
        tried = set()
        for config in _reference_configs(node):
            if config.flat() in tried:
                continue
            tried.add(config.flat())
            self._telemetry.metrics.counter("warehouse.probe.truths").add()
            if node.true_performance(config).all_qos_met:
                return True
        return False


class _UnmemoisedQuickProbe(QuickProbe):
    """The quick probe with the service's verdict memo turned off."""

    def memo_key(self, node_state, seed):
        return None


def _quick_churn(probe_cls=None):
    """Play a dense churn stream; ``probe_cls`` (when given) replaces
    every shard's probe.

    Returns the routing log, the shard timelines, the placements, the
    status and the ``verify.nodes``, ``probe.truths``,
    ``probe.memo.hits`` and ``probe.memo.misses`` totals.
    """
    telemetry = Telemetry.enabled()
    events = synthesize(ScenarioConfig(n_jobs=90, duration_s=500.0, seed=16))
    with WarehouseFederation(
        2, 5, recheck_period_s=60.0, seed=16, telemetry=telemetry
    ) as fed:
        if probe_cls is not None:
            for shard in fed.shards:
                shard.probe = probe_cls()
                shard.probe.attach(None, telemetry)
        load_into(fed, events)
        status = fed.run_to_completion()
        return (
            fed.routed,
            [shard.timeline for shard in fed.shards],
            fed.placements(),
            status,
            *(
                _counter_total(telemetry, name)
                for name in (
                    "warehouse.verify.nodes",
                    "warehouse.probe.truths",
                    "warehouse.probe.memo.hits",
                    "warehouse.probe.memo.misses",
                )
            ),
        )


class TestQuickProbeChurnReplay:
    def test_verdict_probe_replays_the_truth_probe(self):
        got = _quick_churn()
        want = _quick_churn(_TruthQuickProbe)
        assert got == want
        _, _, _, status, checks, truths, _, _ = want
        # Dense enough that the boosted candidates and rejections matter.
        assert status["rejections"] > 0
        assert truths > checks > 0


def _digest(value):
    """First 16 hex digits of the sha256 of ``repr(value)``."""
    import hashlib

    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _heterogeneous_nodes(count, seed):
    """Random Tailbench/PARSEC co-locations over five server shapes.

    The shapes differ in resource count and capacities (all six Table 1
    resources, a 6-unit box, core-heavy and cache-heavy variants and
    the testbed), and each LC workload is calibrated on the spec it
    lands on.
    """
    from repro.cluster.state import ClusterNode, JobRequest
    from repro.resources import (
        Resource,
        ServerSpec,
        default_server,
        full_server,
        small_server,
    )
    from repro.resources.spec import CORES, LLC_WAYS, MEMORY_BANDWIDTH
    from repro.workloads.parsec import BG_NAMES, bg_workload
    from repro.workloads.tailbench import LC_NAMES, lc_workload

    def shape(cores, ways, bandwidth):
        return ServerSpec(
            resources=(
                Resource(CORES, cores),
                Resource(LLC_WAYS, ways),
                Resource(MEMORY_BANDWIDTH, bandwidth),
            )
        )

    specs = (
        full_server(),
        small_server(units=6, n_resources=3),
        shape(14, 16, 8),
        shape(8, 20, 12),
        default_server(),
    )
    rng = np.random.default_rng(seed)
    nodes = []
    for index in range(count):
        spec = specs[int(rng.integers(len(specs)))]
        requests = []
        for slot in range(int(rng.integers(1, min(6, spec.max_jobs()) + 1))):
            if rng.random() < 0.7:
                name = LC_NAMES[int(rng.integers(len(LC_NAMES)))]
                load = round(float(rng.uniform(0.05, 1.0)), 3)
                requests.append(
                    JobRequest(lc_workload(name, spec), load, name=f"{name}-{slot}")
                )
            else:
                name = BG_NAMES[int(rng.integers(len(BG_NAMES)))]
                requests.append(
                    JobRequest(bg_workload(name), name=f"{name}-{slot}")
                )
        nodes.append(ClusterNode(index, spec, requests))
    return nodes


def _quick_answers(nodes):
    """``(verdict, truths evaluated)`` of one QuickProbe per node."""
    telemetry = Telemetry.enabled()
    truths = telemetry.metrics.counter("warehouse.probe.truths")
    probe = QuickProbe()
    probe.attach(None, telemetry)
    answers = []
    for seed, node in enumerate(nodes):
        before = truths.value
        verdict = probe.check(node, seed=seed)
        answers.append((verdict, int(truths.value - before)))
    return answers


class TestQuickProbePinned:
    """Quick-probe answers pinned as digests recorded before the probe's
    fast paths (shared configuration spaces, requests that carry their
    job, one-pass rounding, lazily seeded counters) landed.

    The equivalence tests above compare against references built through
    the same ``build_node`` and rounding code, so a regression both paths
    share passes them; these digests do not move with the code.
    """

    def test_tailbench_answers(self):
        answers = _quick_answers(_seeded_tailbench_nodes(200, seed=22))
        assert {verdict for verdict, _ in answers} == {True, False}
        assert _digest(answers) == "a7fb7460e679bc82"

    def test_heterogeneous_spec_answers(self):
        answers = _quick_answers(_heterogeneous_nodes(120, seed=23))
        assert {verdict for verdict, _ in answers} == {True, False}
        assert _digest(answers) == "f9d34335973d60dc"

    def test_churn_outcome(self):
        routed, timelines, placements, status, *counts = _quick_churn()
        checks, truths, hits, misses = counts
        assert status["rejections"] > 0
        # 546 truths before the service memoised verdicts: memo hits
        # evaluate none, and every check is a hit or a miss.
        assert (checks, truths) == (192, 454)
        assert hits + misses == checks and hits > 0
        assert _digest((routed, timelines, placements)) == "fae15b51d999bdc2"

    def test_churn_outcome_without_the_memo(self):
        routed, timelines, placements, status, *counts = _quick_churn(
            _UnmemoisedQuickProbe
        )
        assert counts == [192, 546, 0, 0]
        assert _digest((routed, timelines, placements)) == "fae15b51d999bdc2"


class TestProbeLeavesNoTrace:
    """A probe that does not commit leaves no trace.

    Around each probe call the probe object's attributes, the service
    (see :func:`conftest.service_trace`) and every node's requests must
    read the same before and after.  The observation store and the
    service's verdict memo are the sanctioned exceptions: they may gain
    entries, but only replay-invariant ones, so a repeat of the call
    adds nothing and a fresh store or service replaying it gains the
    same entries (the memo's side is :class:`TestVerdictMemo`).
    """

    def _service(self, mini_server, probe="quick", store=None):
        """One node hosting ``w0`` at full load, QoS 6 ms: ``x`` at
        load 0.3 fits beside it, at 0.85 it does not."""
        service = WarehouseService(
            1,
            spec=mini_server,
            probe=probe,
            engine_config=FAST_ENGINE,
            max_jobs_per_node=3,
            store=store,
        )
        service.submit(lc_job("w0", 1.0, qos_latency_ms=6.0), at=1.0)
        service.run_until(1.0)
        assert service.placements() == {"w0": 0}
        return service

    @staticmethod
    def _tentative(service, load):
        from repro.cluster.state import JobRequest

        request = JobRequest(make_lc("x", qos_latency_ms=6.0), load, name="x")
        return service.cluster.nodes[0].with_request(request)

    @staticmethod
    def _trace(service):
        return dict(vars(service.probe)), service_trace(service)

    @staticmethod
    def _records(store):
        return dict(store._entries), dict(store._verdicts)

    @pytest.mark.parametrize("load,admits", [(0.3, True), (0.85, False)])
    def test_quick_check(self, mini_server, load, admits):
        service = self._service(mini_server)
        tentative = self._tentative(service, load)
        before = self._trace(service)
        assert service.probe.check(tentative, service.seed) is admits
        assert self._trace(service) == before

    def test_clite_check_with_a_store(self, mini_server, tmp_path):
        with ObservationStore(tmp_path / "obs.jsonl") as store:
            service = self._service(mini_server, probe="clite", store=store)
            tentative = self._tentative(service, 0.3)
            before = self._trace(service)
            answer = service.probe.check(tentative, service.seed)
            assert self._trace(service) == before
            records = self._records(store)
            assert records[1]  # the verdict was memoised
            # Replay-invariant: a repeat answers alike and adds nothing.
            assert service.probe.check(tentative, service.seed) == answer
            assert self._trace(service) == before
            assert self._records(store) == records
        with ObservationStore(tmp_path / "fresh.jsonl") as fresh:
            replay = CLITEProbe(FAST_ENGINE)
            replay.attach(fresh, None)
            assert replay.check(tentative, service.seed) == answer
            assert self._records(fresh) == records

    @pytest.mark.parametrize("load,target", [(0.3, 0), (0.85, None)])
    def test_probe_admit(self, mini_server, load, target):
        service = self._service(mini_server)
        before = self._trace(service)
        found, plan, verified = service.probe_admit(
            lc_job("x", load, qos_latency_ms=6.0), 1.0
        )
        assert (found, verified) == (target, (0,))
        assert (plan is None) == (target is None)
        assert self._trace(service) == before


class _ProbeFault(RuntimeError):
    """What :class:`_ScriptedProbe` raises."""


class _ScriptedProbe(AdmissionProbe):
    """Answers from ``script``, keyed by the probed node's job names:
    True, False, or an exception to raise; job sets it does not name
    are admitted.  ``asked`` lists every job set probed, in order."""

    def __init__(self):
        self.script = {}
        self.asked = []

    def check(self, node_state, seed):
        names = frozenset(node_state.job_names())
        self.asked.append(names)
        answer = self.script.get(names, True)
        if isinstance(answer, Exception):
            raise answer
        return answer


class TestFaultLeavesNoTrace:
    """A probe that raises mid-event leaves the books as they were.

    ``run_until`` still raises.  Afterwards :func:`conftest.service_trace`
    equals the snapshot taken before the event, except for ``status()``'s
    ``time_s`` and ``pending_events`` (the clock moved and the event left
    the queue), and :func:`conftest.books_consistent` holds.
    """

    @staticmethod
    def _trace(service):
        trace = service_trace(service)
        status = dict(trace[2])
        del status["time_s"], status["pending_events"]
        return trace[:2] + (status,) + trace[3:]

    def _fault(self, service, at):
        before = self._trace(service)
        with pytest.raises(_ProbeFault):
            service.run_until(at)
        assert self._trace(service) == before
        books_consistent(service)

    def test_departure_whose_migration_probe_raises(self):
        """Cap 3: A, B and C on node 0, D on node 1.  C departs, node 0
        fails its re-check, A is evicted, and the probe of node 1 raises
        while A is being migrated."""
        probe = _ScriptedProbe()
        service = WarehouseService(3, probe=probe, max_jobs_per_node=3)
        for at, (name, load) in enumerate(
            (("A", 0.2), ("B", 0.5), ("C", 0.3), ("D", 0.3)), start=1
        ):
            service.submit(lc_job(name, load), at=float(at))
        service.run_until(4.0)
        assert service.placements() == {"A": 0, "B": 0, "C": 0, "D": 1}
        probe.script = {
            frozenset("AB"): False,
            frozenset("DA"): _ProbeFault("node 1"),
        }
        service.depart("C", at=5.0)
        self._fault(service, 5.0)
        assert probe.asked[-2:] == [frozenset("AB"), frozenset("DA")]

    def test_arrival_whose_probe_raises(self):
        probe = _ScriptedProbe()
        service = WarehouseService(2, probe=probe)
        service.submit(lc_job("A", 0.3), at=1.0)
        service.run_until(1.0)
        probe.script = {frozenset("AB"): _ProbeFault("node 0")}
        service.submit(lc_job("B", 0.3), at=2.0)
        self._fault(service, 2.0)

    def test_recheck_that_raises_after_planning_a_migration(self):
        """P's load steps up at t=15, so the t=20 tick re-checks node 0:
        it fails, BG job B is planned onto Q's node 1, and the re-check
        of P alone raises."""
        probe = _ScriptedProbe()
        service = WarehouseService(3, probe=probe, recheck_period_s=10.0)
        ramp = WarehouseJob.lc(
            make_lc("P"), LoadSchedule.steps([(0.0, 0.2), (15.0, 0.4)]), "P"
        )
        probe.script = {frozenset("PBQ"): False}
        service.submit(ramp, at=1.0)
        service.submit(bg_job("B"), at=2.0)
        service.submit(lc_job("Q", 0.3), at=3.0)
        service.run_until(15.0)
        assert service.placements() == {"P": 0, "B": 0, "Q": 1}
        probe.script = {
            frozenset("PB"): False,
            frozenset("P"): _ProbeFault("node 0 after the eviction"),
        }
        self._fault(service, 20.0)
        assert probe.asked[-3:] == [
            frozenset("PB"), frozenset("QB"), frozenset("P")
        ]


class _RejectingQuickProbe(QuickProbe):
    """Rejects every job set, under the same memo keys as its parent."""

    def check(self, node_state, seed):
        return False


class TestVerdictMemo:
    """The service's verdict memo, the second sanctioned write on a probe
    path after the store: replay-invariant, exact and bounded.

    Every service here runs one mini-server node hosting ``w0`` at full
    load (QoS 6 ms); ``x`` at load 0.3 fits beside it, ``y`` at 0.85
    does not.
    """

    @staticmethod
    def _jobs():
        return (
            lc_job("w0", 1.0, qos_latency_ms=6.0),
            lc_job("x", 0.3, qos_latency_ms=6.0),
            lc_job("y", 0.85, qos_latency_ms=6.0),
        )

    @staticmethod
    def _service(mini_server, w0):
        telemetry = Telemetry.enabled()
        service = WarehouseService(
            1, spec=mini_server, max_jobs_per_node=3, telemetry=telemetry
        )
        service.submit(w0, at=1.0)
        service.run_until(1.0)
        assert service.placements() == {"w0": 0}
        return service

    @staticmethod
    def _admit(service, *jobs):
        return [service.probe_admit(job, 1.0)[0] for job in jobs]

    @staticmethod
    def _entries(service):
        """The memo with its first key item, the probe, checked and dropped."""
        assert all(key[0] is service.probe for key in service._verdicts)
        return {key[1:]: value for key, value in service._verdicts.items()}

    @staticmethod
    def _memo_counts(service):
        return tuple(
            _counter_total(service.telemetry, f"warehouse.probe.memo.{name}")
            for name in ("hits", "misses")
        )

    def test_repeat_probe_adds_no_entries(self, mini_server):
        w0, x, y = self._jobs()
        service = self._service(mini_server, w0)
        assert self._admit(service, x, y) == [0, None]
        entries = self._entries(service)
        assert len(entries) == 2
        assert self._memo_counts(service) == (0, 2)
        # A renamed twin of x asks the same question: names are not keyed.
        twin = WarehouseJob.lc(x.workload, 0.3, "x-twin")
        assert self._admit(service, x, y, twin) == [0, None, 0]
        assert self._entries(service) == entries
        assert self._memo_counts(service) == (3, 2)

    def test_fresh_service_gains_identical_entries(self, mini_server):
        w0, x, y = self._jobs()
        first = self._service(mini_server, w0)
        second = self._service(mini_server, w0)
        assert self._admit(first, x, y) == self._admit(second, x, y)
        assert self._entries(first) == self._entries(second)

    def test_replaced_probe_never_serves_old_verdicts(self, mini_server):
        w0, x, _ = self._jobs()
        service = self._service(mini_server, w0)
        assert self._admit(service, x) == [0]
        service.probe = _RejectingQuickProbe()
        assert self._admit(service, x) == [None]
        service.probe = QuickProbe()
        assert self._admit(service, x) == [0]
        assert len(service._verdicts) == 3
        assert self._memo_counts(service) == (0, 3)

    def test_full_memo_stops_inserting(self, mini_server, monkeypatch):
        monkeypatch.setattr(WarehouseService, "VERDICT_MEMO_MAX_ENTRIES", 1)
        w0, x, y = self._jobs()
        service = self._service(mini_server, w0)
        assert self._admit(service, x, y, x, y) == [0, None, 0, None]
        # x's entry went in first and stays; y is asked afresh each time.
        assert [value[0] for value in service._verdicts.values()] == [True]
        assert self._memo_counts(service) == (1, 3)


def _renamed(node):
    """``node`` under another index, with every request renamed."""
    from repro.cluster.state import ClusterNode, JobRequest

    return ClusterNode(
        node.index + 1000,
        node.spec,
        [
            JobRequest(r.workload, r.load, name=f"other-{k}")
            for k, r in enumerate(node.requests)
        ],
    )


class TestQuickProbeMemoKey:
    @pytest.mark.parametrize(
        "make_nodes,seed",
        [(_seeded_tailbench_nodes, 41), (_heterogeneous_nodes, 42)],
        ids=["tailbench", "heterogeneous"],
    )
    def test_equal_keys_mean_equal_verdicts(self, make_nodes, seed):
        probe = QuickProbe(seed=0)
        verdicts = {}
        for node in make_nodes(60, seed=seed):
            key = probe.memo_key(node, 0)
            # Names, the node index and an unset seed (the probe's own
            # seed, 0) leave the key unchanged; another seed does not.
            assert probe.memo_key(_renamed(node), None) == key
            assert probe.memo_key(node, 1) != key
            verdicts.setdefault(key, set()).update(
                (probe.check(node, 0), probe.check(_renamed(node), None))
            )
        assert all(len(answers) == 1 for answers in verdicts.values())
        assert set().union(*verdicts.values()) == {True, False}


class TestServiceBasics:
    def test_admit_then_status(self, mini_server):
        service = WarehouseService(4, spec=mini_server)
        service.submit(lc_job("a", 0.4), at=1.0)
        service.submit(bg_job("b"), at=2.0)
        service.run_until(5.0)
        status = service.status()
        assert status["admitted"] == 2
        assert status["jobs_running"] == 2
        assert status["lc_jobs"] == 1 and status["bg_jobs"] == 1
        assert service.has_job("a") and service.jobs_running == 2

    def test_duplicate_name_rejected(self, mini_server):
        service = WarehouseService(4, spec=mini_server)
        service.submit(bg_job("same"), at=1.0)
        service.submit(bg_job("same"), at=2.0)
        service.run_until(3.0)
        assert service.status()["rejections"] == 1
        rejects = [e for e in service.timeline if e.kind == "reject"]
        assert rejects[0].detail == "duplicate-name"

    def test_capacity_rejection(self, mini_server):
        service = WarehouseService(1, spec=mini_server, max_jobs_per_node=1)
        service.submit(bg_job("a"), at=1.0)
        service.submit(bg_job("b"), at=2.0)
        service.run_until(3.0)
        assert service.placements() == {"a": 0}
        assert service.status()["rejections"] == 1

    def test_departure_frees_node_for_reuse(self, mini_server):
        service = WarehouseService(2, spec=mini_server, max_jobs_per_node=1)
        service.submit(bg_job("a"), at=1.0)
        service.submit(bg_job("b"), at=2.0)
        service.depart("a", at=3.0)
        service.submit(bg_job("c"), at=4.0)
        service.run_until(5.0)
        # Node 0 was freed by a's departure and immediately reused.
        assert service.placements() == {"b": 1, "c": 0}
        assert service.status()["departures"] == 1
        assert service.cluster.machines_used() == 2

    def test_unknown_departure_is_recorded_not_fatal(self, mini_server):
        service = WarehouseService(2, spec=mini_server)
        service.depart("ghost", at=1.0)
        service.run_until(2.0)
        departs = [e for e in service.timeline if e.kind == "depart"]
        assert departs[0].detail == "unknown"


class TestMigrationAccounting:
    def _ramping_service(self, mini_server, cost_s=7.5):
        """One node holding a ramping LC pair that must split at t=50."""
        service = WarehouseService(
            3,
            spec=mini_server,
            recheck_period_s=30.0,
            migration=MigrationModel(cost_s=cost_s),
        )
        ramp = WarehouseJob.lc(
            make_lc("rampy", qos_latency_ms=6.0),
            LoadSchedule.steps([(0.0, 0.2), (50.0, 1.0)]),
            "ramp",
        )
        steady = lc_job("steady", 0.85, qos_latency_ms=6.0)
        service.submit(ramp, at=0.0)
        service.submit(steady, at=1.0)
        return service

    def test_failed_recheck_migrates_and_charges_cost(self, mini_server):
        service = self._ramping_service(mini_server)
        service.run_until(40.0)
        # Before the ramp: co-located, nothing moved.
        assert service.placements() == {"ramp": 0, "steady": 0}
        assert service.migration_cost_s == 0.0
        service.run_until(100.0)
        # The t=60 re-check saw (1.0, 0.85) fail and moved the lighter
        # LC job to a fresh machine, charging exactly one migration.
        assert service.placements() == {"ramp": 0, "steady": 1}
        records = service.migrations
        assert len(records) == 1
        record = records[0]
        assert record.succeeded
        assert (record.job, record.from_node, record.to_node) == ("steady", 0, 1)
        assert record.cost_s == pytest.approx(7.5)
        assert service.migration_cost_s == pytest.approx(7.5)
        status = service.status()
        assert status["migrations"] == 1
        assert status["dropped"] == 0
        kinds = [e.kind for e in service.timeline]
        assert "migrate" in kinds and "violation" not in kinds

    def test_unchanged_loads_skip_reverification(self, mini_server):
        service = self._ramping_service(mini_server)
        service.run_until(45.0)
        # The t=30 tick found the loads unchanged since admission and
        # verified nothing (detail says checked=0).
        recheck = [e for e in service.timeline if e.kind == "recheck"][0]
        assert recheck.detail == "checked=0 failed=0"
        assert recheck.verified == ()


class TestDeterminism:
    def test_synthesize_is_a_pure_function_of_config(self):
        config = ScenarioConfig(n_jobs=25, duration_s=300.0, seed=11)
        assert synthesize(config) == synthesize(config)
        other = ScenarioConfig(n_jobs=25, duration_s=300.0, seed=12)
        assert synthesize(other) != synthesize(config)

    def test_same_seed_runs_are_bit_identical(self):
        config = ScenarioConfig(n_jobs=60, duration_s=500.0, seed=5)
        runs = []
        for _ in range(2):
            service = WarehouseService(40, recheck_period_s=60.0, seed=5)
            load_into(service, synthesize(config))
            status = service.run_to_completion()
            runs.append(
                (service.timeline, service.placements(),
                 service.migrations, status)
            )
        assert runs[0] == runs[1]
        # The scenario actually exercised the service.
        timeline, placements, _, status = runs[0]
        assert status["arrivals"] == 60
        assert status["admitted"] > 0 and status["departures"] > 0
        assert len(timeline) >= 60

    def test_mutating_returned_snapshots_cannot_perturb_replay(self):
        """RPL903's contract, end to end: ``status()``/``placements()``
        hand out defensive copies, so trashing them mid-run leaves the
        rest of the replay bit-identical to an undisturbed one."""
        config = ScenarioConfig(n_jobs=60, duration_s=500.0, seed=5)

        def run(disturb):
            service = WarehouseService(40, recheck_period_s=60.0, seed=5)
            load_into(service, synthesize(config))
            if disturb:
                service.run_until(250.0)
                status = service.status()
                placements = service.placements()
                status.clear()
                status["jobs_running"] = -1
                placements.clear()
                placements["ghost"] = 99
            final = service.run_to_completion()
            return (
                service.timeline,
                service.placements(),
                service.migrations,
                final,
            )

        assert run(disturb=False) == run(disturb=True)


class TestIncrementalVerification:
    """Only displaced nodes are re-verified, observed via real counters."""

    def _verified_nodes(self, telemetry):
        nodes = set()
        for series, value in telemetry.snapshot().counters.items():
            name, labels = parse_series(series)
            if name == "cluster.verify.samples" and value > 0:
                nodes.add(int(labels["node"]))
        return nodes

    def test_only_displaced_nodes_probed(self, mini_server, tmp_path):
        clock = SimulatedClock()
        telemetry = Telemetry.enabled(clock=clock)
        with ObservationStore(tmp_path / "obs.jsonl") as store:
            service = WarehouseService(
                3,
                spec=mini_server,
                probe="clite",
                engine_config=FAST_ENGINE,
                max_jobs_per_node=2,
                clock=clock,
                telemetry=telemetry,
                store=store,
            )
            service.submit(lc_job("a", 0.3), at=1.0)  # empty node 0: no probe
            service.submit(lc_job("b", 0.3), at=2.0)  # probes node 0 only
            service.submit(lc_job("c", 0.3), at=3.0)  # node 0 full: node 1
            service.depart("a", at=4.0)  # re-verifies survivor on node 0
            service.run_until(5.0)
            assert service.placements() == {"b": 0, "c": 1}
            # Only node 0 ever gained a job alongside existing ones (or
            # lost one): it alone was BO-verified.  Empty-node admits
            # ("a" on 0, "c" on 1) are structural, and node 2 was never
            # sampled at all.
            assert self._verified_nodes(telemetry) == {0}
            per_event = {
                (e.kind, e.job): e.verified for e in service.timeline
            }
            assert per_event[("admit", "a")] == ()
            assert per_event[("admit", "b")] == (0,)
            assert per_event[("admit", "c")] == ()  # node 0 full: fresh node
            assert per_event[("depart", "a")] == (0,)
            cold_stats = store.stats()
            assert cold_stats.misses > 0

    def test_warm_store_makes_repeat_probes_cheap(self, mini_server, tmp_path):
        def run(store):
            telemetry = Telemetry.enabled()
            service = WarehouseService(
                2,
                spec=mini_server,
                probe="clite",
                engine_config=FAST_ENGINE,
                store=store,
                telemetry=telemetry,
            )
            service.submit(lc_job("a", 0.3), at=1.0)
            service.submit(lc_job("b", 0.3), at=2.0)
            service.run_until(3.0)
            return service.timeline, telemetry

        with ObservationStore(tmp_path / "obs.jsonl") as store:
            cold, _ = run(store)
            misses_after_cold = store.stats().misses
            warm, telemetry = run(store)
            stats = store.stats()
        assert cold == warm  # same decisions either way
        # The second run replayed stored verdicts: no BO run at all, and
        # every probe was a memo hit.
        probes = _counter_total(telemetry, "warehouse.verify.nodes")
        assert probes > 0
        assert _counter_total(telemetry, "engine.runs") == 0
        assert _counter_total(telemetry, "verify.memo.hits") == probes
        assert _counter_total(telemetry, "verify.memo.misses") == 0
        assert stats.misses == misses_after_cold  # and added no new physics

    def test_restarted_store_replays_the_storeless_timeline(
        self, mini_server, tmp_path
    ):
        """A seeded stream played through a store, then replayed through
        the reopened file, decides exactly like the same stream with no
        store at all."""
        events = [
            (1.0, lc_job("a", 0.3)),
            (2.0, lc_job("b", 0.4)),
            (3.0, bg_job("c")),
            (4.0, lc_job("d", 0.3)),
        ]

        def run(store):
            service = WarehouseService(
                2,
                spec=mini_server,
                probe="clite",
                engine_config=FAST_ENGINE,
                seed=5,
                store=store,
            )
            for at, job in events:
                service.submit(job, at=at)
            service.depart("b", at=5.0)
            service.run_until(6.0)
            return service.timeline, service.placements()

        reference = run(None)
        path = tmp_path / "obs.jsonl"
        with ObservationStore(path) as store:
            cold = run(store)
            verdicts = store.stats().verdicts
        with ObservationStore(path) as reopened:
            warm = run(reopened)
            replayed = reopened.stats()
        assert cold == reference
        assert warm == reference
        assert verdicts > 0
        assert replayed.verdict_hits > 0 and replayed.misses == 0


class CountingService(WarehouseService):
    """Counts effective-load computations: the incremental recheck's
    one-computation-per-visited-node contract, observed directly."""

    loads_calls = 0

    def _loads_of(self, plan, index):
        self.loads_calls += 1
        return super()._loads_of(plan, index)


class TestIncrementalRecheck:
    """The recheck walks volatile/dirty candidates, not the fleet, and
    computes each visited node's load vector exactly once."""

    def test_static_fleet_goes_quiet_after_one_tick(self):
        service = CountingService(6, recheck_period_s=10.0, seed=3)
        for i, name in enumerate(("a", "b", "c")):
            service.submit(lc_job(name, 0.2), at=1.0 + i)
        service.run_until(9.5)
        lc_nodes = set(service.placements().values())
        before = service.loads_calls
        service.run_until(10.5)
        # First tick after admission: every admission-dirtied node costs
        # one load computation, matches its verified vector, and drops
        # off the candidate list.
        assert service.loads_calls - before == len(lc_nodes)
        rechecks = [e for e in service.timeline if e.kind == "recheck"]
        assert rechecks and rechecks[-1].detail == "checked=0 failed=0"
        before = service.loads_calls
        service.run_until(30.5)
        # Constant loads leave nothing volatile and nothing dirty: later
        # ticks compute no load vectors at all (the pre-index recheck
        # recomputed one per used node, every tick, forever).
        assert service.loads_calls == before
        assert len([e for e in service.timeline if e.kind == "recheck"]) >= 3

    def test_phased_node_is_checked_with_one_load_computation(self):
        schedule = LoadSchedule.steps([(0.0, 0.2), (15.0, 0.35)])
        service = CountingService(4, recheck_period_s=10.0, seed=3)
        service.submit(
            WarehouseJob.lc(make_lc("p"), schedule, "p"), at=1.0
        )
        service.run_until(9.5)
        assert "p" in service.placements()
        before = service.loads_calls
        service.run_until(10.5)
        # t=10: the load still reads 0.2, equal to the vector verified
        # at admission — one computation, then skip.
        assert service.loads_calls - before == 1
        before = service.loads_calls
        service.run_until(20.5)
        # t=20: the phase shifted to 0.35, so the node is re-verified —
        # and the rebalance reuses the vector already in hand instead of
        # recomputing it.
        assert service.loads_calls - before == 1
        rechecks = [e for e in service.timeline if e.kind == "recheck"]
        assert rechecks[-1].detail == "checked=1 failed=0"


class TestTimelineCursor:
    """timeline_len/timeline_since: rolling readers see every entry
    exactly once, including entries later aged out of the ring."""

    def test_rolling_cursor_collects_every_entry_once(self, monkeypatch):
        import repro.warehouse.service as service_mod

        monkeypatch.setattr(service_mod, "TIMELINE_LIMIT", 8)
        service = WarehouseService(20, recheck_period_s=50.0, seed=2)
        load_into(
            service, synthesize(ScenarioConfig(n_jobs=30, duration_s=300.0, seed=2))
        )
        collected = []
        cursor = service.timeline_len
        assert cursor == 0
        for t in range(10, 640, 10):
            service.run_until(float(t))
            fresh = service.timeline_since(cursor)
            # Slices are fine-grained enough that nothing ages out
            # between reads — the invariant rolling reports rely on.
            assert len(fresh) < 8
            collected.extend(fresh)
            cursor = service.timeline_len
        assert service.timeline_len == len(collected) > 8
        assert tuple(collected[-8:]) == service.timeline
        # A zero cursor clamps to whatever the ring still holds.
        assert service.timeline_since(0) == service.timeline
        assert service.timeline_since(cursor) == ()


class IndexFreeService(WarehouseService):
    """The pre-index reference implementation: full-fleet candidate
    scans for admission and recheck, adapted only to the plan the
    indexed service stages each event in (nodes read through it, one
    ``_apply`` at the end).  The density-bucket service must stay
    bit-identical to it."""

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


class TestIndexEquivalence:
    """The density-bucket/dirty-set service replays bit-identically to
    the scan-everything reference across full scenarios."""

    @pytest.mark.parametrize("seed", [5, 11])
    def test_indexed_service_matches_full_scan_reference(self, seed):
        events = synthesize(
            ScenarioConfig(n_jobs=60, duration_s=500.0, seed=seed)
        )
        runs = []
        for cls in (WarehouseService, IndexFreeService):
            service = cls(40, recheck_period_s=60.0, seed=seed)
            load_into(service, events)
            status = service.run_to_completion()
            books_consistent(service)
            runs.append(
                (
                    service.timeline,
                    service.placements(),
                    service.migrations,
                    status,
                )
            )
        assert runs[0] == runs[1]
        status = runs[0][3]
        assert status["admitted"] > 0 and status["rechecks"] > 0


#: Path fragments of the scheduler's own code: event loop, admission,
#: migration, federation routing and the cluster books.  Node physics
#: and the BO core sit below them and cost the same per probe at any
#: fleet size.
_SCHEDULER_CODE = (
    os.path.join("repro", "warehouse", ""),
    os.path.join("repro", "cluster", ""),
)


def _scheduler_lines(run):
    """``run()``'s result and how many Python lines it executed in
    ``_SCHEDULER_CODE`` files, counted with ``sys.settrace``."""
    lines = 0
    watched = {}

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    def enter(frame, event, arg):
        code = frame.f_code
        hit = watched.get(code)
        if hit is None:
            hit = watched[code] = any(
                part in code.co_filename for part in _SCHEDULER_CODE
            )
        return count if hit else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, lines


class TestFleetSizeIndependence:
    """Per-event scheduler work must not grow with the fleet.

    One churn stream (LC and BG jobs, phased loads, departures, recheck
    ticks, quick probes) played on fleets 20x apart must take the same
    decisions and run the same number of scheduler source lines.  A
    whole-fleet scan anywhere under an event handler or ``status()``
    adds lines per extra node, whatever shape the scan takes."""

    N_NODES = (100, 2000)

    def _play(self, kind, n_nodes, events):
        if kind == "service":
            target = WarehouseService(n_nodes, recheck_period_s=30.0, seed=7)
        else:
            target = WarehouseFederation(
                2, n_nodes // 2, recheck_period_s=30.0, seed=7
            )
        load_into(target, events)
        horizon = max(event.time_s for event in events)

        def run():
            target.run_until(horizon)
            return target.status()

        status, lines = _scheduler_lines(run)
        if kind == "service":
            decisions = (target.timeline, target.placements())
        else:
            decisions = (
                target.routed,
                [shard.timeline for shard in target.shards],
                target.placements(),
            )
        return decisions, lines, status

    @pytest.mark.parametrize("kind", ["service", "federation"])
    def test_fleets_20x_apart_run_the_same_lines(self, kind):
        events = synthesize(
            ScenarioConfig(n_jobs=120, duration_s=300.0, seed=7)
        )
        (small, small_lines, status), (large, large_lines, _) = (
            self._play(kind, n_nodes, events) for n_nodes in self.N_NODES
        )
        assert small == large
        assert small_lines == large_lines > 0
        # The stream reaches every path a scan could hide in.
        assert status["arrivals"] == 120
        assert status["departures"] > 0 and status["migrations"] > 0
        shards = status["shards"] if kind == "federation" else [status]
        assert sum(shard["rechecks"] for shard in shards) > 0
        assert sum(shard["qos_checks"] for shard in shards) > 0
