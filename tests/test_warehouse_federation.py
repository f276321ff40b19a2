"""Sharded federation: routing policies, shared-store replay, scale."""

from __future__ import annotations

import pytest

from conftest import make_bg, make_lc, service_trace
from repro.core import CLITEConfig
from repro.server import ObservationStore
from repro.telemetry import Telemetry
from repro.telemetry.serve import parse_series
from repro.warehouse import (
    ScenarioConfig,
    WarehouseFederation,
    WarehouseJob,
    home_shard,
    load_into,
    synthesize,
)


#: Small engine budgets for full-CLITE probes in tests.
FAST_ENGINE = CLITEConfig(
    max_iterations=10,
    post_qos_iterations=3,
    refine_budget=5,
    confirm_top=1,
    n_restarts=3,
)


def bg_job(name):
    return WarehouseJob.bg(make_bg(name), name)


def lc_job(name, load):
    return WarehouseJob.lc(make_lc(name), load, name)


class TestConstruction:
    def test_rejects_unknown_routing(self):
        with pytest.raises(ValueError, match="unknown routing"):
            WarehouseFederation(2, 4, routing="hash-ring")

    def test_rejects_mismatched_stores(self):
        with pytest.raises(ValueError, match="stores"):
            WarehouseFederation(2, 4, stores=[None])

    def test_home_shard_is_stable_and_in_range(self):
        for name in ("a", "mc-123", "xapian-9"):
            home = home_shard(name, 3)
            assert 0 <= home < 3
            assert home == home_shard(name, 3)  # process-independent


class TestRouting:
    def test_round_robin_rotates_the_first_shard(self, mini_server):
        with WarehouseFederation(
            2, 4, routing="round-robin", spec=mini_server
        ) as fed:
            for i in range(4):
                fed.submit(bg_job(f"j{i}"), at=float(i + 1))
            fed.run_until(10.0)
            shards = [fed.placements()[f"j{i}"][0] for i in range(4)]
        assert shards == [0, 1, 0, 1]

    def test_least_loaded_balances(self, mini_server):
        with WarehouseFederation(
            2, 4, routing="least-loaded", spec=mini_server
        ) as fed:
            for i in range(4):
                fed.submit(bg_job(f"j{i}"), at=float(i + 1))
            fed.run_until(10.0)
            by_shard = [fed.shards[i].jobs_running for i in range(2)]
        assert by_shard == [2, 2]

    def test_rejection_retry_spills_past_a_full_home(self, mini_server):
        # Two jobs with the same home shard; one node of one job each.
        names = ["spill-a", "spill-b"]
        assert home_shard(names[0], 2) == home_shard(names[1], 2)
        home = home_shard(names[0], 2)
        with WarehouseFederation(
            2, 1, routing="rejection-retry", spec=mini_server,
            max_jobs_per_node=1,
        ) as fed:
            fed.submit(bg_job(names[0]), at=1.0)
            fed.submit(bg_job(names[1]), at=2.0)
            fed.run_until(3.0)
            placements = fed.placements()
        assert placements[names[0]][0] == home
        assert placements[names[1]][0] == 1 - home  # spilled

    def test_full_federation_rejects(self, mini_server):
        with WarehouseFederation(
            2, 1, spec=mini_server, max_jobs_per_node=1
        ) as fed:
            for i in range(3):
                fed.submit(bg_job(f"j{i}"), at=float(i + 1))
            status = fed.run_to_completion()
        assert status["jobs_running"] == 2
        assert status["rejections"] == 1
        rejects = [e for e in fed.routed if e.kind == "reject"]
        assert rejects[0].detail == "capacity"

    def test_route_counters_appear_on_first_use(self, mini_server):
        telemetry = Telemetry.enabled()

        def route_series():
            return sorted(
                (name, sorted(labels.items()), value)
                for series, value in telemetry.snapshot().counters.items()
                for name, labels in [parse_series(series)]
                if name.startswith("warehouse.route.")
            )

        with WarehouseFederation(
            2, 1, spec=mini_server, max_jobs_per_node=1, telemetry=telemetry
        ) as fed:
            # No zero-valued series before the first arrival.
            assert route_series() == []
            for i in range(3):
                fed.submit(bg_job(f"j{i}"), at=float(i + 1))
            fed.run_to_completion()
        assert route_series() == [
            ("warehouse.route.admitted", [("shard", "0")], 1.0),
            ("warehouse.route.admitted", [("shard", "1")], 1.0),
            ("warehouse.route.arrivals", [], 3.0),
            ("warehouse.route.rejections", [], 1.0),
        ]

    def test_duplicate_name_rejected_across_shards(self, mini_server):
        with WarehouseFederation(2, 4, spec=mini_server) as fed:
            fed.submit(bg_job("dup"), at=1.0)
            fed.submit(bg_job("dup"), at=2.0)
            fed.run_until(3.0)
            rejects = [e for e in fed.routed if e.kind == "reject"]
        assert len(rejects) == 1
        assert rejects[0].detail == "duplicate-name"

    def test_departure_routed_to_owning_shard(self, mini_server):
        with WarehouseFederation(2, 4, spec=mini_server) as fed:
            fed.submit(bg_job("a"), at=1.0)
            fed.depart("a", at=2.0)
            fed.depart("ghost", at=3.0)
            fed.run_until(4.0)
            assert fed.placements() == {}
            departs = [e for e in fed.routed if e.kind == "depart"]
        assert departs[0].job == "a" and departs[0].shard >= 0
        assert departs[1].job == "ghost" and departs[1].detail == "unknown"


class TestProbeLeavesNoTrace:
    def test_rejecting_first_shard_is_left_as_it_was(self, mini_server):
        """An arrival whose home shard probes and rejects lands on the
        next shard, and leaves the home shard's probe, service state
        and nodes exactly as they were."""
        telemetry = Telemetry.enabled()

        def probes():
            return sum(
                value
                for series, value in telemetry.snapshot().counters.items()
                if parse_series(series)[0] == "warehouse.verify.nodes"
            )

        def job(name, load):
            return WarehouseJob.lc(
                make_lc(name, qos_latency_ms=6.0), load, name
            )

        assert home_shard("w0", 2) == home_shard("w1", 2) == 0
        with WarehouseFederation(
            2,
            1,
            routing="rejection-retry",
            spec=mini_server,
            max_jobs_per_node=3,
            telemetry=telemetry,
        ) as fed:
            fed.submit(job("w0", 1.0), at=1.0)
            fed.run_until(2.0)
            home = fed.shards[0]
            before = dict(vars(home.probe)), service_trace(home)
            probed = probes()
            # Scheduled at the current time, so the clock stays put and
            # status()'s time_s compares equal.
            fed.submit(job("w1", 0.85), at=2.0)
            fed.run_until(2.0)
            assert probes() == probed + 1  # the home shard did probe
            assert fed.placements() == {"w0": (0, 0), "w1": (1, 0)}
            assert (dict(vars(home.probe)), service_trace(home)) == before


class TestWarehouseScale:
    def test_500_nodes_2_shards_200_plus_events_deterministic(self):
        """The issue's acceptance scenario: big, busy, bit-identical."""
        config = ScenarioConfig(n_jobs=150, duration_s=900.0, seed=7)
        events = synthesize(config)
        assert len(events) >= 200
        runs = []
        for _ in range(2):
            with WarehouseFederation(
                2, 250, recheck_period_s=120.0, seed=7
            ) as fed:
                load_into(fed, events)
                status = fed.run_to_completion()
                runs.append(
                    (
                        fed.routed,
                        [shard.timeline for shard in fed.shards],
                        fed.placements(),
                        status,
                    )
                )
        assert runs[0] == runs[1]
        routed, shard_timelines, placements, status = runs[0]
        assert status["nodes_total"] == 500
        assert status["arrivals"] == 150
        assert status["routed"] + status["rejections"] >= 150
        assert status["departures"] > 50
        assert len(routed) >= 200
        # Both shards actually took work.
        assert all(len(timeline) > 0 for timeline in shard_timelines)


class TestStatusAggregation:
    def test_sums_across_shards(self, mini_server):
        with WarehouseFederation(3, 2, spec=mini_server) as fed:
            for i in range(5):
                fed.submit(bg_job(f"j{i}"), at=float(i + 1))
            status = fed.run_to_completion()
        assert status["n_shards"] == 3
        assert status["nodes_total"] == 6
        assert status["jobs_running"] == 5
        assert len(status["shards"]) == 3
        assert sum(s["jobs_running"] for s in status["shards"]) == 5
        assert status["nodes_used"] == sum(
            s["nodes_used"] for s in status["shards"]
        )

    def test_close_is_idempotent(self, mini_server):
        fed = WarehouseFederation(2, 2, spec=mini_server)
        fed.close()
        fed.close()


class TestTimelineCursor:
    """Federation cursors: rolling readers collect every root and shard
    decision exactly once, matching the historical full flatten."""

    def test_rolling_cursor_matches_full_flatten(self):
        from collections import Counter

        events = synthesize(ScenarioConfig(n_jobs=40, duration_s=400.0, seed=4))
        with WarehouseFederation(3, 12, recheck_period_s=60.0, seed=4) as fed:
            load_into(fed, events)
            zero = (0,) * (len(fed.shards) + 1)
            assert fed.timeline_cursor() == zero
            collected = []
            cursor = fed.timeline_cursor()
            for t in (100.0, 200.0, 300.0):
                fed.run_until(t)
                collected.extend(fed.timeline_since(cursor))
                cursor = fed.timeline_cursor()
            fed.run_to_completion()
            collected.extend(fed.timeline_since(cursor))
            cursor = fed.timeline_cursor()
            full = fed.timeline_since(zero)
            # The zero cursor reproduces the historical flattening:
            # routed log first, then each shard's timeline in order.
            assert full == tuple(fed.routed) + tuple(
                entry for shard in fed.shards for entry in shard.timeline
            )
            # Rolling slices interleave components but drop nothing.
            assert len(collected) == len(full) > 0
            assert Counter(map(repr, collected)) == Counter(map(repr, full))
            assert fed.timeline_since(cursor) == ()


class TestSharedStoreConcurrency:
    """Shards sharing one observation store (truths and verdicts) decide
    exactly as storeless shards do, cold and replayed warm."""

    def test_concurrent_clite_probes_over_one_store(self, tmp_path):
        events = synthesize(
            ScenarioConfig(n_jobs=8, duration_s=150.0, lc_fraction=0.5, seed=4)
        )

        def run(store):
            with WarehouseFederation(
                2,
                4,
                probe="clite",
                engine_config=FAST_ENGINE,
                seed=4,
                recheck_period_s=30.0,
                stores=[store, store],
            ) as fed:
                load_into(fed, events)
                fed.run_to_completion()
                return (
                    fed.routed,
                    [shard.timeline for shard in fed.shards],
                    fed.placements(),
                )

        storeless = run(None)
        with ObservationStore(tmp_path / "shared.jsonl") as store:
            cold = run(store)
            cold_stats = store.stats()
            warm = run(store)
            warm_stats = store.stats()
        assert cold == storeless
        assert warm == storeless
        assert cold_stats.verdicts > 0
        assert warm_stats.verdict_hits > cold_stats.verdict_hits
        assert warm_stats.misses == cold_stats.misses  # the replay ran no physics
