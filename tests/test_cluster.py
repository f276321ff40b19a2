"""Unit and integration tests for cluster state and batch placement."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterNode, JobRequest
from repro.core import CLITEConfig
from repro.warehouse import (
    CLITEProbe,
    QoSBlindProbe,
    place,
    utilization_summary,
    verify_node,
)

from conftest import make_bg, make_lc


FAST_ENGINE = CLITEConfig(
    max_iterations=10,
    post_qos_iterations=3,
    refine_budget=5,
    confirm_top=1,
    n_restarts=3,
)


def lc_request(name: str, load: float = 0.3) -> JobRequest:
    return JobRequest(make_lc(name), load, name=name)


def bg_request(name: str) -> JobRequest:
    return JobRequest(make_bg(name), name=name)


#: The paper's three placement generations as (admission probe, cap).
GENERATIONS = {
    "dedicated": (QoSBlindProbe(), 1),
    "first-fit": (QoSBlindProbe(), 4),
    "clite": (CLITEProbe(FAST_ENGINE), 4),
}


class TestJobRequest:
    def test_lc_needs_load(self):
        with pytest.raises(ValueError, match="need a load"):
            JobRequest(make_lc())

    def test_bg_rejects_load(self):
        with pytest.raises(ValueError, match="do not take a load"):
            JobRequest(make_bg(), 0.5)

    def test_load_bounds(self):
        with pytest.raises(ValueError):
            JobRequest(make_lc(), 0.0)
        with pytest.raises(ValueError):
            JobRequest(make_lc(), 1.5)

    def test_request_name_defaults_to_workload(self):
        assert JobRequest(make_bg("canneal-like")).request_name == "canneal-like"
        assert JobRequest(make_bg(), name="batch-7").request_name == "batch-7"

    def test_to_job_renames(self):
        request = JobRequest(make_lc("svc"), 0.4, name="svc-2")
        job = request.to_job()
        assert job.name == "svc-2"
        assert job.is_lc
        assert job.load.load_at(0) == 0.4


class TestClusterNode:
    def test_can_host_rejects_duplicates(self, mini_server):
        node = ClusterNode(0, mini_server).with_request(lc_request("a"))
        assert not node.can_host(lc_request("a"))
        assert node.can_host(lc_request("b"))

    def test_can_host_respects_max_jobs(self, mini_server):
        node = ClusterNode(0, mini_server)
        for i in range(mini_server.max_jobs()):
            node = node.with_request(bg_request(f"j{i}"))
        assert not node.can_host(bg_request("overflow"))

    def test_with_request_immutable(self, mini_server):
        node = ClusterNode(0, mini_server)
        node.with_request(lc_request("a"))
        assert node.n_jobs == 0

    def test_build_node(self, mini_server):
        node_state = ClusterNode(0, mini_server).with_request(lc_request("a"))
        node_state = node_state.with_request(bg_request("b"))
        node = node_state.build_node(seed=0)
        assert node.job_names() == ("a", "b")

    def test_build_empty_rejected(self, mini_server):
        with pytest.raises(ValueError, match="empty"):
            ClusterNode(0, mini_server).build_node()


class TestCluster:
    def test_construction(self, mini_server):
        cluster = Cluster(n_nodes=3, spec=mini_server)
        assert cluster.machines_used() == 0
        with pytest.raises(ValueError):
            Cluster(n_nodes=0)

    def test_place_and_bookkeeping(self, mini_server):
        cluster = Cluster(n_nodes=3, spec=mini_server)
        out = place(
            cluster, [lc_request("a"), bg_request("b")], QoSBlindProbe(), 4,
            verify=False,
        )
        assert cluster.machines_used() == out.machines_used == 1
        assert cluster.placements() == out.placements == {"a": 0, "b": 0}
        assert cluster.used_nodes() == [cluster.nodes[0]]


class TestVerifyNode:
    def test_feasible_node_verifies(self, mini_server):
        state = (
            ClusterNode(0, mini_server)
            .with_request(lc_request("a", 0.3))
            .with_request(bg_request("b"))
        )
        qos, bg = verify_node(state, FAST_ENGINE, seed=0)
        assert qos
        assert bg is not None and 0 < bg <= 1

    def test_lc_only_node_reports_no_bg(self, mini_server):
        state = ClusterNode(0, mini_server).with_request(lc_request("a", 0.3))
        qos, bg = verify_node(state, FAST_ENGINE, seed=0)
        assert qos
        assert bg is None

    def test_same_seed_same_report(self, mini_server):
        """Regression: build_node once accepted a seed and silently
        dropped it, leaving the counters on ambient entropy — two
        same-seed verifications could then disagree (the rare flake)."""
        state = (
            ClusterNode(0, mini_server)
            .with_request(lc_request("a", 0.3))
            .with_request(bg_request("b"))
        )
        reports = {verify_node(state, FAST_ENGINE, seed=7) for _ in range(3)}
        assert len(reports) == 1

    def test_seed_reaches_counters(self, mini_server):
        state = ClusterNode(0, mini_server).with_request(lc_request("a", 0.3))
        a = state.build_node(seed=3)
        b = state.build_node(seed=3)
        config = a.space.equal_partition()
        assert a.observe(config).jobs == b.observe(config).jobs

    def test_shared_store_across_nodes(self, mini_server, tmp_path):
        """One store backs every node's verification; identical job sets
        share a fingerprint, and a warm store makes re-verification
        physics-free without changing any report."""
        from repro.server import ObservationStore

        # Same workload set on every node -> same fingerprint.
        states = [
            ClusterNode(i, mini_server)
            .with_request(lc_request("svc", 0.3))
            .with_request(bg_request("batch"))
            for i in range(3)
        ]

        def verify_all(store=None):
            return [verify_node(s, FAST_ENGINE, 0, store=store) for s in states]

        baseline = verify_all()
        with ObservationStore(tmp_path / "verify.jsonl") as store:
            assert verify_all(store) == baseline
            warm_misses = store.stats().misses
            cold_verdict_hits = store.stats().verdict_hits
            assert verify_all(store) == baseline
        # The second round replays the verdicts the first round
        # published: every node is a memo hit and no physics runs.
        assert store.stats().verdict_hits - cold_verdict_hits == len(states)
        assert store.stats().misses == warm_misses


def clite_place(cluster, stream, verify=True):
    """CLITE placement at cap 3 under the fast engine, seed 0."""
    return place(
        cluster, stream, CLITEProbe(FAST_ENGINE), 3, seed=0, verify=verify
    )


class TestPolicies:
    @pytest.fixture
    def stream(self):
        return [
            lc_request("svc-1", 0.3),
            lc_request("svc-2", 0.3),
            bg_request("batch-1"),
            bg_request("batch-2"),
        ]

    def test_dedicated_one_per_machine(self, mini_server, stream):
        cluster = Cluster(n_nodes=6, spec=mini_server)
        out = place(cluster, stream, QoSBlindProbe(), 1, verify=False)
        assert out.machines_used == 4
        assert len(set(out.placements.values())) == 4
        assert out.rejected == ()

    def test_dedicated_rejects_when_full(self, mini_server, stream):
        cluster = Cluster(n_nodes=2, spec=mini_server)
        out = place(cluster, stream, QoSBlindProbe(), 1, verify=False)
        assert out.machines_used == 2
        assert len(out.rejected) == 2

    def test_first_fit_packs(self, mini_server, stream):
        cluster = Cluster(n_nodes=6, spec=mini_server)
        out = place(cluster, stream, QoSBlindProbe(), 4, verify=False)
        assert out.machines_used == 1

    def test_first_fit_cap(self, mini_server, stream):
        cluster = Cluster(n_nodes=6, spec=mini_server)
        out = place(cluster, stream, QoSBlindProbe(), 2, verify=False)
        assert out.machines_used == 2

    def test_clite_placement_meets_qos(self, mini_server, stream):
        cluster = Cluster(n_nodes=6, spec=mini_server)
        out = clite_place(cluster, stream)
        assert out.rejected == ()
        assert out.all_qos_met
        # It co-locates (beats dedicated) while keeping QoS.
        assert out.machines_used < 4

    def test_clite_placement_spreads_heavy_jobs(self, mini_server):
        heavy = [
            lc_request("hot-1", 0.9),
            lc_request("hot-2", 0.9),
            lc_request("hot-3", 0.9),
        ]
        cluster = Cluster(n_nodes=4, spec=mini_server)
        out = clite_place(cluster, heavy)
        assert out.all_qos_met
        # Three 90%-load services cannot share one small box.
        assert out.machines_used >= 2

    def test_utilization_summary(self, mini_server, stream):
        cluster = Cluster(n_nodes=4, spec=mini_server)
        out = place(cluster, stream, QoSBlindProbe(), 4, verify=False)
        summary = utilization_summary(out, 4)
        assert summary["machines_used"] == 1
        assert summary["utilization"] == 0.25
        with pytest.raises(ValueError):
            utilization_summary(out, 0)

    def test_invalid_parameters(self, mini_server):
        for probe in (QoSBlindProbe(), CLITEProbe(FAST_ENGINE)):
            cluster = Cluster(n_nodes=2, spec=mini_server)
            with pytest.raises(ValueError, match="max_jobs_per_node"):
                place(cluster, [bg_request("b")], probe, 0)

    def test_clite_fallback_respects_can_host(self, mini_server):
        """Regression: the fresh-machine fallback skipped can_host, so a
        request an empty node could not actually absorb crashed placement
        with ValueError instead of being cleanly rejected."""

        class _ZeroCapacitySpec:
            def max_jobs(self):
                return 0

        cluster = Cluster(n_nodes=2, spec=mini_server)
        cluster.nodes[0] = ClusterNode(0, _ZeroCapacitySpec())
        cluster.nodes[1] = ClusterNode(1, _ZeroCapacitySpec())
        out = place(
            cluster, [lc_request("svc", 0.3)], CLITEProbe(FAST_ENGINE), 4,
            verify=False,
        )
        assert out.rejected == ("svc",)
        assert out.machines_used == 0


class TestHeterogeneousCluster:
    def test_per_node_specs(self, mini_server, tiny_server):
        cluster = Cluster(n_nodes=2, specs=[mini_server, tiny_server])
        assert cluster.nodes[0].spec is mini_server
        assert cluster.nodes[1].spec is tiny_server

    def test_spec_count_mismatch_rejected(self, mini_server):
        with pytest.raises(ValueError, match="specs for"):
            Cluster(n_nodes=3, specs=[mini_server])

    def test_placement_respects_small_node_capacity(self, mini_server, tiny_server):
        """A 4-unit node fits at most 4 jobs; the big node absorbs more."""
        cluster = Cluster(n_nodes=2, specs=[tiny_server, mini_server])
        stream = [bg_request(f"b{i}") for i in range(8)]
        out = place(cluster, stream, QoSBlindProbe(), 6, verify=False)
        assert out.rejected == ()
        # The tiny node (4 units per resource) holds at most 4 jobs.
        tiny_jobs = [n for n, idx in out.placements.items() if idx == 0]
        assert len(tiny_jobs) <= 4

    def test_clite_placement_on_mixed_fleet(self, mini_server, tiny_server):
        cluster = Cluster(n_nodes=3, specs=[tiny_server, mini_server, mini_server])
        stream = [lc_request("svc", 0.4), bg_request("batch")]
        out = clite_place(cluster, stream)
        assert out.rejected == ()
        assert out.all_qos_met


class TestCLITEPlacementReplay:
    """``place`` with a ``CLITEProbe`` replays its stream through
    ``WarehouseService``.

    The pinned outcomes are what the earlier private densest-first
    search produced for the same streams, bit for bit (BG means as
    ``float.hex``), so the replay is the same placement policy.
    """

    def _place(self, cluster, stream):
        return clite_place(cluster, stream)

    def test_pinned_mixed_stream(self, mini_server):
        cluster = Cluster(n_nodes=6, spec=mini_server)
        out = self._place(
            cluster,
            [
                lc_request("svc-1", 0.3),
                lc_request("svc-2", 0.3),
                bg_request("batch-1"),
                bg_request("batch-2"),
            ],
        )
        assert out.placements == {
            "svc-1": 0, "svc-2": 0, "batch-1": 0, "batch-2": 1,
        }
        assert out.rejected == ()
        assert out.node_reports == {
            0: (True, float.fromhex("0x1.5151351121adcp-2")),
            1: (True, 1.0),
        }
        assert [n.job_names() for n in cluster.nodes[:2]] == [
            ["svc-1", "svc-2", "batch-1"], ["batch-2"],
        ]

    def test_pinned_heavy_stream(self, mini_server):
        cluster = Cluster(n_nodes=4, spec=mini_server)
        out = self._place(
            cluster,
            [
                lc_request("hot-1", 0.9),
                lc_request("hot-2", 0.9),
                lc_request("hot-3", 0.9),
            ],
        )
        assert out.placements == {"hot-1": 0, "hot-2": 0, "hot-3": 1}
        assert out.rejected == ()
        assert out.node_reports == {0: (True, None), 1: (True, None)}

    def test_pinned_heterogeneous_stream(self, mini_server, tiny_server):
        cluster = Cluster(
            n_nodes=3, specs=[tiny_server, mini_server, mini_server]
        )
        out = self._place(
            cluster, [lc_request("svc", 0.4), bg_request("batch")]
        )
        assert out.placements == {"svc": 0, "batch": 0}
        assert out.rejected == ()
        assert out.node_reports == {
            0: (True, float.fromhex("0x1.86454be94a276p-1")),
        }
        assert cluster.nodes[0].spec is tiny_server

    def test_duplicate_name_rejected(self, mini_server):
        """A repeated request name is rejected, as the warehouse rejects
        a ``duplicate-name`` arrival; it used to land on a second node,
        which ``Cluster.placements()`` then collapsed to one entry."""
        cluster = Cluster(n_nodes=4, spec=mini_server)
        out = self._place(
            cluster,
            [lc_request("svc"), lc_request("svc"), bg_request("batch")],
        )
        assert out.placements == {"svc": 0, "batch": 0}
        assert out.rejected == ("svc",)
        assert out.machines_used == 1
        assert out.node_reports == {
            0: (True, float.fromhex("0x1.50ae262f9b4e6p-1")),
        }

    def test_occupied_cluster_rejected(self, mini_server):
        cluster = Cluster(n_nodes=2, spec=mini_server)
        cluster.nodes[0] = cluster.nodes[0].with_request(bg_request("resident"))
        with pytest.raises(ValueError, match="empty cluster"):
            clite_place(cluster, [lc_request("svc")])
        assert cluster.placements() == {"resident": 0}


class TestEveryGeneration:
    @pytest.mark.parametrize("generation", sorted(GENERATIONS))
    def test_duplicate_name_rejected(self, mini_server, generation):
        """A repeated request name is rejected by every generation; the
        QoS-blind baselines used to put it on a second node, which
        ``Cluster.placements()`` then collapsed to one entry."""
        probe, cap = GENERATIONS[generation]
        cluster = Cluster(n_nodes=4, spec=mini_server)
        out = place(
            cluster,
            [lc_request("svc"), lc_request("svc"), bg_request("batch")],
            probe, cap, seed=0, verify=False,
        )
        assert out.rejected == ("svc",)
        assert set(out.placements) == {"svc", "batch"}
        assert out.machines_used == len(set(out.placements.values()))
        assert sum(n.n_jobs for n in cluster.nodes) == 2


def reference_first_fit(specs, requests, cap):
    """The QoS-blind loops ``place`` replaced: each request lands on the
    lowest-index node under ``cap`` that can host it.  At cap 1 this is
    the dedicated loop (the first empty node)."""
    nodes = [ClusterNode(i, spec) for i, spec in enumerate(specs)]
    placements, rejected = {}, []
    for request in requests:
        target = next(
            (n for n in nodes if n.n_jobs < cap and n.can_host(request)), None
        )
        if target is None:
            rejected.append(request.request_name)
            continue
        nodes[target.index] = target.with_request(request)
        placements[request.request_name] = target.index
    return placements, tuple(rejected)


class TestQoSBlindReference:
    def test_place_matches_the_reference_loops(self, mini_server, tiny_server):
        """Seeded streams of uniquely named LC/BG requests on mixed
        fleets: the QoS-blind probe at any cap places and rejects
        exactly what the reference loops do."""
        for seed in range(120):
            rng = np.random.default_rng(seed)
            specs = [
                (tiny_server, mini_server)[rng.integers(2)]
                for _ in range(rng.integers(1, 7))
            ]
            stream = [
                lc_request(f"r{i}", round(float(rng.uniform(0.05, 1.0)), 3))
                if rng.random() < 0.5
                else bg_request(f"r{i}")
                for i in range(rng.integers(1, 21))
            ]
            cap = int(rng.integers(1, 7))
            out = place(
                Cluster(n_nodes=len(specs), specs=specs), stream,
                QoSBlindProbe(), cap, verify=False,
            )
            expected = reference_first_fit(specs, stream, cap)
            assert (out.placements, out.rejected) == expected, seed
