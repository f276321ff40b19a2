"""Shared fixtures: small servers, hand-calibrated workloads, fast nodes."""

from __future__ import annotations

import copy

import pytest

from repro.resources import (
    CORES,
    LLC_WAYS,
    MEMORY_BANDWIDTH,
    Resource,
    ServerSpec,
    default_server,
    small_server,
)
from repro.server import Job, Node, PerformanceCounters
from repro.workloads import (
    BGWorkload,
    LCWorkload,
    ResourceProfile,
    SensitivityCurve,
)


@pytest.fixture
def server():
    """The paper's three-resource testbed (10 cores, 11 ways, 10 membw)."""
    return default_server()


@pytest.fixture
def tiny_server():
    """A 4-unit, 2-resource server for exhaustive checks."""
    return small_server(units=4, n_resources=2)


@pytest.fixture
def mini_server():
    """A 6-unit, 3-resource server: big enough to be interesting, small
    enough for exhaustive oracle sweeps in tests."""
    return ServerSpec(
        resources=(
            Resource(CORES, 6),
            Resource(LLC_WAYS, 6),
            Resource(MEMORY_BANDWIDTH, 6),
        )
    )


def make_lc(
    name: str = "lc",
    base_service_rate: float = 1000.0,
    serial_fraction: float = 0.3,
    qos_latency_ms: float = 10.0,
    max_qps: float = 2000.0,
    llc_weight: float = 0.8,
    membw_weight: float = 0.8,
) -> LCWorkload:
    """A hand-calibrated LC workload (no knee sweep needed)."""
    return LCWorkload(
        name=name,
        description="test LC workload",
        profile=ResourceProfile(
            {
                LLC_WAYS: SensitivityCurve(weight=llc_weight, shape=3.0, floor=0.2),
                MEMORY_BANDWIDTH: SensitivityCurve(
                    weight=membw_weight, shape=3.0, floor=0.2
                ),
            }
        ),
        base_service_rate=base_service_rate,
        serial_fraction=serial_fraction,
        qos_latency_ms=qos_latency_ms,
        max_qps=max_qps,
    )


def make_bg(name: str = "bg", membw_weight: float = 1.0) -> BGWorkload:
    """A throughput workload with core + bandwidth sensitivity."""
    return BGWorkload(
        name=name,
        description="test BG workload",
        profile=ResourceProfile(
            {
                LLC_WAYS: SensitivityCurve(weight=0.5, shape=3.0, floor=0.2),
                MEMORY_BANDWIDTH: SensitivityCurve(
                    weight=membw_weight, shape=2.0, floor=0.15
                ),
            }
        ),
        core_curve=SensitivityCurve(weight=1.0, shape=1.0, floor=0.0),
    )


@pytest.fixture
def lc_workload_fixture():
    return make_lc()


@pytest.fixture
def bg_workload_fixture():
    return make_bg()


def make_node(
    server: ServerSpec,
    lc_loads=((0.4,),),
    n_bg: int = 1,
    seed: int = 0,
    noise: float = 0.0,
    window_s: float = 2.0,
    store=None,
) -> Node:
    """A deterministic node with hand-calibrated synthetic workloads.

    ``lc_loads`` is a sequence of per-LC-job load fractions (each spawns
    one LC job); ``n_bg`` BG jobs are appended.  ``store`` attaches a
    shared :class:`~repro.server.obstore.ObservationStore`.
    """
    jobs = []
    loads = [l[0] if isinstance(l, tuple) else l for l in lc_loads]
    for i, load in enumerate(loads):
        jobs.append(Job.lc(make_lc(name=f"lc{i}"), load))
    for i in range(n_bg):
        jobs.append(Job.bg(make_bg(name=f"bg{i}")))
    counters = PerformanceCounters(relative_std=noise, seed=seed)
    return Node(
        server, jobs, counters=counters, window_s=window_s, store=store
    )


@pytest.fixture
def quiet_node(mini_server):
    """2 LC + 1 BG on the mini server, noise-free."""
    return make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.0)


def service_trace(service) -> tuple:
    """Everything of a warehouse service that a probe must not change.

    The timeline, ``placements()``, ``status()``, the job, density,
    volatile and dirty books, the verification memo, the migration log,
    and each node's identity and requests, all copied so a later
    in-place change still shows.
    """
    return (
        service.timeline,
        service.placements(),
        service.status(),
        {name: copy.copy(placed) for name, placed in service._jobs.items()},
        [list(bucket) for bucket in service._by_density],
        list(service._density_of),
        list(service._volatile_nodes),
        set(service._recheck_dirty),
        dict(service._last_verified),
        service.migrations,
        [(id(node), tuple(node.requests)) for node in service.cluster.nodes],
    )


def books_consistent(service) -> None:
    """Assert a warehouse service's books agree with its nodes.

    ``placements()`` must equal what every node hosts, and the density
    and volatile indices must equal a from-scratch recomputation.
    """
    nodes = service.cluster.nodes
    hosted = {r.request_name: node.index for node in nodes for r in node.requests}
    assert service.placements() == hosted
    cap = service.max_jobs_per_node
    density = [min(node.n_jobs, cap) for node in nodes]
    assert service._density_of == density
    assert service._by_density == [
        [node.index for node in nodes if density[node.index] == d]
        for d in range(cap + 1)
    ]
    jobs = {name: placed.job for name, placed in service._jobs.items()}
    assert service._volatile_nodes == [
        node.index
        for node in nodes
        if any(
            jobs[r.request_name].is_lc and not jobs[r.request_name].has_static_load
            for r in node.requests
        )
    ]
