"""Cluster substrate: many servers, a job queue, per-node co-location.

The paper's motivation is warehouse-scale: co-location exists to raise
*datacenter* utilization, and CLITE's bootstrap explicitly flags jobs
that "can be immediately scheduled elsewhere without wasting any BO
cycles".  This subpackage provides the elsewhere: a cluster of
simulated nodes, a placement request stream, and the bookkeeping to
measure how many machines a placement policy needs and how well the
background work runs on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from ..resources.spec import ServerSpec, default_server
from ..server.counters import PerformanceCounters
from ..server.node import Job, Node
from ..server.obstore import ObservationStore
from ..telemetry import TelemetrySnapshot
from ..workloads.base import BGWorkload, LCWorkload
from ..workloads.loadgen import LoadSchedule


@dataclass(frozen=True)
class JobRequest:
    """One job asking for placement somewhere in the cluster.

    Attributes:
        workload: The LC or BG workload to run.
        load: Load fraction (LC jobs only).
        name: Unique request name; defaults to the workload name, but
            multiple instances of the same workload need distinct names.
    """

    workload: Union[LCWorkload, BGWorkload]
    load: Optional[float] = None
    name: Optional[str] = None
    #: The node job, built once here: every probe of every node state
    #: holding this request shares it.
    _job: Job = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.workload, LCWorkload):
            if self.load is None:
                raise ValueError("LC job requests need a load fraction")
            if not 0 < self.load <= 1.0:
                raise ValueError(f"load must be in (0, 1], got {self.load}")
        elif self.load is not None:
            raise ValueError("BG job requests do not take a load")
        workload = replace(self.workload, name=self.request_name)
        job = (
            Job(workload, LoadSchedule.constant(self.load))
            if self.is_lc
            else Job(workload)
        )
        object.__setattr__(self, "_job", job)

    @property
    def is_lc(self) -> bool:
        return isinstance(self.workload, LCWorkload)

    @property
    def request_name(self) -> str:
        return self.name if self.name is not None else self.workload.name

    def to_job(self) -> Job:
        """The node job: a renamed copy of the workload (plus, for an LC
        job, its constant load), built when the request was."""
        return self._job


@dataclass
class ClusterNode:
    """One machine of the cluster: its spec plus the jobs placed on it."""

    index: int
    spec: ServerSpec
    requests: List[JobRequest] = field(default_factory=list)

    @property
    def n_jobs(self) -> int:
        return len(self.requests)

    @property
    def lc_requests(self) -> List[JobRequest]:
        return [r for r in self.requests if r.is_lc]

    def job_names(self) -> List[str]:
        return [r.request_name for r in self.requests]

    def can_host(self, request: JobRequest) -> bool:
        """Structural check: a free unit of every resource, unique name."""
        if request.request_name in self.job_names():
            return False
        return self.n_jobs + 1 <= self.spec.max_jobs()

    def with_request(self, request: JobRequest) -> "ClusterNode":
        """A copy of this node hosting one more request."""
        if not self.can_host(request):
            raise ValueError(
                f"node {self.index} cannot host {request.request_name!r}"
            )
        return ClusterNode(
            index=self.index, spec=self.spec, requests=self.requests + [request]
        )

    def without_request(self, name: str) -> "ClusterNode":
        """A copy of this node after the named request departed."""
        if name not in self.job_names():
            raise KeyError(f"node {self.index} hosts no request {name!r}")
        return ClusterNode(
            index=self.index,
            spec=self.spec,
            requests=[r for r in self.requests if r.request_name != name],
        )

    def build_node(
        self,
        seed: Optional[int] = None,
        store: Optional[ObservationStore] = None,
    ) -> Node:
        """A fresh simulated server running this node's current jobs.

        ``seed`` seeds the counter-noise stream, so two same-seed builds
        read identical noisy windows.  It used to be accepted and
        silently dropped, which left the counters on ambient entropy and
        let same-seed ``verify_node`` runs disagree — the rare
        ``test_cluster`` flake.  ``store`` attaches a shared
        :class:`~repro.server.obstore.ObservationStore`, letting
        re-verification sweeps reuse truths across nodes and runs.
        """
        if not self.requests:
            raise ValueError(f"node {self.index} is empty")
        return Node(
            self.spec,
            [r.to_job() for r in self.requests],
            counters=PerformanceCounters(seed=seed),
            window_s=2.0,
            store=store,
        )


@dataclass
class Cluster:
    """A fixed pool of machines accepting placements.

    Homogeneous by default; pass ``specs`` for a heterogeneous fleet
    (e.g. a few big-cache nodes among standard ones) — placement
    consults each node's own spec, so mixing generations works
    transparently.
    """

    n_nodes: int
    spec: ServerSpec = field(default_factory=default_server)
    specs: Optional[List[ServerSpec]] = None
    nodes: List[ClusterNode] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        if self.specs is not None:
            if len(self.specs) != self.n_nodes:
                raise ValueError(
                    f"got {len(self.specs)} specs for {self.n_nodes} nodes"
                )
            per_node = list(self.specs)
        else:
            per_node = [self.spec] * self.n_nodes
        self.nodes = [ClusterNode(i, s) for i, s in enumerate(per_node)]

    def used_nodes(self) -> List[ClusterNode]:
        return [n for n in self.nodes if n.n_jobs > 0]

    def machines_used(self) -> int:
        return len(self.used_nodes())

    def placements(self) -> Dict[str, int]:
        """Request name -> node index for every placed request."""
        return {
            r.request_name: node.index
            for node in self.nodes
            for r in node.requests
        }


@dataclass(frozen=True)
class PlacementOutcome:
    """Result of placing a request stream on a cluster.

    Attributes:
        placements: Request name -> node index.
        rejected: Requests no node could accept.
        machines_used: Number of nodes hosting at least one job.
        node_reports: Per-used-node (qos_met, mean normalized BG perf or
            None); filled when placement verifies the nodes it used.
        telemetry: Run-scoped telemetry snapshot (placement + per-node
            verification spans and counters) when placement ran with a
            telemetry context, else ``None``.
    """

    placements: Dict[str, int]
    rejected: Tuple[str, ...]
    machines_used: int
    node_reports: Dict[int, Tuple[bool, Optional[float]]] = field(
        default_factory=dict
    )
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def all_qos_met(self) -> bool:
        return all(qos for qos, _ in self.node_reports.values())

    def mean_bg_performance(self) -> Optional[float]:
        values = [
            perf for _, perf in self.node_reports.values() if perf is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)
