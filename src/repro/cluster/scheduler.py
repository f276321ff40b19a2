"""Cluster placement policies.

Three generations of datacenter placement, mirroring the paper's
introduction:

* **dedicated** — the traditional conservative stance: no co-location
  at all, every job gets its own machine (QoS is trivially safe, the
  cluster is mostly idle);
* **first-fit** — structural packing with a co-location cap but no QoS
  awareness: dense, but nothing guarantees the LC jobs survive it;
* **QoS-aware (CLITE)** — pack onto the first node where a CLITE run
  *demonstrates* a QoS-meeting partition, falling back to a fresh
  machine otherwise — the "schedule it elsewhere" loop the paper's
  bootstrap check enables.  This is the warehouse's admission search
  (:mod:`repro.warehouse.service`) replayed with every request at t=0.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.engine import CLITEConfig, CLITEEngine
from ..resources.contracts import placement_contract
from ..server.node import Node
from ..server.obstore import ObservationStore, Verdict, verdict_key
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..workloads.loadgen import LoadSchedule
from .state import Cluster, ClusterNode, JobRequest, PlacementOutcome

#: Engine settings for the many small optimizations placement needs.
PLACEMENT_ENGINE = CLITEConfig(
    max_iterations=25,
    post_qos_iterations=8,
    refine_budget=8,
    confirm_top=2,
    n_restarts=4,
)


def engine_digest(config: CLITEConfig) -> Optional[str]:
    """Digest of every engine setting but ``telemetry``, or ``None``.

    A custom ``acquisition`` or ``kernel`` is an arbitrary object with
    no stable digest, so such a config gets ``None`` (no memo).
    """
    if config.acquisition is not None or config.kernel is not None:
        return None
    settings = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name != "telemetry"
    }
    canonical = json.dumps(settings, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _memo_key(
    node: Node, node_state: ClusterNode, config: CLITEConfig
) -> Optional[str]:
    """The verdict-memo key of one verification, or ``None`` to bypass.

    Storeless nodes have no fingerprint; unseeded runs read ambient
    counter noise, so they are not a function of their inputs.
    """
    fingerprint, digest = node.fingerprint, engine_digest(config)
    if fingerprint is None or config.seed is None or digest is None:
        return None
    loads = [r.load for r in node_state.lc_requests if r.load is not None]
    return verdict_key(fingerprint, loads, config.seed, digest)


def _run_clite(
    node: Node, node_state: ClusterNode, config: CLITEConfig, tel: Telemetry
) -> Verdict:
    """One CLITE BO run on ``node``, judged by its noise-free truth."""
    result = CLITEEngine(node, config).optimize()
    if tel.active:
        tel.metrics.counter(
            "cluster.verify.samples", node=str(node_state.index)
        ).add(result.samples_taken)
    if result.best_config is None:
        return Verdict(False, None, result.samples_taken)
    truth = node.true_performance(result.best_config)
    bg = [j.throughput_norm for j in truth.bg_jobs]
    return Verdict(
        truth.all_qos_met,
        sum(bg) / len(bg) if bg else None,
        result.samples_taken,
    )


def verify_node(
    node_state: ClusterNode,
    engine_config: Optional[CLITEConfig] = None,
    seed: Optional[int] = 0,
    telemetry: Optional[Telemetry] = None,
    store: Optional[ObservationStore] = None,
) -> Tuple[bool, Optional[float]]:
    """Partition one node with CLITE and report (qos_met, mean BG perf).

    The report uses the simulator's noise-free view of the chosen
    partition, like every other ground-truth metric in the harness.
    ``store`` attaches a shared observation store to the built node, so
    repeated verification of similar job sets (the warehouse common
    case) skips the physics on warm truths.

    The store also memoises the whole answer: a seeded verification is
    a pure function of the node's physics fingerprint, its LC loads,
    the seed and the engine settings (:func:`engine_digest`), so a
    repeat of an identical node state returns the stored
    :class:`~repro.server.obstore.Verdict` without building an engine.
    Unseeded runs and configs with a custom acquisition or kernel
    bypass the memo.

    With telemetry, the run is wrapped in a ``cluster.verify_node``
    span (``memo`` says whether the verdict came from the store), memo
    traffic lands on ``verify.memo.hits``/``verify.memo.misses``, and
    the observation windows actually spent land on the per-node
    ``cluster.verify.samples`` counter.
    """
    config = engine_config or PLACEMENT_ENGINE
    tel = telemetry if telemetry is not None else (
        config.telemetry if config.telemetry is not None else NULL_TELEMETRY
    )
    config = replace(config, seed=seed, telemetry=tel if tel.active else None)
    with tel.tracer.span(
        "cluster.verify_node", node=node_state.index, jobs=node_state.n_jobs
    ) as span:
        node = node_state.build_node(seed=seed, store=store)
        key = _memo_key(node, node_state, config)
        verdict = None
        if key is not None:
            verdict = node.stored_verdict(key)
            tel.metrics.counter(
                "verify.memo.hits" if verdict is not None else "verify.memo.misses"
            ).add()
        span.set("memo", verdict is not None)
        if verdict is None:
            verdict = _run_clite(node, node_state, config, tel)
            if key is not None:
                node.publish_verdict(key, verdict)
        span.set("qos_met", verdict.qos_met)
    return verdict.qos_met, verdict.bg_perf


def verify_nodes(
    node_states: Iterable[ClusterNode],
    engine_config: Optional[CLITEConfig] = None,
    seed: Optional[int] = 0,
    telemetry: Optional[Telemetry] = None,
    store: Optional[ObservationStore] = None,
) -> Dict[int, Tuple[bool, Optional[float]]]:
    """Run :func:`verify_node` over many nodes, in node order.

    Each verification builds its own simulated node and engine from the
    node state and the seed, so every report is a function of its node
    alone.  One ``store`` backs every node: nodes hosting identical job
    sets (same fingerprint) reuse each other's truths, and a store kept
    warm across placement rounds makes re-verification near-free.
    """
    return {
        state.index: verify_node(
            state, engine_config, seed, telemetry, store=store
        )
        for state in node_states
    }


class PlacementPolicy(ABC):
    """Decides which node each job request lands on."""

    name: str = "placement"

    @abstractmethod
    def place(
        self,
        cluster: Cluster,
        requests: Sequence[JobRequest],
        seed: Optional[int] = 0,
    ) -> PlacementOutcome:
        """Place every request (or reject it) and report the outcome."""

    def _finalize(
        self,
        cluster: Cluster,
        rejected: List[str],
        seed: Optional[int],
        verify: bool,
        engine_config: Optional[CLITEConfig] = None,
        telemetry: Optional[Telemetry] = None,
        spans_since: int = 0,
        store: Optional[ObservationStore] = None,
    ) -> PlacementOutcome:
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        reports: Dict[int, Tuple[bool, Optional[float]]] = {}
        if verify:
            with tel.tracer.span("cluster.verify") as span:
                reports = verify_nodes(
                    cluster.used_nodes(), engine_config, seed,
                    telemetry=tel, store=store,
                )
                span.set("nodes", len(reports))
        return PlacementOutcome(
            placements=cluster.placements(),
            rejected=tuple(rejected),
            machines_used=cluster.machines_used(),
            node_reports=reports,
            telemetry=(
                tel.snapshot(spans_since=spans_since) if tel.active else None
            ),
        )


@dataclass
class DedicatedPlacement(PlacementPolicy):
    """No co-location: one request per machine (the pre-co-location
    baseline the paper's introduction argues against)."""

    verify: bool = True
    #: Optional telemetry context shared across placement + verification.
    telemetry: Optional[Telemetry] = None
    #: Optional observation store shared by every verification node.
    store: Optional[ObservationStore] = None

    name = "dedicated"

    @placement_contract
    def place(
        self,
        cluster: Cluster,
        requests: Sequence[JobRequest],
        seed: Optional[int] = 0,
    ) -> PlacementOutcome:
        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        spans_before = tel.tracer.finished_count
        rejected: List[str] = []
        with tel.tracer.span(
            "cluster.place", policy=self.name, requests=len(requests)
        ):
            for request in requests:
                empty = [n for n in cluster.nodes if n.n_jobs == 0]
                if not empty:
                    rejected.append(request.request_name)
                    continue
                cluster.place(empty[0].index, request)
        return self._finalize(
            cluster, rejected, seed, self.verify,
            telemetry=tel, spans_since=spans_before, store=self.store,
        )


@dataclass
class FirstFitPlacement(PlacementPolicy):
    """Structural first fit up to a co-location cap, QoS-blind."""

    max_jobs_per_node: int = 4
    verify: bool = True
    telemetry: Optional[Telemetry] = None
    store: Optional[ObservationStore] = None

    name = "first-fit"

    def __post_init__(self) -> None:
        if self.max_jobs_per_node < 1:
            raise ValueError("max_jobs_per_node must be >= 1")

    @placement_contract
    def place(
        self,
        cluster: Cluster,
        requests: Sequence[JobRequest],
        seed: Optional[int] = 0,
    ) -> PlacementOutcome:
        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        spans_before = tel.tracer.finished_count
        rejected: List[str] = []
        with tel.tracer.span(
            "cluster.place", policy=self.name, requests=len(requests)
        ):
            for request in requests:
                target = None
                for node_state in cluster.nodes:
                    if (
                        node_state.n_jobs < self.max_jobs_per_node
                        and node_state.can_host(request)
                    ):
                        target = node_state.index
                        break
                if target is None:
                    rejected.append(request.request_name)
                    continue
                cluster.place(target, request)
        return self._finalize(
            cluster, rejected, seed, self.verify,
            telemetry=tel, spans_since=spans_before, store=self.store,
        )


@dataclass
class CLITEPlacement(PlacementPolicy):
    """QoS-verified packing: co-locate only where CLITE proves it safe.

    The batch face of the warehouse's admission search: ``place`` builds
    a :class:`~repro.warehouse.service.WarehouseService` over the
    cluster's node specs with a :class:`~repro.warehouse.admission.CLITEProbe`,
    submits every request at t=0 as a constant-load job in stream order,
    and copies the resulting nodes back.  So there is one QoS-aware
    search, :meth:`WarehouseService._find_target`: occupied nodes
    densest-first, each accepted only if a CLITE run on the tentative
    job set meets every LC job's QoS (BG-only job sets are accepted
    structurally), then a fresh machine, then rejection — the paper's
    "schedule it elsewhere", at cluster scope.  Every occupied candidate
    is probed (``max_probe_nodes`` is the fleet size).

    ``place`` needs an empty cluster (``ValueError`` otherwise), and a
    request whose name is already placed is rejected, as the warehouse
    rejects a ``duplicate-name`` arrival.  An LC load below the
    warehouse's :data:`~repro.warehouse.events.MIN_PROBE_LOAD` is
    placed and verified at that floor.
    """

    max_jobs_per_node: int = 4
    engine_config: CLITEConfig = field(
        default_factory=lambda: PLACEMENT_ENGINE
    )
    verify: bool = True
    telemetry: Optional[Telemetry] = None
    #: Shared observation store: admission probes and final verification
    #: reuse each other's truths, and a warm store makes re-placement of
    #: similar mixes near-free.
    store: Optional[ObservationStore] = None

    name = "clite"

    def __post_init__(self) -> None:
        if self.max_jobs_per_node < 1:
            raise ValueError("max_jobs_per_node must be >= 1")

    def _resolve_telemetry(self) -> Telemetry:
        if self.telemetry is not None:
            return self.telemetry
        if self.engine_config.telemetry is not None:
            return self.engine_config.telemetry
        return NULL_TELEMETRY

    @placement_contract
    def place(
        self,
        cluster: Cluster,
        requests: Sequence[JobRequest],
        seed: Optional[int] = 0,
    ) -> PlacementOutcome:
        if cluster.used_nodes():
            raise ValueError("CLITEPlacement needs an empty cluster")
        # Imported here, not at the top: repro.warehouse.admission
        # imports verify_node from this module.
        from ..warehouse.admission import CLITEProbe
        from ..warehouse.events import WarehouseJob
        from ..warehouse.service import WarehouseService

        tel = self._resolve_telemetry()
        spans_before = tel.tracer.finished_count
        with tel.tracer.span(
            "cluster.place", policy=self.name, requests=len(requests)
        ):
            service = WarehouseService(
                len(cluster.nodes),
                specs=[node.spec for node in cluster.nodes],
                probe=CLITEProbe(self.engine_config),
                seed=seed,
                max_jobs_per_node=self.max_jobs_per_node,
                telemetry=tel,
                store=self.store,
                max_probe_nodes=len(cluster.nodes),
            )
            for request in requests:
                schedule = (
                    None if request.load is None
                    else LoadSchedule.constant(request.load)
                )
                service.submit(
                    WarehouseJob(request.workload, request.request_name, schedule),
                    at=0.0,
                )
            service.run_until(0.0)
            cluster.nodes[:] = service.cluster.nodes
        rejected = [e.job for e in service.timeline if e.kind == "reject"]
        return self._finalize(
            cluster, rejected, seed, self.verify, self.engine_config,
            telemetry=tel, spans_since=spans_before, store=self.store,
        )


def utilization_summary(outcome: PlacementOutcome, total_nodes: int) -> Dict[str, object]:
    """The cluster-efficiency numbers a datacenter operator reads."""
    if total_nodes < 1:
        raise ValueError("total_nodes must be >= 1")
    return {
        "machines_used": outcome.machines_used,
        "machines_total": total_nodes,
        "utilization": outcome.machines_used / total_nodes,
        "rejected": len(outcome.rejected),
        "all_qos_met": outcome.all_qos_met,
        "mean_bg_performance": outcome.mean_bg_performance(),
    }

