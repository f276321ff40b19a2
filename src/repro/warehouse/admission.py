"""Admission probes: "would this node still meet QoS with that job set?"

Admission control is the paper's bootstrap check promoted to a service
decision: before a job lands on a node, the warehouse asks whether a
QoS-meeting partition *exists* for the tentative job set.  Three probes
trade fidelity for wall-clock:

* :class:`CLITEProbe` — the full answer: run a (small-budget) CLITE BO
  search via :func:`verify_node`.  Shares the
  warehouse's :class:`~repro.server.obstore.ObservationStore`, so a
  seeded probe of a node state already verified replays the stored
  verdict without running the search at all, and new job sets reuse
  stored truths instead of paying the physics.
* :class:`QuickProbe` — a sufficient-condition screen: evaluate a small
  deterministic candidate set of partitions (the equal split plus
  LC-weighted splits built through the unit-cube projection) against
  the simulator's noise-free truth, asked as a bare QoS verdict.
  Admits only when a candidate provably meets QoS, so it never admits
  a job set for which no candidate partition meets QoS (it can reject
  sets the full search would have admitted).  At under a millisecond
  per check it is what makes thousand-node scenarios with hundreds of
  arrivals tractable.
* :class:`QoSBlindProbe` — no answer at all: it admits every job set.
  With it, :func:`~repro.warehouse.service.place` plays the paper's two
  older placement generations, dedicated machines (cap 1) and QoS-blind
  first fit (cap 4).

Every probe is a pure function of ``(node state, seed)``: probing
commits nothing and perturbs nothing, so a federation can probe shards
that end up rejecting without disturbing the event timeline (the
service writes its books in one ``_apply`` after an event's probes).  A probe
path may leave two traces, both replay-invariant.  One is in the
observation store, whose truths and verdicts are functions of their
keys.  The other is the service's verdict memo: a probe whose
:meth:`AdmissionProbe.memo_key` is not None is asked once per key, and
later checks replay the verdict.  :class:`QuickProbe` keys on (probe,
seed, spec, each request's workload by identity and load).  The memo
holds at most ``WarehouseService.VERDICT_MEMO_MAX_ENTRIES`` keys, never
evicts, and counts ``warehouse.probe.memo.hits`` / ``.misses``.
``tests/test_warehouse.py::TestProbeLeavesNoTrace`` checks the promise
by behaviour: it snapshots the probe, the service and every node around
each ``check`` and ``probe_admit`` call and requires them unchanged;
``TestVerdictMemo`` does the same for the memo.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import fields, replace
from typing import Hashable, Iterator, List, Optional, Tuple

from ..cluster.state import ClusterNode
from ..core.engine import CLITEConfig, CLITEEngine
from ..resources.allocation import Configuration
from ..server.node import Node
from ..server.obstore import ObservationStore, Verdict, verdict_key
from ..telemetry import NULL_TELEMETRY, Telemetry


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


class AdmissionProbe(ABC):
    """Decides whether a tentative node job set is QoS-feasible."""

    name: str = "probe"

    @abstractmethod
    def check(self, node_state: ClusterNode, seed: Optional[int]) -> bool:
        """True when ``node_state``'s job set can meet every LC QoS."""

    def memo_key(
        self, node_state: ClusterNode, seed: Optional[int]
    ) -> Optional[Hashable]:
        """Key under which the service may memoise ``check``'s verdict.

        Two calls with equal keys must get equal verdicts, and the key
        must name the probe itself, so a replaced probe never matches
        another's entries.  A key may name ``node_state``'s workloads by
        ``id``: the service's entry keeps them alive.  None, the
        default, means "do not memoise this probe".
        """
        return None

    def attach(
        self,
        store: Optional[ObservationStore],
        telemetry: Optional[Telemetry],
    ) -> None:
        """Adopt the owning service's shared store/telemetry context."""


class QoSBlindProbe(AdmissionProbe):
    """Admits every job set: packing that never asks about QoS."""

    name = "qos-blind"

    def check(self, node_state: ClusterNode, seed: Optional[int]) -> bool:
        return True


class QuickProbe(AdmissionProbe):
    """Noise-free screening over a fixed candidate-partition set.

    Candidates are the equal partition plus one LC-favoring partition
    per boost factor: LC jobs weigh ``boost * (0.15 + load)`` spare
    units, BG jobs weigh 1, each projected onto the feasible lattice by
    :meth:`~repro.resources.allocation.ConfigurationSpace.from_unit_cube`
    (largest-remainder rounding, deterministic tie-breaks) only once
    every candidate before it has failed.  A boost whose normalised
    weights repeat an earlier boost's is skipped: on a node of LC jobs
    only, every boost gives the same weights.  A node passes as soon as
    one candidate meets every LC QoS target.  Each candidate is asked
    for a bare verdict, :meth:`~repro.server.node.Node.qos_met` (LC
    jobs only, first violation stops, each p95 bisected only until its
    bracket decides), not for a full noise-free observation; the
    answer is the same bit for bit.

    One check costs about 0.012-0.46 ms (5th to 95th percentile over
    3,000 checks of random 1-5 job Tailbench/PARSEC mixes on the
    Table 2 testbed, one core of a 2-vCPU Intel Xeon host, three runs);
    the median is 0.04 ms for one job, 0.19-0.24 ms for four and
    0.26-0.31 ms for five.  That buys building the node, up to five QoS
    verdicts, and up to four scalar projections when the equal
    partition fails.  The node's configuration space and its jobs are
    shared with every other probe of the same shape and requests, so a
    check does not rebuild them.  These are direct calls: inside a
    service, a repeated check is answered by the verdict memo instead
    (see :meth:`memo_key`).
    """

    name = "quick"

    #: LC weight multipliers, mildest first: the earlier a candidate
    #: admits, the fewer truths are evaluated.
    BOOSTS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.seed = seed
        self._telemetry = NULL_TELEMETRY

    def attach(
        self,
        store: Optional[ObservationStore],
        telemetry: Optional[Telemetry],
    ) -> None:
        del store  # truths are evaluated directly; nothing to persist
        if telemetry is not None:
            self._telemetry = telemetry

    def _configs(self, node: Node) -> Iterator[Configuration]:
        """The equal partition, then the boosted candidates, lazily.

        Each boosted candidate is projected only when the caller asks
        past the one before it, i.e. after that one failed.  Its weights
        are each job's weight once per resource, over the row's peak
        (every weight is at least 0.15); a boost whose normalised row
        equals an earlier one's would project onto the same partition,
        so it is skipped.
        """
        space = node.space
        yield space.equal_partition()
        base = [
            0.15 + job.load.load_at(node.clock_s)
            if job.is_lc and job.load is not None
            else None
            for job in node.jobs
        ]
        repeat = range(space.n_resources)
        seen: List[List[float]] = []
        for boost in self.BOOSTS:
            weights = [1.0 if b is None else boost * b for b in base]
            peak = max(weights)
            row = [w / peak for w in weights]
            if row in seen:
                continue
            seen.append(row)
            yield space.from_unit_cube([w for w in row for _ in repeat])

    def memo_key(
        self, node_state: ClusterNode, seed: Optional[int]
    ) -> Optional[Hashable]:
        """(probe, seed, spec, then each request's workload and load).

        The verdict reads nothing else: request names never reach the
        physics, and a fresh node's clock is 0.  Workloads hold a dict,
        so they are keyed by identity (a stream shares its catalog
        objects).  The key is one flat tuple, to keep entries small.
        """
        key: List[Hashable] = [
            self,
            seed if seed is not None else self.seed,
            node_state.spec,
        ]
        for request in node_state.requests:
            key += (id(request.workload), request.load)
        return tuple(key)

    def check(self, node_state: ClusterNode, seed: Optional[int]) -> bool:
        node = node_state.build_node(
            seed=seed if seed is not None else self.seed
        )
        if not node.lc_indices:
            return True  # nothing with a QoS target to violate
        tried = set()
        met = False
        for config in self._configs(node):
            key = config.units
            if key in tried:
                continue
            tried.add(key)
            if node.qos_met(config):
                met = True
                break
        # One add per check: the series appears with the first truth,
        # exactly as when each truth was added on its own.
        self._telemetry.metrics.counter("warehouse.probe.truths").add(
            len(tried)
        )
        return met


class CLITEProbe(AdmissionProbe):
    """The full verification: a small-budget CLITE BO run per probe.

    Every QoS-aware placement goes through it: the warehouse probes
    each candidate node with it, and
    :func:`~repro.warehouse.service.place` with it is the batch CLITE
    placement.  With a store attached,
    ``check`` is memoised on (node physics, LC loads, seed, engine
    settings): a repeat returns the stored verdict without building an
    engine (``verify.memo.hits``, ``memo=True`` on the
    ``cluster.verify_node`` span).  A fresh probe runs the search,
    counts its windows on ``cluster.verify.samples`` (per node label),
    reads/feeds the store's truths, and publishes its verdict.
    Unseeded probes and engine configs with a custom acquisition or
    kernel always run the search.  It takes no service memo
    (``memo_key`` is None): ``place``'s final verification calls
    :func:`verify_node` too, so its verdicts stay in the store.
    """

    name = "clite"

    def __init__(self, engine_config: Optional[CLITEConfig] = None) -> None:
        self.engine_config = engine_config
        self._store: Optional[ObservationStore] = None
        self._telemetry: Optional[Telemetry] = None

    def attach(
        self,
        store: Optional[ObservationStore],
        telemetry: Optional[Telemetry],
    ) -> None:
        self._store = store
        self._telemetry = telemetry

    def check(self, node_state: ClusterNode, seed: Optional[int]) -> bool:
        qos_met, _ = verify_node(
            node_state,
            self.engine_config,
            seed,
            telemetry=self._telemetry,
            store=self._store,
        )
        return qos_met


def resolve_probe(
    probe: "AdmissionProbe | str",
    engine_config: Optional[CLITEConfig] = None,
) -> AdmissionProbe:
    """Probe instances pass through; ``"quick"``/``"clite"`` construct one."""
    if isinstance(probe, AdmissionProbe):
        return probe
    if probe == "quick":
        return QuickProbe()
    if probe == "clite":
        return CLITEProbe(engine_config)
    raise ValueError(f"unknown admission probe {probe!r} (quick or clite)")
