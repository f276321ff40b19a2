"""The long-lived, event-driven cluster scheduler service.

:class:`WarehouseService` owns one :class:`~repro.cluster.state.Cluster`
and runs it as a *service* over simulated time instead of a batch
``place(requests)`` call:

* **arrivals** pass admission control — candidate nodes densest-first,
  each probed with an :class:`~.admission.AdmissionProbe` on the
  tentative job set, fresh machine as fallback, rejection as last
  resort (the paper's "schedule it elsewhere", continuously);
* **departures** free their node's share and trigger re-verification of
  the survivors — and of nobody else;
* periodic **re-check ticks** re-verify exactly the nodes whose
  effective LC load vector (each job's
  :class:`~repro.workloads.loadgen.LoadSchedule` sampled at the tick)
  changed since their last verification, migrating jobs off nodes that
  can no longer meet QoS (see :mod:`.migration`).

The incremental discipline — *only displaced or load-shifted nodes are
ever re-verified* — is what makes warehouse scale affordable: an event
touches one node (arrival, departure) or the load-shifted subset (tick),
never the whole fleet, and the shared
:class:`~repro.server.obstore.ObservationStore` makes repeated probes of
recurring job sets near-free.  Every decision lands on the timeline as a
:class:`TimelineEntry`, timestamped on the simulated clock; two
same-seed runs produce bit-identical timelines.

Each event has one commit point: its handler reads the books, calls
probes and stages every change in a private ``_Plan`` that its later
steps read through; then :meth:`WarehouseService._apply`, the books'
only writer outside ``__init__``, writes the plan.  A probe that raises
mid-event leaves the books as they were.

:func:`place` is the batch face of the same service: it submits a
request stream at t=0 and verifies the nodes it filled.  The paper's
three placement generations are three ``(probe, cap)`` pairs of it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from heapq import merge
from itertools import filterfalse, islice
from typing import (
    Deque, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence,
    Set, Tuple,
)

from ..cluster.state import Cluster, ClusterNode, JobRequest, PlacementOutcome
from ..core.engine import CLITEConfig
from ..core.units import Seconds
from ..resources.contracts import placement_contract
from ..resources.spec import ServerSpec
from ..sanitizer.hooks import register_shared
from ..telemetry import NULL_TELEMETRY, CounterHandles, Telemetry
from ..telemetry.clock import SimulatedClock
from ..server.obstore import ObservationStore
from ..workloads.loadgen import LoadSchedule
from .admission import AdmissionProbe, resolve_probe, verify_node
from .events import (
    Arrival,
    Departure,
    EventLoop,
    Payload,
    Recheck,
    WarehouseJob,
)
from .migration import MigrationModel, MigrationRecord

#: Engine settings for full-CLITE admission probes: smaller than the
#: batch :data:`~.admission.PLACEMENT_ENGINE` because a
#: service probes continuously, and a warm observation store shoulders
#: most of the cost anyway.
PROBE_ENGINE = CLITEConfig(
    max_iterations=12,
    post_qos_iterations=3,
    refine_budget=4,
    confirm_top=1,
    n_restarts=2,
)

#: Timeline entries kept per service (a deque, so an unbounded scenario
#: cannot grow memory without bound; tests use far fewer).
TIMELINE_LIMIT = 65536


@dataclass(frozen=True)
class TimelineEntry:
    """One scheduling decision at one instant of simulated time.

    Attributes:
        time_s: Simulated time of the decision.
        seq: The event's deterministic sequence id.
        kind: ``admit``, ``reject``, ``depart``, ``migrate``, ``drop``,
            ``recheck``, or ``violation``.
        job: Job name the decision concerns (empty for re-check ticks).
        node: Node index involved (-1 when none is).
        detail: Short human-readable qualifier (rejection reason,
            re-check tally, migration source).
        verified: Node indices re-verified while making this decision —
            the incremental-re-verification contract, asserted in tests.
    """

    time_s: Seconds
    seq: int
    kind: str
    job: str = ""
    node: int = -1
    detail: str = ""
    verified: Tuple[int, ...] = ()


@dataclass
class _Placed:
    """Book-keeping for one admitted job."""

    job: WarehouseJob
    node: int


class _Plan:
    """One event's decisions, staged against the books.

    Planners read node states, job homes and verified load vectors
    through the plan, pending values first, so a later step of the same
    event sees the earlier ones; :meth:`WarehouseService._apply` then
    writes them all.  Each mapping keeps the last write per key.
    """

    __slots__ = ("t", "nodes", "homes", "verified_at", "dirty", "entries",
                 "moves", "tallies")

    def __init__(self, t: Seconds) -> None:
        self.t = t
        #: node index -> its pending state.
        self.nodes: Dict[int, ClusterNode] = {}
        #: job name -> its pending home, or None once it is gone.
        self.homes: Dict[str, Optional[_Placed]] = {}
        #: node index -> the load vector it was verified at (None: unset).
        self.verified_at: Dict[int, Optional[Tuple[float, ...]]] = {}
        #: node index -> whether the next recheck must visit it.
        self.dirty: Dict[int, bool] = {}
        #: Timeline entry fields after ``(time_s, seq)``.
        self.entries: List[Tuple[str, str, int, str, Tuple[int, ...]]] = []
        self.moves: List[MigrationRecord] = []
        #: ``(status() count, delta, warehouse.* counter or "", labels)``.
        self.tallies: List[Tuple[str, int, str, Dict[str, str]]] = []

    def put(self, index: int, state: ClusterNode) -> None:
        """A node's new job set: a node hosting LC jobs turns dirty."""
        self.nodes[index] = state
        self.dirty[index] = bool(state.lc_requests)

    def count(self, key: str, metric: str = "", n: int = 1,
              **labels: str) -> None:
        self.tallies.append((key, n, metric, labels))

    def log(self, kind: str, job: str = "", node: int = -1, detail: str = "",
            verified: Tuple[int, ...] = ()) -> None:
        self.entries.append((kind, job, node, detail, verified))


def _request_at(job: WarehouseJob, t: Seconds) -> JobRequest:
    """The point-in-time placement request for ``job`` at time ``t``."""
    return JobRequest(job.workload, job.load_at(t), name=job.name)


class WarehouseService:
    """An event-driven scheduler over one cluster (or one shard of one).

    Args:
        n_nodes: Fleet size.
        spec: Homogeneous node spec (default: the paper's testbed).
        specs: Per-node specs for a heterogeneous fleet.
        probe: Admission probe — ``"quick"`` (noise-free candidate
            screen, the scale default), ``"clite"`` (full BO
            verification), or any :class:`~.admission.AdmissionProbe`.
        engine_config: Engine settings for ``"clite"`` probes
            (default :data:`PROBE_ENGINE`).
        seed: Seed threaded through every probe — one seed, one
            timeline.
        max_jobs_per_node: Co-location cap per node.
        recheck_period_s: Simulated seconds between QoS re-check ticks
            (None disables ticks).
        migration: Cost model and victim selection for QoS-driven moves.
        clock: The simulated clock to drive (shared with a federation
            root or a telemetry context; a fresh one by default).
        telemetry: Optional telemetry context; every event is wrapped in
            a ``warehouse.event`` span and counted on ``warehouse.*``
            metrics.
        store: Optional shared observation store for ``"clite"`` probes.
        max_probe_nodes: Densest-first candidate nodes probed per
            admission before falling back to a fresh machine (the
            power-of-k-choices bound that keeps admission O(1) in fleet
            size).

    Probe verdicts are memoised per service (see :meth:`_check_node`),
    up to :attr:`VERDICT_MEMO_MAX_ENTRIES` keys; a full memo stops
    inserting rather than evicting, so what it holds is a pure function
    of the probe sequence.

    The service is single-threaded by design — determinism comes from
    processing events in ``(time, seq)`` order.  Its state is registered
    with ``repro-san`` so a sanitized run of the HTTP control plane can
    show that only the driver thread ever touches it.
    """

    #: Probe verdicts kept before new keys stop being memoised.  A
    #: churn-quick shard stores ~2,000 quick verdicts at ~380 bytes
    #: each, so a full memo holds ~3 MB.
    VERDICT_MEMO_MAX_ENTRIES = 8192

    def __init__(
        self,
        n_nodes: int,
        spec: Optional[ServerSpec] = None,
        specs: Optional[List[ServerSpec]] = None,
        probe: "AdmissionProbe | str" = "quick",
        engine_config: Optional[CLITEConfig] = None,
        seed: Optional[int] = 0,
        max_jobs_per_node: int = 4,
        recheck_period_s: Optional[Seconds] = None,
        migration: Optional[MigrationModel] = None,
        clock: Optional[SimulatedClock] = None,
        telemetry: Optional[Telemetry] = None,
        store: Optional[ObservationStore] = None,
        max_probe_nodes: int = 8,
    ) -> None:
        if max_jobs_per_node < 1:
            raise ValueError("max_jobs_per_node must be >= 1")
        if max_probe_nodes < 1:
            raise ValueError("max_probe_nodes must be >= 1")
        if spec is not None and specs is not None:
            raise ValueError("give spec or specs, not both")
        if specs is not None:
            self.cluster = Cluster(n_nodes=n_nodes, specs=specs)
        elif spec is not None:
            self.cluster = Cluster(n_nodes=n_nodes, spec=spec)
        else:
            self.cluster = Cluster(n_nodes=n_nodes)
        self.probe = resolve_probe(
            probe, engine_config if engine_config is not None else PROBE_ENGINE
        )
        self.seed = seed
        self.max_jobs_per_node = max_jobs_per_node
        self.max_probe_nodes = max_probe_nodes
        self.migration = migration if migration is not None else MigrationModel()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.store = store
        self.probe.attach(store, self.telemetry)
        self.loop = EventLoop(clock=clock, recheck_period_s=recheck_period_s)
        self._jobs: Dict[str, _Placed] = {}
        #: node index -> the LC load vector in force at last verification.
        self._last_verified: Dict[int, Tuple[float, ...]] = {}
        #: Density index: bucket ``d`` holds the sorted indices of nodes
        #: running ``d`` jobs (bucket 0 is the free pool).  Maintained by
        #: :meth:`_apply` so admission walks buckets densest-first
        #: instead of scanning the fleet.
        self._by_density: List[List[int]] = [list(range(n_nodes))] + [
            [] for _ in range(max_jobs_per_node)
        ]
        self._density_of: List[int] = [0] * n_nodes
        #: Sorted indices of nodes hosting a phased-load LC job — the
        #: only nodes whose QoS can drift without a placement change.
        self._volatile_nodes: List[int] = []
        #: Nodes whose job set changed since their last recheck visit.
        self._recheck_dirty: Set[int] = set()
        #: The check path's counter handles, labelled by node index.
        self._counter = CounterHandles(self.telemetry.metrics, "node")
        #: Probe memo key -> (verdict, the workloads it was asked on).
        self._verdicts: Dict[Hashable, Tuple[bool, Tuple[object, ...]]] = {}
        self._timeline: Deque[TimelineEntry] = deque(maxlen=TIMELINE_LIMIT)
        self._timeline_dropped = 0
        self._migrations: Deque[MigrationRecord] = deque(maxlen=TIMELINE_LIMIT)
        self._counts: Dict[str, int] = dict.fromkeys((
            "arrivals", "admitted", "rejections", "departures", "migrations",
            "dropped", "rechecks", "recheck_failures", "qos_checks",
            "qos_check_failures",
        ), 0)
        self.migration_cost_s: float = 0.0
        register_shared(
            self,
            name=f"WarehouseService@{id(self):x}",
            container_attrs=(
                "_jobs", "_last_verified", "_by_density", "_density_of",
                "_volatile_nodes", "_recheck_dirty",
            ),
        )

    # ------------------------------------------------------------------
    # Public service surface
    # ------------------------------------------------------------------
    @property
    def now_s(self) -> Seconds:
        """Current simulated time."""
        return self.loop.now_s

    @property
    def timeline(self) -> Tuple[TimelineEntry, ...]:
        """Every decision taken so far, oldest first."""
        return tuple(self._timeline)

    @property
    def timeline_len(self) -> int:
        """Total decisions ever recorded, including aged-out entries."""
        return self._timeline_dropped + len(self._timeline)

    def timeline_since(self, cursor: int) -> Tuple[TimelineEntry, ...]:
        """Entries recorded at or after absolute position ``cursor``.

        ``cursor`` is a prior :attr:`timeline_len` reading; entries that
        aged out of the bounded deque before ``cursor`` are gone either
        way, so rolling reports can poll incrementally instead of
        re-copying the whole timeline every slice.
        """
        start = max(cursor - self._timeline_dropped, 0)
        return tuple(islice(self._timeline, start, None))

    @property
    def migrations(self) -> Tuple[MigrationRecord, ...]:
        return tuple(self._migrations)

    def submit(self, job: WarehouseJob, at: Seconds) -> int:
        """Schedule an arrival; returns its deterministic sequence id."""
        return self.loop.schedule(at, Arrival(job))

    def depart(self, name: str, at: Seconds) -> int:
        """Schedule a departure of the named job."""
        return self.loop.schedule(at, Departure(name))

    def run_until(self, t: Seconds) -> int:
        """Process every event with time <= ``t``; returns the count."""
        return self.loop.run_until(t, self.handle_event)

    @property
    def jobs_running(self) -> int:
        return len(self._jobs)

    def has_job(self, name: str) -> bool:
        return name in self._jobs

    def run_to_completion(self) -> Dict[str, object]:
        """Drain every queued event, then report :meth:`status`."""
        last = self.loop.queue.last_time()
        if last is not None:
            self.run_until(last)
        return self.status()

    @property
    def nodes_used(self) -> int:
        """Occupied-node count, O(1) off the density index."""
        return len(self.cluster.nodes) - len(self._by_density[0])

    def status(self) -> Dict[str, object]:
        """A JSON-able operational snapshot (the ``GET /status`` body)."""
        used = self.nodes_used
        total = len(self.cluster.nodes)
        checks = self._counts["qos_checks"]
        failures = self._counts["qos_check_failures"]
        lc_jobs = sum(1 for p in self._jobs.values() if p.job.is_lc)
        return {
            "time_s": self.now_s,
            "nodes_total": total,
            "nodes_used": used,
            "utilization": used / total,
            "jobs_running": len(self._jobs),
            "lc_jobs": lc_jobs,
            "bg_jobs": len(self._jobs) - lc_jobs,
            "pending_events": len(self.loop.queue),
            "qos_met_fraction": (
                1.0 if checks == 0 else (checks - failures) / checks
            ),
            "migration_cost_s": self.migration_cost_s,
            **self._counts,
        }

    def placements(self) -> Dict[str, int]:
        """Job name -> node index for every running job."""
        return {name: placed.node for name, placed in self._jobs.items()}

    # ------------------------------------------------------------------
    # Federation primitives (side-effect-free probe, separate commit)
    # ------------------------------------------------------------------
    def probe_admit(
        self, job: WarehouseJob, t: Seconds
    ) -> Tuple[Optional[int], Optional[_Plan], Tuple[int, ...]]:
        """Find a home for ``job`` at ``t`` without committing anything.

        Returns ``(node_index, plan, verified_nodes)``: the plan stages
        the admission for :meth:`commit_admit`, and it and the index are
        None when no node admits the job.  The search only reads the
        books, so a federation root may probe shards that end up
        rejecting without disturbing them.
        """
        if job.name in self._jobs:
            return None, None, ()
        plan = _Plan(t)
        target, verified = self._plan_admit(plan, job)
        return target, None if target is None else plan, verified

    def commit_admit(self, plan: _Plan, seq: int) -> None:
        """Apply a plan whose admission succeeded, as event ``seq``."""
        self._apply(plan, seq)

    # ------------------------------------------------------------------
    # Event handling: each handler plans against the books, then applies
    # ------------------------------------------------------------------
    def handle_event(self, t: Seconds, seq: int, payload: Payload) -> None:
        """Process one event *now* — the loop's (and federation's) hook.

        Without an active tracer the ``warehouse.event`` span is a no-op,
        so it is not built.
        """
        tracer = self.telemetry.tracer
        if not tracer.active:
            self._dispatch(t, seq, payload)
            return
        kind = type(payload).__name__.lower()
        with tracer.span("warehouse.event", kind=kind, seq=seq) as span:
            self._dispatch(t, seq, payload)
            span.set("time_s", t)

    def _dispatch(self, t: Seconds, seq: int, payload: Payload) -> None:
        if isinstance(payload, Arrival):
            self._on_arrival(t, seq, payload.job)
        elif isinstance(payload, Departure):
            self._on_departure(t, seq, payload.name)
        elif isinstance(payload, Recheck):
            self._on_recheck(t, seq)

    def _on_arrival(self, t: Seconds, seq: int, job: WarehouseJob) -> None:
        plan = _Plan(t)
        plan.count("arrivals", "warehouse.arrivals")
        reason = "duplicate-name"
        verified: Tuple[int, ...] = ()
        if job.name not in self._jobs:
            target, verified = self._plan_admit(plan, job)
            if target is not None:
                self.commit_admit(plan, seq)
                return
            reason = "capacity"
        plan.count("rejections", "warehouse.rejections", reason=reason)
        plan.log("reject", job.name, detail=reason, verified=verified)
        self._apply(plan, seq)

    def _on_departure(self, t: Seconds, seq: int, name: str) -> None:
        plan = _Plan(t)
        plan.count("departures", "warehouse.departures")
        placed = self._jobs.get(name)
        if placed is None:
            plan.log("depart", name, detail="unknown")
        else:
            index = placed.node
            plan.homes[name] = None
            survivors = self.cluster.nodes[index].without_request(name)
            plan.put(index, survivors)
            verified: Tuple[int, ...] = ()
            if survivors.n_jobs:
                # Only the displaced node is re-verified: the departure
                # changed nobody else's co-runners.
                verified = self._rebalance_node(
                    plan, index, self._loads_of(plan, index)
                )
            else:
                plan.verified_at[index] = None
            plan.log("depart", name, index, verified=verified)
        self._apply(plan, seq)

    def _on_recheck(self, t: Seconds, seq: int) -> None:
        plan = _Plan(t)
        plan.count("rechecks", "warehouse.rechecks")
        checked = failed = 0
        verified_all: List[int] = []
        # Visit only nodes whose QoS could have moved since their last
        # verification: hosts of phased-load LC jobs (volatile) plus
        # nodes whose job set changed since the last tick (dirty) —
        # never the whole fleet.  Ascending index order matches the old
        # full scan, so same-seed timelines stay bit-identical.
        candidates = sorted(set(self._volatile_nodes) | self._recheck_dirty)
        for index in candidates:
            failing = False
            if self._node(plan, index).lc_requests:
                loads = self._loads_of(plan, index)
                if self._verified_at(plan, index) != loads:
                    checked += 1
                    verified_all += self._rebalance_node(plan, index, loads)
                    failing = self._verified_at(plan, index) != loads
                    failed += failing
            # A persistent violation stays on the recheck list: the old
            # full scan revisited it every tick, and so do we.
            plan.dirty[index] = failing
        if failed:
            plan.count("recheck_failures", n=failed)
        plan.log("recheck", detail=f"checked={checked} failed={failed}",
                 verified=tuple(verified_all))
        self._apply(plan, seq)

    # ------------------------------------------------------------------
    # Planning: reads the books through the plan, writes only the plan
    # ------------------------------------------------------------------
    def _node(self, plan: _Plan, index: int) -> ClusterNode:
        """Node ``index`` as ``plan`` leaves it."""
        return plan.nodes.get(index) or self.cluster.nodes[index]

    def _verified_at(
        self, plan: _Plan, index: int
    ) -> Optional[Tuple[float, ...]]:
        """The load vector node ``index`` was last verified at, as
        ``plan`` leaves it (None: not verified since its last change)."""
        pending = plan.verified_at
        if index in pending:
            return pending[index]
        return self._last_verified.get(index)

    def _refreshed(self, node_state: ClusterNode, t: Seconds) -> ClusterNode:
        """The node with every LC request's load resampled at ``t``.

        A request whose effective load is unchanged is kept as it is
        (it equals the one :func:`_request_at` would build), so its
        node job is not rebuilt.
        """
        requests = []
        for request in node_state.requests:
            placed = self._jobs.get(request.request_name) if request.is_lc else None
            if placed is not None:
                job = placed.job
                load = job.load_at(t)
                if (
                    request.workload is not job.workload
                    or request.load != load
                    or request.name != job.name
                ):
                    request = JobRequest(job.workload, load, name=job.name)
            requests.append(request)
        return ClusterNode(
            index=node_state.index, spec=node_state.spec, requests=requests
        )

    def _loads_of(self, plan: _Plan, index: int) -> Tuple[float, ...]:
        """Effective LC load vector of one node at the plan's time, in
        request order, as ``plan`` leaves the node."""
        t, homes = plan.t, plan.homes
        loads = []
        node_state = plan.nodes.get(index) or self.cluster.nodes[index]
        for request in node_state.requests:
            if not request.is_lc:
                continue
            name = request.request_name
            placed = homes[name] if name in homes else self._jobs.get(name)
            if placed is not None:
                load = placed.job.load_at(t)
                loads.append(load if load is not None else 0.0)
        return tuple(loads)

    def _check_node(
        self, node_state: ClusterNode, verified_out: List[int]
    ) -> bool:
        """One probe of one (tentative) node state, counted per node.

        A probe that gives a :meth:`~.admission.AdmissionProbe.memo_key`
        is asked once per key: later checks replay the memoised verdict
        (``warehouse.probe.memo.hits``; first asks count as ``.misses``).
        """
        index = node_state.index
        verified_out.append(index)
        self._counter("warehouse.verify.nodes", index).add()
        key = self.probe.memo_key(node_state, self.seed)
        if key is None:
            return self.probe.check(node_state, self.seed)
        entry = self._verdicts.get(key)
        if entry is not None:
            self._counter("warehouse.probe.memo.hits").add()
            return entry[0]
        self._counter("warehouse.probe.memo.misses").add()
        verdict = self.probe.check(node_state, self.seed)
        if len(self._verdicts) < self.VERDICT_MEMO_MAX_ENTRIES:
            # The entry keeps the workloads alive, so no id the key
            # names can be reused while it lives.
            self._verdicts[key] = (
                verdict, tuple(r.workload for r in node_state.requests)
            )
        return verdict

    def _walk(self, plan: _Plan, density: int) -> Iterable[int]:
        """Indices of the nodes ``plan`` leaves at ``density``, ascending.

        The committed bucket without the nodes the plan touched, merged
        lazily with the touched ones now at that density: no bucket is
        copied, and an untouched plan walks the bucket itself.
        """
        bucket = self._by_density[density]
        pending = plan.nodes
        if not pending:
            return bucket
        cap = self.max_jobs_per_node
        moved = sorted(index for index, state in pending.items()
                       if min(state.n_jobs, cap) == density)
        return merge(filterfalse(pending.__contains__, bucket), moved)

    def _find_target(
        self,
        plan: _Plan,
        job: WarehouseJob,
        exclude: FrozenSet[int] = frozenset(),
    ) -> Tuple[Optional[int], Optional[ClusterNode], Tuple[int, ...]]:
        """CLITE-style target search: densest occupied first, probed;
        fresh machine as fallback (through ``can_host``); else None.

        The density index makes the walk fleet-size-independent: buckets
        descend from the densest co-location level, each kept sorted by
        node index, so the visit order equals the historical full-fleet
        ``sorted(candidates, key=(-n_jobs, index))`` without ever
        materializing an n_nodes-sized candidate set
        (``TestFleetSizeIndependence`` counts the lines an event runs
        on fleets 20x apart), and the deterministic bucket order keeps
        the probe sequence a pure function of the books and the plan
        (``TestIndexEquivalence`` compares it against a full scan).
        """
        t = plan.t
        pending, nodes = plan.nodes, self.cluster.nodes
        request = _request_at(job, t)
        verified: List[int] = []
        probed = 0
        for density in range(self.max_jobs_per_node - 1, 0, -1):
            for index in self._walk(plan, density):
                if index in exclude:
                    continue
                node_state = pending.get(index) or nodes[index]
                if not node_state.can_host(request):
                    continue
                probed += 1
                tentative = self._refreshed(node_state, t).with_request(
                    request
                )
                if not tentative.lc_requests:
                    # BG-only nodes carry no QoS target: admit
                    # structurally.
                    return index, tentative, tuple(verified)
                if self._check_node(tentative, verified):
                    return index, tentative, tuple(verified)
                if probed >= self.max_probe_nodes:
                    break
            else:
                continue
            break
        for index in self._walk(plan, 0):
            if index in exclude:
                continue
            node_state = pending.get(index) or nodes[index]
            if node_state.can_host(request):
                return index, node_state.with_request(request), tuple(verified)
        return None, None, tuple(verified)

    def _plan_admit(
        self, plan: _Plan, job: WarehouseJob
    ) -> Tuple[Optional[int], Tuple[int, ...]]:
        """Stage ``job``'s admission on the node :meth:`_find_target`
        picks; returns that node (None if none) and the nodes probed."""
        target, tentative, verified = self._find_target(plan, job)
        if target is None or tentative is None:
            return None, verified
        plan.put(target, tentative)
        plan.homes[job.name] = _Placed(job, target)
        plan.verified_at[target] = self._loads_of(plan, target)
        plan.count("admitted")
        plan.log("admit", job.name, target, verified=verified)
        return target, verified

    def _rebalance_node(
        self, plan: _Plan, index: int, loads: Tuple[float, ...]
    ) -> Tuple[int, ...]:
        """Re-verify one displaced/load-shifted node; migrate if it fails.

        ``loads`` is the node's current effective LC load vector — every
        caller has it in hand already, so it is threaded through instead
        of recomputed here; evictions change the job set, so the loop
        refreshes it after each one.  Returns the node indices verified
        along the way.  On success the plan records the node's load
        vector as verified; on persistent failure (the last survivor
        still violates QoS) it records a ``violation`` entry instead.
        """
        t = plan.t
        verified: List[int] = []
        node_state = self._refreshed(self._node(plan, index), t)
        plan.nodes[index] = node_state
        plan.count("qos_checks")
        ok = not node_state.lc_requests or self._check_node(
            node_state, verified
        )
        evictions = 0
        while (
            not ok
            and node_state.n_jobs > 1
            and evictions < self.migration.max_evictions_per_check
        ):
            victim = self.migration.select_victim(node_state, t)
            if victim is None:
                break
            evictions += 1
            node_state = node_state.without_request(victim.request_name)
            plan.put(index, node_state)
            self._migrate(plan, victim.request_name, index, verified)
            loads = self._loads_of(plan, index)
            ok = not node_state.lc_requests or self._check_node(
                node_state, verified
            )
        if ok:
            plan.verified_at[index] = loads
        else:
            plan.count("qos_check_failures", "warehouse.qos.violations")
            plan.verified_at[index] = None
            plan.dirty[index] = True
            plan.log("violation", node=index, detail="qos-unmet")
        return tuple(verified)

    def _migrate(
        self, plan: _Plan, name: str, source: int, verified_out: List[int]
    ) -> None:
        """Re-admit an evicted job elsewhere, charging the modeled cost."""
        placed = self._jobs[name]
        target, tentative, verified = self._find_target(
            plan, placed.job, exclude=frozenset((source,))
        )
        verified_out.extend(verified)
        if target is None or tentative is None:
            # Nowhere to go: the job is dropped and counted with the
            # rejections (reason=migration), like a failed re-admission.
            plan.homes[name] = None
            plan.count("dropped")
            plan.count("rejections", "warehouse.rejections", reason="migration")
            plan.moves.append(MigrationRecord(plan.t, name, source, -1, 0.0))
            plan.log("drop", name, source, "no-target", verified)
            return
        plan.put(target, tentative)
        plan.homes[name] = _Placed(placed.job, target)
        plan.verified_at[target] = self._loads_of(plan, target)
        plan.count("migrations", "warehouse.migrations")
        cost = self.migration.cost_s
        plan.moves.append(MigrationRecord(plan.t, name, source, target, cost))
        plan.log("migrate", name, target, f"from={source}", verified)

    def _apply(self, plan: _Plan, seq: int) -> None:
        """Write one event's plan to the books, as event ``seq``.

        The only writer, outside ``__init__``, of the job homes, the
        node states, the density, volatile and dirty indices, the
        verified load vectors, the counts, the timeline, the migration
        log and ``migration_cost_s``.  A planner that raises never gets
        here, so it leaves all of them as they were.
        """
        jobs = self._jobs
        for name, placed in plan.homes.items():
            if placed is None:
                del jobs[name]
            else:
                jobs[name] = placed
        nodes = self.cluster.nodes
        for index, state in plan.nodes.items():
            nodes[index] = state
            self._sync_index(index)
        last_verified = self._last_verified
        for index, loads in plan.verified_at.items():
            if loads is None:
                last_verified.pop(index, None)
            else:
                last_verified[index] = loads
        dirty = self._recheck_dirty
        for index, stale in plan.dirty.items():
            if stale:
                dirty.add(index)
            else:
                dirty.discard(index)
        counts, metrics = self._counts, self.telemetry.metrics
        for key, n, metric, labels in plan.tallies:
            counts[key] += n
            if metric:
                metrics.counter(metric, **labels).add()
        for record in plan.moves:
            self._migrations.append(record)
            if record.succeeded:
                self.migration_cost_s += record.cost_s
                metrics.counter("warehouse.migration.cost_s").add(record.cost_s)
        timeline = self._timeline
        for fields in plan.entries:
            if len(timeline) == TIMELINE_LIMIT:
                self._timeline_dropped += 1
            timeline.append(TimelineEntry(plan.t, seq, *fields))
        # A plan applies once; dropping what it staged frees it here, not
        # in the federation router that holds the plan past commit_admit.
        del plan.nodes, plan.homes, plan.verified_at, plan.dirty
        del plan.entries, plan.moves, plan.tallies

    def _sync_index(self, index: int) -> None:
        """Re-home one node in the density and volatile indices.

        :meth:`_apply` calls it for every node a plan touched.  The two
        sorted lists are bisect-maintained — O(bucket) per node, see
        EXPERIMENTS.md — which is what lets admission and recheck never
        scan the fleet.
        """
        node_state = self.cluster.nodes[index]
        density = min(node_state.n_jobs, self.max_jobs_per_node)
        previous = self._density_of[index]
        if density != previous:
            bucket = self._by_density[previous]
            bucket.pop(bisect_left(bucket, index))
            insort(self._by_density[density], index)
            self._density_of[index] = density
        volatile = False
        for request in node_state.requests:
            if request.is_lc:
                placed = self._jobs.get(request.request_name)
                if placed is not None and not placed.job.has_static_load:
                    volatile = True
                    break
        pos = bisect_left(self._volatile_nodes, index)
        present = (
            pos < len(self._volatile_nodes)
            and self._volatile_nodes[pos] == index
        )
        if volatile and not present:
            self._volatile_nodes.insert(pos, index)
        elif not volatile and present:
            self._volatile_nodes.pop(pos)


@placement_contract
def place(
    cluster: Cluster,
    requests: Sequence[JobRequest],
    probe: AdmissionProbe,
    max_jobs_per_node: int,
    seed: Optional[int] = 0,
    *,
    verify: bool = True,
    telemetry: Optional[Telemetry] = None,
    store: Optional[ObservationStore] = None,
) -> PlacementOutcome:
    """Place a request stream on an empty cluster, then verify each node.

    A :class:`WarehouseService` over the cluster's node specs runs
    ``probe`` at ``max_jobs_per_node``: every request is submitted at
    t=0 as a constant-load job in stream order, and the resulting nodes
    are copied back into ``cluster``.  So there is one search,
    :meth:`WarehouseService._find_target`: occupied nodes densest-first,
    each accepted if the probe admits the tentative job set (BG-only
    job sets are accepted structurally), then a fresh machine, then
    rejection.  Every occupied candidate is probed (``max_probe_nodes``
    is the fleet size).  The paper's three generations are
    :class:`~.admission.QoSBlindProbe` at cap 1 (dedicated machines),
    the same probe at cap 4 (QoS-blind first fit) and
    :class:`~.admission.CLITEProbe` at cap 4 ("schedule it elsewhere").

    ``cluster`` must be empty (``ValueError`` otherwise), and a request
    whose name is already placed is rejected, as the warehouse rejects a
    ``duplicate-name`` arrival.  An LC load below the warehouse's
    :data:`~.events.MIN_PROBE_LOAD` is placed and verified at that
    floor.  With ``verify``, each used node gets one
    :func:`~.admission.verify_node` run for the outcome's
    ``node_reports``, under the probe's ``engine_config`` (a
    :class:`~.admission.CLITEProbe`'s; :data:`~.admission.PLACEMENT_ENGINE`
    for probes without one).  ``telemetry`` defaults to that config's.
    """
    if cluster.used_nodes():
        raise ValueError("place needs an empty cluster")
    engine_config: Optional[CLITEConfig] = getattr(probe, "engine_config", None)
    if telemetry is None and engine_config is not None:
        telemetry = engine_config.telemetry
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    spans_before = tel.tracer.finished_count
    with tel.tracer.span(
        "cluster.place",
        probe=probe.name,
        cap=max_jobs_per_node,
        requests=len(requests),
    ):
        service = WarehouseService(
            len(cluster.nodes),
            specs=[node.spec for node in cluster.nodes],
            probe=probe,
            seed=seed,
            max_jobs_per_node=max_jobs_per_node,
            telemetry=tel,
            store=store,
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
    reports: Dict[int, Tuple[bool, Optional[float]]] = {}
    if verify:
        with tel.tracer.span("cluster.verify") as span:
            for state in cluster.used_nodes():
                reports[state.index] = verify_node(
                    state, engine_config, seed, telemetry=tel, store=store
                )
            span.set("nodes", len(reports))
    return PlacementOutcome(
        placements=cluster.placements(),
        rejected=tuple(e.job for e in service.timeline if e.kind == "reject"),
        machines_used=cluster.machines_used(),
        node_reports=reports,
        telemetry=(
            tel.snapshot(spans_since=spans_before) if tel.active else None
        ),
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
