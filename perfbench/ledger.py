"""Outside-in per-layer ledger: spans around calls into the program.

The program gets no new spans.  Instead, :class:`Ledger` replaces public
methods on the classes that define them with thin wrappers that open a
span on a :class:`repro.telemetry.Tracer` (wall clock), so a traced run
can say how much of its timed wall time each layer spent.  Wrapping the
defining class — never a module function re-bound by ``from`` imports —
is what makes every caller, including ones inside the program, go
through the wrapper.

Wrappers exist only inside ``with Ledger() as ledger:``.  A ledger that
is never entered wraps nothing, so untraced rounds drive the program
exactly as it ships and take their counts from the program's own
counters; the few counts the program does not keep (probe verdicts and
repeats, empty proposals, predicted rows) are recorded only here.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.engine import CLITEEngine
from repro.core.gp import GaussianProcess
from repro.core.optimizer import AcquisitionOptimizer
from repro.cluster.state import ClusterNode
from repro.resources.allocation import ConfigurationSpace
from repro.resources.isolation import IsolationManager
from repro.schedulers import CLITEPolicy
from repro.server.node import Node
from repro.server.obstore import ObservationStore
from repro.telemetry import MetricRegistry, Telemetry, Tracer, WallClock, write_jsonl
from repro.warehouse import (
    CLITEProbe,
    QuickProbe,
    WarehouseFederation,
    WarehouseService,
)

#: (class, method, span name) for every wrapped public method.
SPANS: Tuple[Tuple[type, str, str], ...] = (
    (CLITEPolicy, "partition", "schedulers.clite.partition"),
    (WarehouseFederation, "run_until", "warehouse.federation.run_until"),
    (WarehouseService, "run_until", "warehouse.service.run_until"),
    (WarehouseService, "handle_event", "warehouse.service.handle_event"),
    (WarehouseService, "probe_admit", "warehouse.service.probe_admit"),
    (WarehouseService, "commit_admit", "warehouse.service.commit_admit"),
    (QuickProbe, "check", "warehouse.admission.check"),
    (CLITEProbe, "check", "warehouse.admission.check"),
    (CLITEEngine, "optimize", "core.engine.optimize"),
    (AcquisitionOptimizer, "propose", "core.optimizer.propose"),
    (AcquisitionOptimizer, "propose_exploit", "core.optimizer.propose_exploit"),
    (GaussianProcess, "fit", "core.gp.fit"),
    (GaussianProcess, "add_sample", "core.gp.add_sample"),
    (GaussianProcess, "predict", "core.gp.predict"),
    (ClusterNode, "build_node", "cluster.state.build_node"),
    (Node, "observe", "server.node.observe"),
    (Node, "true_performance", "server.node.true_performance"),
    (IsolationManager, "apply", "resources.isolation.apply"),
    (ConfigurationSpace, "from_unit_cube", "resources.allocation.from_unit_cube"),
    (ConfigurationSpace, "equal_partition", "resources.allocation.equal_partition"),
    (ObservationStore, "get", "server.obstore.get"),
    (ObservationStore, "put", "server.obstore.put"),
    (ObservationStore, "flush", "server.obstore.flush"),
)

#: Span names in report order (the two probe classes share one name).
#: ``server.obstore.open`` is opened by the workload around the store
#: constructor, which reloads the file on a restart.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [name for _, _, name in SPANS] + ["server.obstore.open"]
))

#: The decision spans the workloads step through.  Their self time is
#: the part of a decision no named layer below them accounts for, so it
#: counts as unattributed, like the harness's own time between them.
ROOT_SPANS = frozenset({
    "schedulers.clite.partition",
    "warehouse.federation.run_until",
    "warehouse.service.run_until",
})

#: Span capacity.  A traced round records 50-150 thousand spans (every
#: physics call, allocation rounding and GP prediction is one), too close
#: to the Tracer default of 200_000 to leave room for a larger stream.
MAX_RECORDS = 1_000_000

#: A counting hook: (call arguments, result).
Hook = Callable[[tuple, Any], None]


class Ledger:
    """Wrap the program's layers, record spans and the counts the
    program does not keep.

    Use as a context manager: wrappers are installed on entry and the
    original methods restored on exit.  Spans and counts are recorded
    only while :attr:`recording` is true, so work the workload does
    outside its timed segments (checks, set-up) stays off the books.
    """

    def __init__(self) -> None:
        self.tracer = Tracer(clock=WallClock(), max_records=MAX_RECORDS)
        self.recording = False
        self.installed = False
        #: Decision id stamped on every span: the workload counts it up
        #: once per partition run or warehouse ``run_until`` step.
        self.decision = -1
        self.counts: Dict[str, int] = {}
        self._restore: List[Tuple[type, str, Any]] = []
        #: Probe inputs seen so far, for the repeated-probe share.
        self._seen_probes: set = set()

    # ------------------------------------------------------------------
    # Counting hooks, called after each wrapped call with its arguments
    # and its result.
    # ------------------------------------------------------------------
    def _add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _probed(self, key: Tuple[Any, ...]) -> None:
        self._add("probes")
        self._add("probes_repeated", int(key in self._seen_probes))
        self._seen_probes.add(key)

    def _on_check(self, args: tuple, result: bool) -> None:
        probe, node_state, seed = args[0], args[1], args[2]
        self._probed((
            type(probe).__name__,
            seed,
            tuple((r.workload.name, r.load) for r in node_state.requests),
        ))
        self._add("checks_admitted", int(bool(result)))

    def _on_partition(self, args: tuple, result: Any) -> None:
        node = args[1]
        self._probed(tuple((j.workload.name, repr(j.load)) for j in node.jobs))

    def _on_proposal(self, args: tuple, result: Any) -> None:
        self._add("proposals")
        self._add("proposals_empty", int(not result.candidates))

    def _on_predict(self, args: tuple, result: Any) -> None:
        self._add("predict_rows", len(result[0]))

    def _hooks(self) -> Dict[str, Hook]:
        return {
            "schedulers.clite.partition": self._on_partition,
            "warehouse.admission.check": self._on_check,
            "core.optimizer.propose": self._on_proposal,
            "core.optimizer.propose_exploit": self._on_proposal,
            "core.gp.predict": self._on_predict,
        }

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "Ledger":
        hooks = self._hooks()
        for cls, attr, name in SPANS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrapper(original, name, hooks.get(name)))
            self._restore.append((cls, attr, original))
        self.installed = True
        return self

    def __exit__(self, *exc: object) -> None:
        for cls, attr, original in reversed(self._restore):
            setattr(cls, attr, original)
        self._restore.clear()
        self.installed = False

    def _wrapper(
        self, original: Callable[..., Any], name: str, after: Optional[Hook]
    ) -> Callable[..., Any]:
        ledger = self
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not ledger.recording:
                return original(*args, **kwargs)
            with tracer.span(name, decision=ledger.decision):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span(self, name: str) -> Any:
        """A span the workload opens itself (around a constructor)."""
        if self.installed and self.recording:
            return self.tracer.span(name, decision=self.decision)
        return nullcontext()

    @contextmanager
    def timed(self) -> Iterator[None]:
        """Record spans and counts for the duration of the block."""
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, self seconds).

        Self time is a span's duration minus the time its direct child
        spans cover; spans nest strictly on one thread, so the self
        times of all spans add up to the durations of the root spans.
        """
        records = self.tracer.finished()
        child_time: Dict[int, float] = {}
        for record in records:
            if record.parent_id is not None:
                child_time[record.parent_id] = (
                    child_time.get(record.parent_id, 0.0) + record.duration_s
                )
        totals: Dict[str, Tuple[int, float]] = {
            name: (0, 0.0) for name in SPAN_NAMES
        }
        for record in records:
            calls, self_s = totals[record.name]
            totals[record.name] = (
                calls + 1,
                self_s + record.duration_s - child_time.get(record.span_id, 0.0),
            )
        return totals

    def write(self, path: Path, metrics: MetricRegistry) -> int:
        """Write every span, and the program's counters, as JSONL in the
        repo's telemetry format, so ``repro-trace summary`` and
        ``repro-trace diff`` read ledgers."""
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_jsonl(
            Telemetry(clock=WallClock(), metrics=metrics, tracer=self.tracer),
            path,
        )
