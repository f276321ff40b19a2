"""Interprocedural purity and phase-effect analysis (PURE).

PR 8's sharded federation is bit-identical under concurrent probing
*only because* probing commits nothing: the root fans
``WarehouseService.probe_admit`` out across a thread pool and replays
the results in preference order, so any stray mutation, fresh RNG draw,
or set-iteration-order dependence on the probe path silently breaks the
serial≡concurrent guarantee.  That invariant used to live in a
docstring (``federation.py``) and one parametrized test; this module
proves it statically, over the same callgraph/type oracle the RPL6xx
and RPL8xx families use.  Five analyses share one harvest:

* **Declared purity (RPL901)** — functions registered in
  ``[tool.repro-lint.pure] registry`` (or marked ``@declared_pure``)
  must not mutate *pre-existing* state: no attribute/subscript writes,
  augmented assigns, ``del``, or mutating-method calls whose receiver
  is rooted in ``self``, a parameter, or a global — directly or through
  any callee, with call-site argument binding (a callee appending to a
  *fresh local* list the caller made is fine; appending to a parameter
  the caller passed through is not).
* **Probe/commit phase separation (RPL902)** — nothing reachable from a
  registered probe entry point may invoke a commit-tagged mutator
  (``Cluster.place``/``remove``, the service's commit/migrate surface,
  ``ObservationStore.put`` outside the sanctioned publish path) or draw
  fresh RNG/wall-clock state.
* **Snapshot alias escape (RPL903)** — ``status()``/``placements()``/
  timeline-style accessors must not return references to live internal
  mutable containers (a caller mutating the "snapshot" would perturb a
  later replay); defensive copies (``dict(...)``, ``tuple(...)``,
  comprehensions) are the fix and are recognised structurally.
* **Iteration-order nondeterminism (RPL904)** — iterating a ``set`` /
  ``frozenset`` into an ordered decision (a ``for`` loop, ``list()``,
  a list/dict comprehension) without an intervening ``sorted()``, in
  any function reachable from a probe entry or purity root.
* **Registry health (RPL905)** — stale purity-registry entries that no
  longer resolve to a project function.

Everything is syntactic and conservative: receivers whose alias root
cannot be proven pre-existing are treated as fresh and never flagged,
and the lock-guarded telemetry surface is exempt by explicit allow-list
(``pure_allow_calls``) because metric registration is idempotent and
replay-invariant by design.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field, replace
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from .callgraph import (
    CallGraph,
    FunctionScanner,
    SummaryClosure,
    _annotation_class,
    shared_callgraph,
)
from .config import LintConfig
from .dataflow import _BIT_GENERATORS
from .project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    RegistryHit,
    Site,
    expr_text,
    project_memo,
)

#: Receiver methods that mutate the receiver in place.
_MUTATING_METHODS = {
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "move_to_end", "pop", "popitem", "popleft", "remove",
    "reverse", "setdefault", "sort", "update", "write", "writelines",
}

#: Simple type names of mutable containers a snapshot must not leak.
_MUTABLE_CONTAINERS = {
    "Counter", "DefaultDict", "Deque", "Dict", "List", "MutableMapping",
    "MutableSequence", "MutableSet", "OrderedDict", "Set", "defaultdict",
    "deque", "dict", "list", "set",
}

#: Callables that consume an iterable order-insensitively.
_ORDER_BLIND = {
    "all", "any", "bool", "frozenset", "len", "max", "min", "set",
    "sorted", "sum",
}

#: Callables whose result order mirrors iteration order — feeding a raw
#: set into one of these is the RPL904 hazard.
_ORDER_SENSITIVE = {"enumerate", "list", "reversed", "tuple"}

#: Stateful module-level RNG functions of the stdlib ``random`` module.
_GLOBAL_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "normalvariate", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "uniform",
}

#: Wall-clock reads: a probe observing real time diverges under replay.
_CLOCK_CALLS = {
    "datetime.date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.time",
    "time.time_ns",
}

#: Constructors whose ``self.x = Ctor()`` / literal writes type the
#: attribute as a mutable container even without an annotation.
_CONTAINER_CTOR_NAMES = {
    "Counter", "OrderedDict", "defaultdict", "deque", "dict", "list",
    "set",
}

_CTOR_NAMES = ("__init__", "__post_init__")

#: Decorator simple name marking a function as declared pure in source.
PURE_MARKER = "declared_pure"

_VIA_LIMIT = 8


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Effect:
    """One mutation of pre-existing state, in some function's frame."""

    root: str             # "self" | "param:<name>" | "global:<name>"
    target: str           # source-ish description of the mutated thing
    op: str               # "attribute-write" | "subscript-write" | ...
    site: Site
    chain: Tuple[str, ...] = ()  # callee qualnames the effect hides behind


@dataclass(frozen=True)
class MutationHit:
    """RPL901: a declared-pure root whose closure mutates state."""

    root_key: str         # function key of the declared-pure root
    effect: Effect


@dataclass(frozen=True)
class PhaseHit:
    """RPL902: a probe-reachable function breaks phase separation."""

    site: Site
    entry: str            # probe entry function key
    kind: str             # "commit-mutator" | "fresh-rng" | "clock"
    what: str             # mutator qualname / RNG-clock dotted name
    path: Tuple[str, ...]  # call path entry -> function containing site


@dataclass(frozen=True)
class SnapshotHit:
    """RPL903: a snapshot accessor returns a live mutable container."""

    site: Site
    method: str           # qualname of the accessor
    container: str        # "Owner.attr" of the escaping container
    ctype: str            # its inferred container type


@dataclass(frozen=True)
class OrderHit:
    """RPL904: set iteration feeding an ordered decision."""

    site: Site
    iterable: str         # description of the set expression
    consumer: str         # "for-loop" | "list()" | "list-comp" | ...
    entry: str            # probe/purity root it is reachable from


# ----------------------------------------------------------------------
# Per-function harvest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CallRecord:
    """One resolved call site with alias roots of its arguments."""

    targets: Tuple[str, ...]
    site: Site
    receiver_root: Optional[str]          # root of a bound receiver
    arg_roots: Tuple[Optional[str], ...]  # positional argument roots
    kw_roots: Tuple[Tuple[str, Optional[str]], ...]


@dataclass
class _Harvest:
    """Everything one pass over a function body gives the analyses."""

    effects: List[Effect] = dc_field(default_factory=list)
    calls: List[_CallRecord] = dc_field(default_factory=list)
    #: (kind, what, site) — fresh-RNG / clock draws in this body.
    phase_risks: List[Tuple[str, str, Site]] = dc_field(default_factory=list)
    #: (site, iterable description, consumer) raw order hazards.
    order_risks: List[Tuple[Site, str, str]] = dc_field(default_factory=list)


def _base_expr(node: ast.AST) -> ast.AST:
    """The base of an Attribute/Subscript chain (``self.a.b[0]`` → self)."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript, ast.Starred)):
        current = current.value
    return current


def _prune_effects(effects: Sequence[Effect]) -> Tuple[Effect, ...]:
    """One effect per mutated site and root, witnessed by its shortest
    call chain — which also bounds the effects circulating a cycle."""
    shortest: Dict[Tuple[str, str, str, Site], Effect] = {}
    for effect in sorted(effects, key=lambda e: (len(e.chain), e.chain)):
        shortest.setdefault(
            (effect.root, effect.target, effect.op, effect.site), effect
        )
    return tuple(
        sorted(
            shortest.values(),
            key=lambda e: (
                e.site.module, e.site.line, e.root, e.target, e.op,
            ),
        )
    )


class _FrameRoots:
    """Alias roots of names inside one function frame.

    A name's root is ``"param:<p>"`` / ``"self"`` / ``"global:<g>"``
    when *every* binding of the name is an Attribute/Subscript chain
    over something with that same root; any binding to a call result or
    literal makes the name fresh (root ``None``), which the analyses
    treat as unobservable — the conservative direction for a purity
    checker that must not cry wolf.
    """

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.params = set(fn.param_names())
        self.assigns: Dict[str, List[ast.AST]] = {}
        self.roots: Dict[str, Optional[str]] = {}
        for name in self.params:
            if name in ("self", "cls") and fn.class_name is not None:
                self.roots[name] = "self"
            else:
                self.roots[name] = f"param:{name}"
        self._collect()
        for _ in range(3):  # alias-of-alias chains settle in a few rounds
            self._resolve_round()

    def _record(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            self.assigns.setdefault(target.id, []).append(
                value if value is not None else ast.Constant(value=None)
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                # Unpacked elements have no provable root: fresh.
                self._record(elt, None)
        elif isinstance(target, ast.Starred):
            self._record(target.value, None)

    def _collect(self) -> None:
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._record(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._record(node.target, node.value)
            elif isinstance(node, ast.For):
                # Loop targets alias elements of the iterated container.
                self._record(node.target, node.iter)
            elif isinstance(node, ast.comprehension):
                self._record(node.target, node.iter)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._record(item.optional_vars, item.context_expr)
            elif isinstance(node, (ast.NamedExpr,)):
                self._record(node.target, node.value)

    def _resolve_round(self) -> None:
        for name in sorted(self.assigns):
            candidates: Set[Optional[str]] = set()
            if name in self.params:
                candidates.add(self.roots.get(name))
            for value in self.assigns[name]:
                candidates.add(self.root_of(value))
            if len(candidates) == 1:
                self.roots[name] = candidates.pop()
            else:
                self.roots[name] = None

    def root_of(self, expr: ast.AST) -> Optional[str]:
        """Pre-existing-state root of an expression, or None (fresh)."""
        base = _base_expr(expr)
        if isinstance(base, ast.IfExp):
            left = self.root_of(base.body)
            right = self.root_of(base.orelse)
            return left if left == right else None
        if not isinstance(base, ast.Name):
            return None  # calls, literals, comprehensions: fresh
        name = base.id
        if name in self.roots:
            return self.roots[name]
        if name in self.assigns:
            return None  # still resolving: fresh is the safe answer
        return f"global:{name}"


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------
class PureAnalysis:
    """Shared harvest + the five PURE analyses over one project."""

    def __init__(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> None:
        self.project = project
        self.graph = graph
        self.config = config

        #: declared-pure root key -> how it was declared
        self.pure_roots: Dict[str, str] = {}
        self.probe_entries: Dict[str, str] = {}   # key -> config entry
        self.mutator_keys: Dict[str, str] = {}    # key -> config entry
        self.reachable: Dict[str, Tuple[str, ...]] = {}

        self.mutations: List[MutationHit] = []
        self.phase: List[PhaseHit] = []
        self.snapshots: List[SnapshotHit] = []
        self.order: List[OrderHit] = []
        self.registry: List[RegistryHit] = []

        self._harvests: Dict[str, _Harvest] = {}
        #: RPL901 effect closure of each function, in its own frame
        self._effect_closure: SummaryClosure[Effect] = SummaryClosure(
            lambda key: [callee.key for _, callee in self._bound_calls(key)],
            self._effects,
            _prune_effects,
        )
        self._attr_container_types: Dict[Tuple[str, str], str] = {}
        self._allow_qualnames: Set[str] = set()
        self._allow_simple: Set[str] = set()
        self._allow_dotted: Set[str] = set()
        for entry in config.pure_allow_calls:
            if "." not in entry:
                self._allow_simple.add(entry)
            elif entry.count(".") == 1:
                self._allow_qualnames.add(entry)
            else:
                self._allow_dotted.add(entry)
        self._snapshot_bare: Set[str] = set()
        self._snapshot_qualified: Set[str] = set()
        for entry in config.pure_snapshot_methods:
            if "." in entry:
                self._snapshot_qualified.add(entry)
            else:
                self._snapshot_bare.add(entry)

    # ------------------------------------------------------------------
    # Entry / registry resolution
    # ------------------------------------------------------------------
    def _resolve_tables(self) -> None:
        tables = (
            ("registry", self.config.pure_registry, self.pure_roots),
            (
                "probe-entrypoints",
                self.config.pure_probe_entrypoints,
                self.probe_entries,
            ),
            (
                "commit-mutators",
                self.config.pure_commit_mutators,
                self.mutator_keys,
            ),
        )
        for table, entries, out in tables:
            for entry in entries:
                key = self.project.resolve_dotted(entry)
                if key is not None:
                    out[key] = entry
                    continue
                hit = self.project.registry_hit(entry, table)
                if hit is not None:
                    self.registry.append(hit)
        # @declared_pure marks a root directly in source.
        for fn in self.project.iter_functions():
            if PURE_MARKER in fn.decorator_names():
                self.pure_roots.setdefault(fn.key, f"@{PURE_MARKER}")

    def _allowed(self, key: str) -> bool:
        fn = self.project.functions.get(key)
        if fn is None:
            return False
        return (
            fn.qualname in self._allow_qualnames
            or fn.simple_name in self._allow_simple
            or f"{fn.module}.{fn.qualname}" in self._allow_dotted
        )

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def _harvest_ctor_container_types(self) -> None:
        """``self.x = {}`` / ``deque()`` writes type unannotated attrs."""
        for fn in self.project.iter_functions():
            if fn.class_name is None:
                continue
            module = self.project.modules[fn.module]
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                ctype = self._container_literal_type(module, node.value)
                if ctype is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self._attr_container_types.setdefault(
                            (fn.class_name, target.attr), ctype
                        )

    @staticmethod
    def _container_literal_type(
        module: ModuleInfo, value: ast.AST
    ) -> Optional[str]:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call) and isinstance(
            value.func, (ast.Name, ast.Attribute)
        ):
            dotted = module.resolve(value.func)
            simple = dotted.split(".")[-1] if dotted else None
            if simple in _CONTAINER_CTOR_NAMES:
                return simple
        return None

    def _attr_container_type(
        self, owner: Optional[str], attr: str
    ) -> Optional[str]:
        if owner is None:
            return None
        annotated = self.graph.attr_type(owner, attr)
        if annotated in _MUTABLE_CONTAINERS:
            return annotated
        literal = self._attr_container_types.get((owner, attr))
        if literal in _MUTABLE_CONTAINERS:
            return literal
        return None

    def _scan_function(self, fn: FunctionInfo) -> None:
        module = self.project.modules[fn.module]
        scanner = FunctionScanner(self.graph, fn, module)
        for stmt in fn.node.body:
            scanner.visit(stmt)
        roots = _FrameRoots(fn)
        harvest = self._harvests.setdefault(fn.key, _Harvest())
        global_names: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._effect_from_target(
                        fn, roots, harvest, target, "attribute-write",
                        global_names,
                    )
            elif isinstance(node, ast.AnnAssign):
                self._effect_from_target(
                    fn, roots, harvest, node.target, "attribute-write",
                    global_names,
                )
            elif isinstance(node, ast.AugAssign):
                self._effect_from_target(
                    fn, roots, harvest, node.target, "augmented-assign",
                    global_names, include_globals=True,
                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        self._effect_from_target(
                            fn, roots, harvest, target, "del", global_names
                        )
            elif isinstance(node, ast.Call):
                self._scan_call(fn, module, scanner, roots, harvest, node)

        self._scan_order_hazards(fn, module, roots, harvest)
        self._scan_snapshot_returns(fn, scanner, roots)

    def _effect_from_target(
        self,
        fn: FunctionInfo,
        roots: _FrameRoots,
        harvest: _Harvest,
        target: ast.AST,
        op: str,
        global_names: Set[str],
        include_globals: bool = False,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._effect_from_target(
                    fn, roots, harvest, elt, op, global_names,
                    include_globals,
                )
            return
        if isinstance(target, ast.Name):
            # Rebinding a local is not a mutation — unless the name is
            # declared ``global``, in which case the write is shared.
            if target.id in global_names:
                harvest.effects.append(
                    Effect(
                        root=f"global:{target.id}",
                        target=target.id,
                        op="global-assign" if op != "augmented-assign" else op,
                        site=fn.site(target),
                    )
                )
            return
        if isinstance(target, ast.Subscript):
            op = "subscript-write" if op == "attribute-write" else op
        elif not isinstance(target, ast.Attribute):
            return
        root = roots.root_of(target)
        if root is None:
            return
        harvest.effects.append(
            Effect(
                root=root,
                target=expr_text(target),
                op=op,
                site=fn.site(target),
            )
        )

    def _scan_call(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        scanner: FunctionScanner,
        roots: _FrameRoots,
        harvest: _Harvest,
        node: ast.Call,
    ) -> None:
        func = node.func
        site = fn.site(node)

        # Mutating-method calls on pre-existing receivers.
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            root = roots.root_of(func.value)
            if root is not None and self._external_import_root(module, root):
                # ``np.append(...)`` / ``json.dumps`` style: the receiver
                # is an imported external module or name, whose same-named
                # functions return fresh values rather than mutating.
                root = None
            if root is not None:
                harvest.effects.append(
                    Effect(
                        root=root,
                        target=f"{expr_text(func.value)}.{func.attr}(...)",
                        op="mutating-call",
                        site=site,
                    )
                )

        # Resolved call record, with argument alias roots for binding.
        targets = tuple(sorted(scanner._resolve_call_targets(node)))
        if targets:
            receiver_root = (
                roots.root_of(func.value)
                if isinstance(func, ast.Attribute)
                else None
            )
            harvest.calls.append(
                _CallRecord(
                    targets=targets,
                    site=site,
                    receiver_root=receiver_root,
                    arg_roots=tuple(
                        roots.root_of(arg) for arg in node.args
                    ),
                    kw_roots=tuple(
                        (kw.arg, roots.root_of(kw.value))
                        for kw in node.keywords
                        if kw.arg is not None
                    ),
                )
            )

        # Fresh RNG / wall-clock draws (RPL902 raw material).
        if isinstance(func, (ast.Name, ast.Attribute)):
            dotted = module.resolve(func)
            if dotted is not None:
                simple = dotted.split(".")[-1]
                if simple == "default_rng" and not node.args:
                    harvest.phase_risks.append(
                        ("fresh-rng", f"{dotted}()", site)
                    )
                elif simple in _BIT_GENERATORS and not node.args:
                    harvest.phase_risks.append(
                        ("fresh-rng", f"{dotted}()", site)
                    )
                elif (
                    dotted.startswith("random.")
                    and simple in _GLOBAL_RANDOM_FNS
                ):
                    harvest.phase_risks.append(("fresh-rng", dotted, site))
                elif dotted in _CLOCK_CALLS:
                    harvest.phase_risks.append(("clock", dotted, site))

    # ------------------------------------------------------------------
    # RPL904: set-iteration order hazards
    # ------------------------------------------------------------------
    def _setty_names(self, fn: FunctionInfo, roots: _FrameRoots) -> Set[str]:
        module = self.project.modules[fn.module]
        setty: Set[str] = set()
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            cls = _annotation_class(arg.annotation)
            if cls in ("Set", "FrozenSet", "set", "frozenset", "AbstractSet"):
                setty.add(arg.arg)
        for _ in range(2):  # one extra round settles x = y chains
            for name, values in roots.assigns.items():
                if all(
                    self._is_setty(module, value, setty) for value in values
                ):
                    setty.add(name)
        return setty

    def _is_setty(
        self, module: ModuleInfo, expr: ast.AST, setty: Set[str]
    ) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in setty
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, (ast.Name, ast.Attribute)):
                dotted = module.resolve(func)
                simple = dotted.split(".")[-1] if dotted else None
                if simple in ("set", "frozenset"):
                    return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "copy", "difference", "intersection", "symmetric_difference",
                "union",
            ):
                return self._is_setty(module, func.value, setty)
            return False
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setty(module, expr.left, setty) or self._is_setty(
                module, expr.right, setty
            )
        return False

    def _scan_order_hazards(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        roots: _FrameRoots,
        harvest: _Harvest,
    ) -> None:
        setty = self._setty_names(fn, roots)
        if not setty and not any(
            isinstance(n, (ast.Set, ast.SetComp, ast.Call))
            for n in ast.walk(fn.node)
        ):
            return
        parent: Dict[int, ast.AST] = {}
        for node in ast.walk(fn.node):
            for child in ast.iter_child_nodes(node):
                parent[id(child)] = node
        for node in ast.walk(fn.node):
            if not self._is_setty(module, node, setty):
                continue
            consumer = self._order_consumer(node, parent)
            if consumer is None:
                continue
            harvest.order_risks.append(
                (fn.site(node), expr_text(node), consumer)
            )

    def _order_consumer(
        self, expr: ast.AST, parent: Dict[int, ast.AST]
    ) -> Optional[str]:
        """How ``expr``'s iteration order becomes observable, if it does."""
        owner = parent.get(id(expr))
        if owner is None:
            return None
        if isinstance(owner, ast.For) and owner.iter is expr:
            return "for-loop"
        if isinstance(owner, ast.comprehension) and owner.iter is expr:
            comp = parent.get(id(owner))
            if isinstance(comp, ast.ListComp):
                return "list-comprehension"
            if isinstance(comp, ast.DictComp):
                return "dict-comprehension"
            if isinstance(comp, ast.GeneratorExp):
                call = parent.get(id(comp))
                if isinstance(call, ast.Call):
                    name = self._call_simple_name(call)
                    if name in _ORDER_SENSITIVE or name == "join":
                        return f"{name}(generator)"
                return None
            return None  # SetComp: order-blind by construction
        if isinstance(owner, ast.Call) and expr in owner.args:
            name = self._call_simple_name(owner)
            if name in _ORDER_SENSITIVE:
                return f"{name}()"
            if name == "join":
                return "join()"
            return None  # order-blind or unknown callee: silence
        if isinstance(owner, ast.Starred):
            container = parent.get(id(owner))
            if isinstance(container, (ast.List, ast.Tuple)):
                return "unpacking"
        return None

    def _external_import_root(self, module: ModuleInfo, root: str) -> bool:
        """True when a ``global:x`` root is an import from outside the
        analysed project (numpy, json, ...) rather than project state."""
        if not root.startswith("global:"):
            return False
        name = root[len("global:"):]
        target = module.imports.get(name)
        if target is None:
            return False
        return not any(
            target == m or target.startswith(m + ".")
            for m in self.project.modules
        )

    @staticmethod
    def _call_simple_name(call: ast.Call) -> Optional[str]:
        if isinstance(call.func, ast.Name):
            return call.func.id
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        return None

    # ------------------------------------------------------------------
    # RPL903: snapshot alias escapes
    # ------------------------------------------------------------------
    def _is_snapshot_accessor(self, fn: FunctionInfo) -> bool:
        if fn.class_name is None:
            return False
        if fn.simple_name in self._snapshot_bare:
            return True
        return fn.qualname in self._snapshot_qualified

    def _scan_snapshot_returns(
        self, fn: FunctionInfo, scanner: FunctionScanner, roots: _FrameRoots
    ) -> None:
        if not self._is_snapshot_accessor(fn):
            return
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            for expr in self._returned_parts(node.value):
                hit = self._live_container(fn, scanner, roots, expr)
                if hit is None:
                    continue
                container, ctype = hit
                self.snapshots.append(
                    SnapshotHit(
                        site=fn.site(expr),
                        method=fn.qualname,
                        container=container,
                        ctype=ctype,
                    )
                )

    @staticmethod
    def _returned_parts(value: ast.AST) -> List[ast.AST]:
        """The return value plus one level of literal-container parts."""
        parts = [value]
        if isinstance(value, (ast.Tuple, ast.List)):
            parts.extend(
                e for e in value.elts if not isinstance(e, ast.Starred)
            )
        elif isinstance(value, ast.Dict):
            # A keyed value ({"jobs": self._jobs}) aliases the container;
            # a **spread (key None) copies its entries into a fresh dict.
            parts.extend(
                v
                for k, v in zip(value.keys, value.values)
                if k is not None
            )
        return parts

    def _live_container(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        roots: _FrameRoots,
        expr: ast.AST,
    ) -> Optional[Tuple[str, str]]:
        if isinstance(expr, ast.Name):
            # One level of local aliasing: x = self._jobs; return x
            for value in roots.assigns.get(expr.id, ()):
                found = self._attr_chain_container(scanner, value)
                if found is not None and roots.root_of(value) is not None:
                    return found
            return None
        return self._attr_chain_container(scanner, expr)

    def _attr_chain_container(
        self, scanner: FunctionScanner, expr: ast.AST
    ) -> Optional[Tuple[str, str]]:
        if not isinstance(expr, ast.Attribute):
            return None
        if isinstance(_base_expr(expr), ast.Call):
            return None  # a chain through a call result is not live state
        owner = scanner._value_type(expr.value)
        ctype = self._attr_container_type(owner, expr.attr)
        if ctype is None:
            return None
        return f"{owner}.{expr.attr}", ctype

    # ------------------------------------------------------------------
    # RPL901: effect closures with call-site argument binding
    # ------------------------------------------------------------------
    def _bound_calls(
        self, key: str
    ) -> Iterator[Tuple[_CallRecord, FunctionInfo]]:
        """Each (call, project callee) whose effects ``key`` imports."""
        harvest = self._harvests.get(key)
        for call in harvest.calls if harvest else ():
            for target in call.targets:
                callee = self.project.functions.get(target)
                if callee is not None and not self._allowed(target):
                    yield call, callee

    def _effects(
        self, key: str, closed: Callable[[str], Tuple[Effect, ...]]
    ) -> List[Effect]:
        harvest = self._harvests.get(key)
        out: List[Effect] = list(harvest.effects) if harvest else []
        for call, callee in self._bound_calls(key):
            for effect in closed(callee.key):
                mapped = self._map_root(effect.root, call, callee)
                if mapped is not None:
                    chain = (callee.qualname,) + effect.chain
                    out.append(
                        replace(effect, root=mapped, chain=chain[:_VIA_LIMIT])
                    )
        return out

    def _map_root(
        self, root: str, call: _CallRecord, callee: FunctionInfo
    ) -> Optional[str]:
        """A callee-frame effect root, translated into the caller frame."""
        if root.startswith("global:"):
            return root
        if root == "self":
            if callee.simple_name in _CTOR_NAMES:
                return None  # the constructed object is fresh by definition
            return call.receiver_root
        if root.startswith("param:"):
            # A defaulted parameter involves no caller state: unbound.
            binding = callee.bind(call.arg_roots, call.kw_roots)
            return binding.get(root[len("param:"):])
        return None

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> "PureAnalysis":
        self._resolve_tables()
        self._harvest_ctor_container_types()
        for fn in self.project.iter_functions():
            self._scan_function(fn)

        # RPL901: declared-pure closures.
        for root_key in sorted(self.pure_roots):
            for effect in self._effect_closure(root_key):
                if self.project.suppressed("RPL901", effect.site):
                    continue
                self.mutations.append(
                    MutationHit(root_key=root_key, effect=effect)
                )

        # RPL902: probe reachability vs commit mutators / RNG / clocks.
        self.reachable = self.graph.reachable_from(set(self.probe_entries))
        for fn_key in sorted(self.reachable):
            harvest = self._harvests.get(fn_key)
            if harvest is None:
                continue
            path = self.reachable[fn_key]
            entry = path[0]
            for call in harvest.calls:
                for target in call.targets:
                    if target not in self.mutator_keys:
                        continue
                    if self.project.suppressed("RPL902", call.site):
                        continue
                    mutator = self.project.functions[target]
                    self.phase.append(
                        PhaseHit(
                            site=call.site,
                            entry=entry,
                            kind="commit-mutator",
                            what=mutator.qualname,
                            path=path,
                        )
                    )
            for kind, what, site in harvest.phase_risks:
                if self.project.suppressed("RPL902", site):
                    continue
                self.phase.append(
                    PhaseHit(
                        site=site, entry=entry, kind=kind, what=what,
                        path=path,
                    )
                )

        # RPL903 hits were collected during the scan; filter suppressions.
        self.snapshots = [
            hit
            for hit in self.snapshots
            if not self.project.suppressed("RPL903", hit.site)
        ]

        # RPL904: order hazards inside the probe/purity closure.
        scope = self.graph.reachable_from(
            set(self.probe_entries) | set(self.pure_roots)
        )
        for fn_key in sorted(scope):
            harvest = self._harvests.get(fn_key)
            if harvest is None:
                continue
            for site, iterable, consumer in harvest.order_risks:
                if self.project.suppressed("RPL904", site):
                    continue
                self.order.append(
                    OrderHit(
                        site=site,
                        iterable=iterable,
                        consumer=consumer,
                        entry=scope[fn_key][0],
                    )
                )

        self.registry = [
            hit
            for hit in self.registry
            if not self.project.suppressed("RPL905", hit.site)
        ]

        self.mutations.sort(
            key=lambda m: (
                m.root_key, m.effect.site.module, m.effect.site.line,
                m.effect.target,
            )
        )
        self.phase.sort(
            key=lambda p: (p.site.module, p.site.line, p.kind, p.what)
        )
        self.snapshots.sort(
            key=lambda s: (s.site.module, s.site.line, s.container)
        )
        self.order.sort(
            key=lambda o: (o.site.module, o.site.line, o.iterable)
        )
        self.registry.sort(key=lambda r: (r.table, r.entry))
        return self

    @property
    def violation_count(self) -> int:
        return (
            len(self.mutations)
            + len(self.phase)
            + len(self.snapshots)
            + len(self.order)
            + len(self.registry)
        )


# ----------------------------------------------------------------------
# Shared entry point for the rule module and ``repro-lint report pure``
# ----------------------------------------------------------------------
@project_memo
def pure_analysis(project: Project, config: LintConfig) -> PureAnalysis:
    """Run (or reuse) the PURE analysis for one project + config."""
    return PureAnalysis(project, shared_callgraph(project), config).run()
