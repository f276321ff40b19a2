"""Interprocedural abstract cost analysis (COST).

The ROADMAP's scale push runs warehouse scenarios at thousands of
nodes, and the paper's "low-overhead decision" claim (CLITE §V) only
survives that scale if per-event work stays *independent of fleet
size*.  PR 8 made "only displaced nodes are re-verified" an invariant;
this module makes the asymptotic statement itself statically checkable,
the way FLOW (RPL8xx) did for lock order.  Four analyses share one
harvest:

* **Budget check (RPL1001)** — every function registered in
  ``[tool.repro-lint.cost] budgets`` gets a *closed* symbolic cost
  (its own loops/allocations plus every callee's, bound through call
  sites) which must not exceed its declared budget polynomial.
* **Quadratic blowup (RPL1002)** — a provable same-family product:
  nested loops over two N-sized collections of the same family, or a
  list-membership / ``sorted()`` / materialization of an N collection
  inside a loop already bounded by that same N.
* **Hot-path N-allocation (RPL1003)** — an N_nodes/N_jobs-sized
  allocation or copy reachable from a hot entry point (the engine
  round loop, the warehouse event handlers, ``ServiceGateway.publish``)
  or inside a ``hot-path`` module.
* **Registry health (RPL1005)** — stale budget/hot-entry registry
  entries, unparsable budget expressions, and hot entry points that
  carry no budget at all.

The cost domain is deliberately tiny: loop bounds are inferred from
the *identity* of the iterated collection (``cluster.nodes`` /
``used_nodes()`` → ``n_nodes``, ``self.shards`` → ``n_shards``,
``self._jobs`` → ``n_jobs``), everything else — bounded slices,
allowlisted containers, ``verified``/``displaced``/``changed`` style
locals, unknown expressions — is ``small``.  The analysis is
conservative in the quiet direction: a bound it cannot classify is
never charged as N, so every finding is a real symbolic fact about the
source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from .callgraph import (
    CallGraph, FunctionScanner, SummaryClosure, shared_callgraph,
)
from .config import LintConfig
from .project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    RegistryHit,
    Site,
    expr_text,
    project_memo,
)

#: The N-class size variables; everything else in a term is ``small``.
N_VARS = ("n_jobs", "n_nodes", "n_shards")

#: Budget factors that do not license any N-degree.
_CONST_FACTORS = {"const", "small"}

#: Builtins that materialize their iterable argument (O(n) + O(n) mem).
_ALLOC_CALLS = {"dict", "frozenset", "list", "set", "sorted", "tuple"}

#: numpy functions that copy/materialize their array argument.
_NP_ALLOC = {"array", "asarray", "concatenate", "copy", "stack"}

#: Builtins that scan their iterable argument without materializing.
_SCAN_CALLS = {"all", "any", "max", "min", "sum"}

#: Wrappers whose result size mirrors their first argument's size.
_SIZE_WRAPPERS = {
    "enumerate", "frozenset", "iter", "list", "reversed", "set",
    "sorted", "tuple",
}

#: Receiver methods whose result size mirrors the receiver's size.
_VIEW_METHODS = {"copy", "items", "keys", "values"}

#: Attribute types for which ``in`` is a hash lookup, not a scan.
_HASHED_TYPES = {
    "Counter", "DefaultDict", "Dict", "FrozenSet", "Mapping",
    "MutableMapping", "MutableSet", "Set", "defaultdict", "dict",
    "frozenset", "set",
}

_VIA_LIMIT = 8
_TERM_LIMIT = 32


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Term:
    """One symbolic cost monomial: the product of its ``vars`` factors.

    ``vars`` is sorted; ``n_*`` factors carry degree, ``small`` and
    ``param:<name>`` factors do not.  ``what`` describes the dominant
    charge and ``chain`` the callee path it was imported through.
    """

    vars: Tuple[str, ...]
    kind: str             # "loop" | "alloc" | "scan" | "membership"
    what: str
    site: Site
    chain: Tuple[str, ...] = ()

    @property
    def degree(self) -> int:
        return sum(1 for v in self.vars if v in N_VARS)


def render_terms(terms: Sequence[Term]) -> str:
    """``O(...)`` text for the worst monomials of a closed cost."""
    if not terms:
        return "O(1)"
    worst = max(t.degree for t in terms)
    if worst == 0:
        return "O(small)"
    picks = sorted(
        {t.vars for t in terms if t.degree == worst}
    )
    return " + ".join(
        "O(" + "*".join(v for v in vars if v in N_VARS) + ")"
        for vars in picks
    )


@dataclass(frozen=True)
class Budget:
    """One parsed ``[tool.repro-lint.cost] budgets`` entry."""

    entry: str            # dotted function name
    key: str              # resolved function key
    expr: str             # e.g. "small" / "n_nodes" / "n_shards*n_jobs"
    allowed: int          # licensed N-degree


@dataclass(frozen=True)
class BudgetHit:
    """RPL1001: a closed cost term exceeds the declared budget."""

    budget: Budget
    term: Term


@dataclass(frozen=True)
class QuadHit:
    """RPL1002: a provable same-family quadratic product."""

    site: Site
    fn_key: str
    vars: Tuple[str, ...]
    what: str


@dataclass(frozen=True)
class AllocHit:
    """RPL1003: an N-sized allocation on a hot path."""

    site: Site
    fn_key: str
    bound: str            # the N var sizing the allocation
    what: str
    entry: str            # hot entry key, or "" for hot-path modules


# ----------------------------------------------------------------------
# Per-function harvest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CostCall:
    """One resolved call with its enclosing loop bounds (``prefix``)
    and the size class of each argument."""

    prefix: Tuple[str, ...]
    targets: Tuple[str, ...]
    site: Site
    arg_classes: Tuple[Optional[str], ...]
    kw_classes: Tuple[Tuple[str, Optional[str]], ...]


@dataclass
class _FnCost:
    """Everything one pass over a function body gives the analyses."""

    charges: List[Term] = dc_field(default_factory=list)
    calls: List[_CostCall] = dc_field(default_factory=list)
    #: (site, bound var, what) — N-sized allocations, RPL1003 material.
    allocs: List[Tuple[Site, str, str]] = dc_field(default_factory=list)
    #: (site, vars, what) — local same-family products, RPL1002.
    quads: List[Tuple[Site, Tuple[str, ...], str]] = dc_field(
        default_factory=list
    )


def _prune_terms(terms: Sequence[Term]) -> Tuple[Term, ...]:
    """One term per monomial, the ``_TERM_LIMIT`` highest degrees."""
    by_vars: Dict[Tuple[str, ...], Term] = {}
    for term in sorted(
        terms, key=lambda t: (t.vars, t.site.module, t.site.line, t.what)
    ):
        by_vars.setdefault(term.vars, term)
    pruned = sorted(
        by_vars.values(), key=lambda t: (-t.degree, t.vars)
    )[:_TERM_LIMIT]
    return tuple(sorted(pruned, key=lambda t: (t.vars, t.site.line)))


def parse_budget(expr: str) -> Optional[int]:
    """Licensed N-degree of a budget polynomial, or None if malformed.

    The grammar is ``factor ('*' factor)*`` with factors drawn from
    ``const``/``small``/``n_nodes``/``n_jobs``/``n_shards``; the
    licensed degree is the count of N factors (families are
    interchangeable for the comparison — the check is about *degree in
    fleet size*, not which fleet axis).
    """
    factors = [f.strip() for f in expr.split("*")]
    if not factors or any(not f for f in factors):
        return None
    allowed = 0
    for factor in factors:
        if factor in N_VARS:
            allowed += 1
        elif factor not in _CONST_FACTORS:
            return None
    return allowed


class _CostScanner:
    """Harvests loop/alloc/scan charges from one function body."""

    def __init__(
        self,
        analysis: "CostAnalysis",
        fn: FunctionInfo,
        module: ModuleInfo,
        scanner: FunctionScanner,
    ) -> None:
        self.analysis = analysis
        self.fn = fn
        self.module = module
        self.scanner = scanner
        self.out = _FnCost()
        self._name_class: Dict[str, Optional[str]] = {}
        self._assigns: Dict[str, List[ast.AST]] = {}
        self._seed_names()

    # -- name classification -------------------------------------------
    def _seed_names(self) -> None:
        for name in self.fn.param_names():
            if name in ("self", "cls"):
                self._name_class[name] = "small"
            elif name in self.analysis.small_names:
                self._name_class[name] = "small"
            else:
                self._name_class[name] = f"param:{name}"
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._assigns.setdefault(target.id, []).append(
                            node.value
                        )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self._assigns.setdefault(node.target.id, []).append(
                        node.value
                    )
            elif isinstance(node, ast.NamedExpr):
                if isinstance(node.target, ast.Name):
                    self._assigns.setdefault(node.target.id, []).append(
                        node.value
                    )
        for _ in range(2):  # x = sorted(y) chains settle in two rounds
            for name in sorted(self._assigns):
                if name in self.analysis.small_names:
                    self._name_class[name] = "small"
                    continue
                classes = {
                    self._bound_of(value) for value in self._assigns[name]
                }
                if name in self.fn.param_names():
                    classes.add(f"param:{name}")
                if len(classes) == 1:
                    self._name_class[name] = classes.pop()
                else:
                    self._name_class[name] = "small"

    # -- bound classification ------------------------------------------
    def _token_of(self, expr: ast.Attribute) -> Optional[str]:
        owner = self.scanner._value_type(expr.value)
        if owner is None and isinstance(expr.value, ast.Name):
            if (
                expr.value.id == "self"
                and self.fn.class_name is not None
            ):
                owner = self.fn.class_name
        if owner is None:
            return None
        return f"{owner}.{expr.attr}"

    def _rank(self, cls: Optional[str]) -> int:
        if cls is None:
            return 0
        if cls in N_VARS:
            return 2
        return 1

    def _max_class(
        self, a: Optional[str], b: Optional[str]
    ) -> Optional[str]:
        return a if self._rank(a) >= self._rank(b) else b

    def _bound_of(self, expr: ast.AST) -> Optional[str]:
        """Size class of an expression: None (const), small, param, N."""
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            return None  # literal: statically fixed length
        if isinstance(expr, ast.Name):
            if expr.id in self.analysis.small_names:
                return "small"
            return self._name_class.get(expr.id, "small")
        if isinstance(expr, ast.Starred):
            return self._bound_of(expr.value)
        if isinstance(expr, ast.Attribute):
            token = self._token_of(expr)
            if token is not None:
                if token in self.analysis.bounded:
                    return "small"
                found = self.analysis.collections.get(token)
                if found is not None:
                    return found
            return "small"
        if isinstance(expr, ast.Subscript):
            # Indexing/slicing an N collection yields an element or a
            # bounded window (`occupied[:max_probe_nodes]`): small.  A
            # full copy (`x[:]`) keeps the base's size.
            if isinstance(expr.slice, ast.Slice):
                if expr.slice.upper is None and expr.slice.lower is None:
                    return self._bound_of(expr.value)
                return "small"
            return "small"
        if isinstance(expr, ast.Call):
            return self._call_bound(expr)
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return self._bound_of(expr.generators[0].iter)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor, ast.Add)
        ):
            return self._max_class(
                self._bound_of(expr.left), self._bound_of(expr.right)
            )
        if isinstance(expr, ast.IfExp):
            return self._max_class(
                self._bound_of(expr.body), self._bound_of(expr.orelse)
            )
        if isinstance(expr, ast.Await):
            return self._bound_of(expr.value)
        return "small"

    def _call_bound(self, call: ast.Call) -> Optional[str]:
        func = call.func
        simple = None
        if isinstance(func, ast.Name):
            simple = func.id
        elif isinstance(func, ast.Attribute):
            simple = func.attr
        if simple == "range":
            if len(call.args) == 1 and isinstance(
                call.args[0], ast.Call
            ):
                inner = call.args[0]
                if (
                    isinstance(inner.func, ast.Name)
                    and inner.func.id == "len"
                    and inner.args
                ):
                    return self._bound_of(inner.args[0])
            if all(isinstance(a, ast.Constant) for a in call.args):
                return None
            return "small"
        if simple in _SIZE_WRAPPERS and call.args:
            return self._bound_of(call.args[0])
        if isinstance(func, ast.Attribute):
            token = self._token_of(func)
            if token is not None:
                if token in self.analysis.bounded:
                    return "small"
                found = self.analysis.collections.get(token)
                if found is not None:
                    return found
            if func.attr in _VIEW_METHODS:
                return self._bound_of(func.value)
        return "small"

    def _hashed_membership(self, expr: ast.AST) -> bool:
        """True when ``x in expr`` is a hash lookup by container type."""
        if isinstance(expr, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, (ast.Name, ast.Attribute)):
                name = func.id if isinstance(func, ast.Name) else func.attr
                if name in ("set", "frozenset", "dict"):
                    return True
        if isinstance(expr, ast.Attribute):
            owner = self.scanner._value_type(expr.value)
            if owner is None and isinstance(expr.value, ast.Name):
                if expr.value.id == "self" and self.fn.class_name:
                    owner = self.fn.class_name
            if owner is not None:
                ctype = self.analysis.graph.attr_type(owner, expr.attr)
                if ctype in _HASHED_TYPES:
                    return True
        return False

    # -- charging -------------------------------------------------------
    def _charge(
        self,
        prefix: Tuple[str, ...],
        bound: Optional[str],
        kind: str,
        node: ast.AST,
        what: str,
    ) -> None:
        if bound is None:
            return
        vars = tuple(sorted(prefix + (bound,)))
        site = self.fn.site(node)
        self.out.charges.append(
            Term(vars=vars, kind=kind, what=what, site=site)
        )
        if kind == "alloc" and bound in ("n_jobs", "n_nodes"):
            self.out.allocs.append((site, bound, what))
        for v in set(vars):
            if v in N_VARS and vars.count(v) >= 2:
                self.out.quads.append((site, vars, what))
                break

    # -- statement / expression walk -----------------------------------
    def scan(self) -> _FnCost:
        self._walk_block(self.fn.node.body, ())
        return self.out

    def _walk_block(
        self, stmts: Sequence[ast.stmt], prefix: Tuple[str, ...]
    ) -> None:
        """Charge a suite; ``prefix`` holds the enclosing loop bounds."""
        for stmt in stmts:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                bound = self._bound_of(stmt.iter)
                self._walk_expr(stmt.iter, prefix)
                self._charge(
                    prefix, bound, "loop", stmt,
                    f"for over {expr_text(stmt.iter)}",
                )
                inner = prefix + (bound,) if bound is not None else prefix
                self._walk_block(stmt.body, inner)
                self._walk_block(stmt.orelse, prefix)
            elif isinstance(stmt, ast.While):
                self._walk_expr(stmt.test, prefix)
                self._charge(prefix, "small", "loop", stmt, "while loop")
                self._walk_block(stmt.body, prefix + ("small",))
                self._walk_block(stmt.orelse, prefix)
            elif isinstance(stmt, ast.If):
                self._walk_expr(stmt.test, prefix)
                self._walk_block(stmt.body, prefix)
                self._walk_block(stmt.orelse, prefix)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._walk_expr(item.context_expr, prefix)
                self._walk_block(stmt.body, prefix)
            elif isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, prefix)
                for handler in stmt.handlers:
                    self._walk_block(handler.body, prefix)
                self._walk_block(stmt.orelse, prefix)
                self._walk_block(stmt.finalbody, prefix)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # Nested defs execute inline when called from this frame
                # (the callgraph makes the same approximation).
                self._walk_block(stmt.body, prefix)
            elif isinstance(stmt, ast.ClassDef):
                continue
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._walk_expr(child, prefix)

    def _walk_expr(
        self, expr: Optional[ast.AST], prefix: Tuple[str, ...]
    ) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Call):
            self._handle_call(expr, prefix)
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._walk_expr(child, prefix)
            for kw in expr.keywords:
                self._walk_expr(kw.value, prefix)
            return
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            inner = prefix
            for gen in expr.generators:
                bound = self._bound_of(gen.iter)
                self._walk_expr(gen.iter, inner)
                kind = (
                    "loop"
                    if isinstance(expr, ast.GeneratorExp)
                    else "alloc"
                )
                self._charge(
                    inner, bound, kind, expr,
                    f"comprehension over {expr_text(gen.iter)}",
                )
                if bound is not None:
                    inner = inner + (bound,)
                for cond in gen.ifs:
                    self._walk_expr(cond, inner)
            if isinstance(expr, ast.DictComp):
                self._walk_expr(expr.key, inner)
                self._walk_expr(expr.value, inner)
            else:
                self._walk_expr(expr.elt, inner)
            return
        if isinstance(expr, ast.Compare):
            for op, comparator in zip(expr.ops, expr.comparators):
                if isinstance(op, (ast.In, ast.NotIn)):
                    bound = self._bound_of(comparator)
                    if bound in N_VARS and not self._hashed_membership(
                        comparator
                    ):
                        self._charge(
                            prefix, bound, "membership", expr,
                            f"'in' scan of {expr_text(comparator)}",
                        )
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._walk_expr(child, prefix)
            return
        if isinstance(expr, ast.Lambda):
            self._walk_expr(expr.body, prefix)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._walk_expr(child, prefix)

    def _handle_call(self, call: ast.Call, prefix: Tuple[str, ...]) -> None:
        func = call.func
        simple = None
        if isinstance(func, ast.Name):
            simple = func.id
        elif isinstance(func, ast.Attribute):
            simple = func.attr

        if simple in _ALLOC_CALLS and call.args:
            bound = self._bound_of(call.args[0])
            self._charge(
                prefix, bound, "alloc", call,
                f"{simple}({expr_text(call.args[0], 40)})",
            )
        elif simple in _SCAN_CALLS and call.args:
            bound = self._bound_of(call.args[0])
            self._charge(
                prefix, bound, "scan", call,
                f"{simple}({expr_text(call.args[0], 40)})",
            )
        elif (
            isinstance(func, ast.Attribute)
            and simple == "join"
            and call.args
        ):
            self._charge(
                prefix, self._bound_of(call.args[0]), "scan", call,
                f"join({expr_text(call.args[0], 40)})",
            )
        elif isinstance(func, ast.Attribute) and simple == "copy":
            if not call.args:
                self._charge(
                    prefix, self._bound_of(func.value), "alloc", call,
                    f"{expr_text(func.value, 40)}.copy()",
                )
        elif isinstance(func, (ast.Name, ast.Attribute)):
            dotted = self.module.resolve(func)
            if (
                dotted is not None
                and dotted.startswith("numpy.")
                and dotted.split(".")[-1] in _NP_ALLOC
                and call.args
            ):
                self._charge(
                    prefix, self._bound_of(call.args[0]), "alloc", call,
                    f"{dotted}({expr_text(call.args[0], 40)})",
                )

        targets = tuple(sorted(self.scanner._resolve_call_targets(call)))
        if targets:
            self.out.calls.append(
                _CostCall(
                    prefix=prefix,
                    targets=targets,
                    site=self.fn.site(call),
                    arg_classes=tuple(
                        self._bound_of(arg) for arg in call.args
                    ),
                    kw_classes=tuple(
                        (kw.arg, self._bound_of(kw.value))
                        for kw in call.keywords
                        if kw.arg is not None
                    ),
                )
            )


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------
class CostAnalysis:
    """Shared harvest + the four COST analyses over one project."""

    def __init__(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> None:
        self.project = project
        self.graph = graph
        self.config = config

        self.collections: Dict[str, str] = {}
        self.bounded: Dict[str, str] = {}
        self.small_names: Set[str] = set(config.cost_small_names)
        for entry in config.cost_collections:
            token, _, var = entry.partition("=")
            if var in N_VARS:
                self.collections[token.strip()] = var.strip()
        for entry in config.cost_bounded:
            token, _, reason = entry.partition("=")
            self.bounded[token.strip()] = reason.strip()

        self.budgets: Dict[str, Budget] = {}      # key -> Budget
        self.hot_entries: Dict[str, str] = {}     # key -> config entry
        self.hot_scope: Dict[str, Tuple[str, ...]] = {}

        self.budget_hits: List[BudgetHit] = []
        self.quads: List[QuadHit] = []
        self.allocs: List[AllocHit] = []
        self.registry: List[RegistryHit] = []

        self._harvests: Dict[str, _FnCost] = {}
        #: closed symbolic cost of each function, in its own frame
        self._cost_closure: SummaryClosure[Term] = SummaryClosure(
            lambda key: [callee.key for _, callee in self._bound_calls(key)],
            self._terms,
            _prune_terms,
        )

    # ------------------------------------------------------------------
    # Registry resolution
    # ------------------------------------------------------------------
    def _bad_entry(
        self, entry: str, table: str, detail: str = "no such function"
    ) -> None:
        hit = self.project.registry_hit(entry, table, detail)
        if hit is not None:
            self.registry.append(hit)

    def _resolve_tables(self) -> None:
        for raw in self.config.cost_budgets:
            dotted, _, expr = raw.partition("=")
            dotted = dotted.strip()
            expr = expr.strip()
            allowed = parse_budget(expr) if expr else None
            key = self.project.resolve_dotted(dotted)
            if key is None:
                self._bad_entry(dotted, "budgets")
            elif allowed is None:
                self._bad_entry(
                    dotted, "budgets", f"unparsable budget {expr!r}"
                )
            else:
                self.budgets[key] = Budget(
                    entry=dotted, key=key, expr=expr, allowed=allowed
                )
        for entry in self.config.cost_hot_entrypoints:
            key = self.project.resolve_dotted(entry)
            if key is None:
                self._bad_entry(entry, "hot-entrypoints")
                continue
            self.hot_entries[key] = entry
            if key not in self.budgets:
                self._bad_entry(
                    entry, "hot-entrypoints", "hot entry has no budget"
                )

    # ------------------------------------------------------------------
    # Closures with call-site binding
    # ------------------------------------------------------------------
    def _map_vars(
        self, vars: Tuple[str, ...], call: _CostCall, callee: FunctionInfo
    ) -> Tuple[str, ...]:
        binding = callee.bind(call.arg_classes, call.kw_classes)
        mapped: List[str] = []
        for v in vars:
            if not v.startswith("param:"):
                mapped.append(v)
                continue
            # A defaulted parameter has no caller size: dropped.
            cls = binding.get(v[len("param:"):])
            if cls is not None:
                mapped.append(cls)
        return tuple(mapped)

    def _bound_calls(
        self, key: str
    ) -> Iterator[Tuple[_CostCall, FunctionInfo]]:
        """Each (call, project callee) whose cost ``key`` imports."""
        harvest = self._harvests.get(key)
        for call in harvest.calls if harvest else ():
            for target in call.targets:
                callee = self.project.functions.get(target)
                if callee is not None:
                    yield call, callee

    def _terms(
        self, key: str, closed: Callable[[str], Tuple[Term, ...]]
    ) -> List[Term]:
        harvest = self._harvests.get(key)
        out: List[Term] = list(harvest.charges) if harvest else []
        for call, callee in self._bound_calls(key):
            for term in closed(callee.key):
                mapped = self._map_vars(term.vars, call, callee)
                if len(term.chain) < _VIA_LIMIT:
                    # Loop prefixes compound only while the chain has
                    # room, so terms going round a recursive cycle stop
                    # growing after _VIA_LIMIT calls.
                    mapped = call.prefix + mapped
                out.append(
                    Term(
                        vars=tuple(sorted(mapped)),
                        kind=term.kind,
                        what=term.what,
                        site=term.site,
                        chain=((callee.qualname,) + term.chain)[:_VIA_LIMIT],
                    )
                )
        return out

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _hot_module_keys(self) -> Set[str]:
        keys: Set[str] = set()
        for fn in self.project.iter_functions():
            module = self.project.modules[fn.module]
            path = str(module.display_path).replace("\\", "/")
            if any(sub in path for sub in self.config.hot_path):
                keys.add(fn.key)
        return keys

    def run(self) -> "CostAnalysis":
        self._resolve_tables()
        for fn in self.project.iter_functions():
            module = self.project.modules[fn.module]
            scanner = FunctionScanner(self.graph, fn, module)
            for stmt in fn.node.body:
                scanner.visit(stmt)
            self._harvests[fn.key] = _CostScanner(
                self, fn, module, scanner
            ).scan()

        # RPL1001: closed cost vs declared budget.
        for key in sorted(self.budgets):
            budget = self.budgets[key]
            for term in self._cost_closure(key):
                if term.degree <= budget.allowed:
                    continue
                if self.project.suppressed("RPL1001", term.site):
                    continue
                self.budget_hits.append(BudgetHit(budget=budget, term=term))

        # RPL1002: local same-family products, project-wide.
        for fn_key in sorted(self._harvests):
            for site, vars, what in self._harvests[fn_key].quads:
                if self.project.suppressed("RPL1002", site):
                    continue
                self.quads.append(
                    QuadHit(site=site, fn_key=fn_key, vars=vars, what=what)
                )

        # RPL1003: N-sized allocations in the hot scope.
        self.hot_scope = self.graph.reachable_from(set(self.hot_entries))
        hot_keys: Dict[str, str] = {
            key: path[0] for key, path in self.hot_scope.items()
        }
        for key in self._hot_module_keys():
            hot_keys.setdefault(key, "")
        for fn_key in sorted(hot_keys):
            harvest = self._harvests.get(fn_key)
            if harvest is None:
                continue
            for site, bound, what in harvest.allocs:
                if self.project.suppressed("RPL1003", site):
                    continue
                self.allocs.append(
                    AllocHit(
                        site=site,
                        fn_key=fn_key,
                        bound=bound,
                        what=what,
                        entry=hot_keys[fn_key],
                    )
                )

        self.registry = [
            hit
            for hit in self.registry
            if not self.project.suppressed("RPL1005", hit.site)
        ]

        self.budget_hits.sort(
            key=lambda h: (
                h.budget.entry, h.term.vars, h.term.site.module,
                h.term.site.line,
            )
        )
        self.quads.sort(
            key=lambda q: (q.site.module, q.site.line, q.vars)
        )
        self.allocs.sort(
            key=lambda a: (a.site.module, a.site.line, a.what)
        )
        self.registry.sort(key=lambda r: (r.table, r.entry, r.detail))
        return self

    @property
    def violation_count(self) -> int:
        return (
            len(self.budget_hits)
            + len(self.quads)
            + len(self.allocs)
            + len(self.registry)
        )


# ----------------------------------------------------------------------
# Shared entry point for the rule module and ``repro-lint report cost``
# ----------------------------------------------------------------------
@project_memo
def cost_analysis(project: Project, config: LintConfig) -> CostAnalysis:
    """Run (or reuse) the COST analysis for one project + config."""
    return CostAnalysis(project, shared_callgraph(project), config).run()
