"""Static call-graph construction and reachability.

The whole-program families need to know what a function can reach:
FLOW asks which locks a thread entry point takes.  This pass builds a syntactic call graph with a small,
deliberately conservative type inferencer —
parameter annotations (including string annotations and
``Optional[...]`` unwrapping), ``x = Ctor(...)`` locals with
re-assignment, instance-attribute types harvested from class bodies and
``self.x = ...`` writes, and annotated return types — which is enough to
follow chains like ``node_state.build_node(...)`` →
``CLITEEngine(node, cfg).optimize()`` or
``tel.metrics.counter(...).add(...)``.

The FLOW scanners and RPL603's lockset analysis
(:mod:`.dataflow`) reuse the same :class:`FunctionScanner` resolution
machinery, so every layer sees one consistent view of the project's
types.

:class:`SummaryClosure` is the bottom-up closure FLOW uses to lift
per-function summaries (locks acquired) through the call graph,
strongly connected component by component.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable, Container, Dict, Generic, Iterable, List, Optional, Sequence,
    Set, Tuple, TypeVar,
)

from .project import FunctionInfo, ModuleInfo, Project, project_memo

T = TypeVar("T")

#: Reads a callee's closed summary while summarizing its caller.
Closed = Callable[[str], Tuple[T, ...]]

def _annotation_class(annotation: Optional[ast.AST]) -> Optional[str]:
    """Simple class name of an annotation, unwrapping Optional/quotes."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotation: parse it and recurse, so "Optional[Node]"
        # unwraps the same way the unquoted form does.
        try:
            parsed = ast.parse(annotation.value.strip(), mode="eval")
        except SyntaxError:
            return None
        return _annotation_class(parsed.body)
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        # Optional[T] / Union[T, None] / List[T]: unwrap to the lone class.
        base = _annotation_class(annotation.value)
        if base == "Optional":
            return _annotation_class(annotation.slice)
        if base == "Union" and isinstance(annotation.slice, ast.Tuple):
            members = [
                _annotation_class(e)
                for e in annotation.slice.elts
                if not (isinstance(e, ast.Constant) and e.value is None)
            ]
            members = [m for m in members if m is not None and m != "None"]
            if len(set(members)) == 1:
                return members[0]
            return None
        return base
    return None


@dataclass
class CallGraph:
    """Edges between function keys plus the inferred types."""

    project: Project
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    #: function key -> parameter name -> simple class name
    param_types: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: (class name, attribute) -> simple class name of the attribute
    attr_types: Dict[Tuple[str, str], str] = field(default_factory=dict)

    def attr_type(self, class_name: str, attr: str) -> Optional[str]:
        """Type of ``class_name.attr``, walking base classes by name."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            found = self.attr_types.get((current, attr))
            if found is not None:
                return found
            for cls in self.project.classes_by_name.get(current, ()):
                queue.extend(cls.base_names)
        return None

    def reachable_from(
        self, entry_keys: Set[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS closure: function key -> call path from an entry point."""
        paths: Dict[str, Tuple[str, ...]] = {}
        queue: List[str] = []
        for key in sorted(entry_keys):
            if key in self.project.functions:
                paths[key] = (key,)
                queue.append(key)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.edges.get(current, ())):
                if callee not in paths:
                    paths[callee] = paths[current] + (callee,)
                    queue.append(callee)
        return paths


class FunctionScanner(ast.NodeVisitor):
    """Collects call edges and local types inside one function body.

    Also the project's shared expression-type oracle: the FLOW and
    lockset passes instantiate one per function to resolve call
    targets and receiver types with the same rules the call graph uses.
    """

    def __init__(
        self,
        graph: CallGraph,
        fn: FunctionInfo,
        module: ModuleInfo,
    ) -> None:
        self.graph = graph
        self.project = graph.project
        self.fn = fn
        self.module = module
        self.local_types: Dict[str, str] = dict(
            graph.param_types.get(fn.key, {})
        )
        self.callees: Set[str] = set()

    # -- type bookkeeping ------------------------------------------------
    def _record_self_attr(self, attr: str, inferred: Optional[str]) -> None:
        if inferred is not None and self.fn.class_name is not None:
            self.graph.attr_types.setdefault(
                (self.fn.class_name, attr), inferred
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        inferred = self._value_type(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if inferred is not None:
                    self.local_types[target.id] = inferred
                else:
                    # Re-assignment to something untypeable invalidates
                    # whatever the local held before.
                    self.local_types.pop(target.id, None)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self._record_self_attr(target.attr, inferred)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        cls = _annotation_class(node.annotation)
        if isinstance(node.target, ast.Name) and cls is not None:
            self.local_types[node.target.id] = cls
        elif (
            isinstance(node.target, ast.Attribute)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == "self"
        ):
            self._record_self_attr(node.target.attr, cls)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs get their own scan via the class/module walk; their
        # bodies still execute on the same thread when called, so edges
        # from the enclosing function to locals are approximated by
        # treating the nested body as inline.
        for child in node.body:
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- call edges ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        for key in self._resolve_call_targets(node):
            self.callees.add(key)
        self.generic_visit(node)

    def _resolve_callable_ref(self, node: ast.AST) -> Optional[str]:
        """A bare function reference (not a call) to a project function."""
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = self.module.resolve(node)
            if dotted is not None:
                found = self._function_for_dotted(dotted)
                if found is not None:
                    return found
            if isinstance(node, ast.Attribute):
                keys = self._resolve_attribute_call(node, record_type=False)
                return keys[0] if keys else None
        return None

    def _function_for_dotted(self, dotted: str) -> Optional[str]:
        """Map ``pkg.mod.fn`` / ``pkg.mod.Cls.meth`` to a function key."""
        for module_name, module in self.project.modules.items():
            if dotted == module_name or not dotted.startswith(module_name + "."):
                continue
            remainder = dotted[len(module_name) + 1 :]
            parts = remainder.split(".")
            if len(parts) == 1:
                if parts[0] in module.functions:
                    return module.functions[parts[0]].key
                if parts[0] in module.classes:
                    return self._class_ctor_key(parts[0])
            elif len(parts) == 2 and parts[0] in module.classes:
                method = self.project.lookup_method(parts[0], parts[1])
                if method is not None:
                    return method.key
        # Same-module shortcut: a bare name with no import alias.
        if "." not in dotted:
            if dotted in self.module.functions:
                return self.module.functions[dotted].key
            if dotted in self.module.classes:
                return self._class_ctor_key(dotted)
        return None

    def _class_ctor_key(self, class_name: str) -> Optional[str]:
        for method in ("__init__", "__post_init__"):
            found = self.project.lookup_method(class_name, method)
            if found is not None:
                return found.key
        # A class with no explicit constructor still types its result.
        return None

    def _class_ctor_keys(self, class_name: str) -> List[str]:
        keys = []
        for method in ("__init__", "__post_init__"):
            found = self.project.lookup_method(class_name, method)
            if found is not None:
                keys.append(found.key)
        return keys

    def _call_result_type(self, node: ast.AST) -> Optional[str]:
        """Class name a call expression evaluates to, when knowable."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, (ast.Name, ast.Attribute)):
            dotted = self.module.resolve(func)
            if dotted is not None:
                simple = dotted.split(".")[-1]
                if simple in self.project.classes_by_name:
                    return simple
                fn_key = self._function_for_dotted(dotted)
                if fn_key is not None:
                    target = self.project.functions[fn_key]
                    return _annotation_class(target.node.returns)
        if isinstance(func, ast.Attribute):
            owner = self._value_type(func.value)
            if owner is not None:
                method = self.project.lookup_method(owner, func.attr)
                if method is not None:
                    return _annotation_class(method.node.returns)
        return None

    def _value_type(self, node: ast.AST) -> Optional[str]:
        """Type of an arbitrary expression, when inferable.

        Covers names (parameters, annotated or constructor-assigned
        locals, including re-assignments), call results, conditional
        expressions, and attribute chains typed through
        :attr:`CallGraph.attr_types` (``self.telemetry.metrics`` →
        ``MetricRegistry``).
        """
        if isinstance(node, ast.Name):
            if node.id == "self" and self.fn.class_name:
                return self.local_types.get(node.id, self.fn.class_name)
            return self.local_types.get(node.id)
        if isinstance(node, ast.Call):
            return self._call_result_type(node)
        if isinstance(node, ast.IfExp):
            return self._value_type(node.body) or self._value_type(node.orelse)
        if isinstance(node, ast.Attribute):
            receiver = self._value_type(node.value)
            if receiver is not None:
                found = self.graph.attr_type(receiver, node.attr)
                if found is not None:
                    return found
            # A dotted reference to a project class (module.ClassName)
            # types as the class itself is not modelled; give up.
            return None
        if isinstance(node, ast.Await):
            return self._value_type(node.value)
        return None

    def _resolve_call_targets(self, node: ast.Call) -> List[str]:
        func = node.func
        if isinstance(func, ast.Name):
            dotted = self.module.resolve(func)
            if dotted is None:
                return []
            simple = dotted.split(".")[-1]
            if (
                simple in self.project.classes_by_name
                and self._is_project_class_ref(dotted, simple)
            ):
                return self._class_ctor_keys(simple)
            key = self._function_for_dotted(dotted)
            return [key] if key is not None else []
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(func)
        return []

    def _is_project_class_ref(self, dotted: str, simple: str) -> bool:
        """Whether a dotted name plausibly refers to a project class."""
        if "." not in dotted:
            return simple in self.module.classes or dotted in self.module.imports
        return any(
            dotted == f"{cls.module}.{cls.name}"
            for cls in self.project.classes_by_name.get(simple, ())
        )

    def _resolve_attribute_call(
        self, func: ast.Attribute, record_type: bool = True
    ) -> List[str]:
        # self.method() / var.method() with an inferred receiver type.
        receiver = self._value_type(func.value)
        if receiver is None and isinstance(func.value, ast.Name):
            if func.value.id == "self" and self.fn.class_name is not None:
                receiver = self.fn.class_name
        if receiver is not None:
            method = self.project.lookup_method(receiver, func.attr)
            if method is not None:
                return [method.key]
            return []
        # module.function() via an import alias.
        dotted = self.module.resolve(func)
        if dotted is not None:
            key = self._function_for_dotted(dotted)
            if key is not None:
                return [key]
        return []


def build_callgraph(project: Project) -> CallGraph:
    """Construct the project call graph in three passes.

    Pass 1 records parameter types for every function (so scans can
    type ``self`` and annotated parameters) plus class-body field
    annotations; pass 2 scans every body once to harvest instance-
    attribute types from ``self.x = ...`` writes; pass 3 re-walks the
    bodies collecting edges with the full attribute-type table
    available, so attribute-chain receivers (``tel.metrics.counter(...)``)
    resolve regardless of scan order.
    """
    graph = CallGraph(project=project)
    for fn in project.iter_functions():
        params: Dict[str, str] = {}
        args = fn.node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in all_args:
            cls = _annotation_class(arg.annotation)
            if cls is not None:
                params[arg.arg] = cls
        if all_args and all_args[0].arg == "self" and fn.class_name:
            params["self"] = fn.class_name
        graph.param_types[fn.key] = params
    for cls_info in project.iter_classes():
        for item in cls_info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                annotated = _annotation_class(item.annotation)
                if annotated is not None:
                    graph.attr_types.setdefault(
                        (cls_info.name, item.target.id), annotated
                    )
    for collect_edges in (False, True):
        for fn in project.iter_functions():
            module = project.modules[fn.module]
            scanner = FunctionScanner(graph, fn, module)
            for statement in fn.node.body:
                scanner.visit(statement)
            if collect_edges:
                graph.edges[fn.key] = scanner.callees
    return graph


@project_memo
def shared_callgraph(project: Project) -> CallGraph:
    """One call graph per parsed project (rules share the build)."""
    return build_callgraph(project)


def strongly_connected(
    successors: Callable[[str], Iterable[str]],
    roots: Iterable[str],
    skip: Container[str] = frozenset(),
) -> List[Set[str]]:
    """Tarjan's SCC algorithm, iterative (no recursion limit games).

    Explores from ``roots`` (in order) and children in sorted order;
    nodes in ``skip`` are treated as absent.  Components come out in
    reverse topological order: each one after every component it
    reaches.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[Set[str]] = []

    def children(node: str) -> List[str]:
        return sorted(c for c in successors(node) if c not in skip)

    for root in roots:
        if root in index or root in skip:
            continue
        work: List[Tuple[str, List[str]]] = [(root, children(root))]
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, pending = work[-1]
            if pending:
                child = pending.pop(0)
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, children(child)))
                elif child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: Set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


class SummaryClosure(Generic[T]):
    """Per-function summaries closed over the call graph, SCC by SCC.

    A family supplies three things: ``callees(key)``, the functions
    whose summaries ``key``'s summary reads; ``summarize(key, closed)``,
    the summary items of ``key`` — its local facts plus each callee's
    closed summary (read through ``closed``) bound into its frame; and
    ``prune``, which dedups and bounds a list of items into the stored
    tuple.  Calling the closure with a key returns its closed summary.

    Components are closed in reverse topological order, so every callee
    outside the current component is final when read.  A recursive
    component starts from empty summaries and is re-summarized, members
    in sorted order and earlier items kept, until no summary changes —
    a fixpoint that depends on the component alone, never on which
    member was asked for first.  ``prune`` must bound the items (FLOW's
    sorted-set dedup over the project's finite locks does) so the
    iteration ends.
    """

    def __init__(
        self,
        callees: Callable[[str], Iterable[str]],
        summarize: Callable[[str, Closed[T]], Iterable[T]],
        prune: Callable[[Sequence[T]], Tuple[T, ...]],
    ) -> None:
        self._callees = callees
        self._summarize = summarize
        self._prune = prune
        self._closed: Dict[str, Tuple[T, ...]] = {}

    def __call__(self, key: str) -> Tuple[T, ...]:
        if key not in self._closed:
            for component in strongly_connected(
                self._callees, (key,), self._closed
            ):
                self._close(sorted(component))
        return self._closed[key]

    def _close(self, members: List[str]) -> None:
        first = members[0]
        if len(members) == 1 and first not in set(self._callees(first)):
            self._closed[first] = self._prune(
                list(self._summarize(first, self._closed.__getitem__))
            )
            return
        current: Dict[str, Tuple[T, ...]] = dict.fromkeys(members, ())

        def closed(callee: str) -> Tuple[T, ...]:
            found = current.get(callee)
            return self._closed[callee] if found is None else found

        changed = True
        while changed:
            changed = False
            for key in members:
                items = self._prune(
                    [*current[key], *self._summarize(key, closed)]
                )
                if items != current[key]:
                    current[key] = items
                    changed = True
        self._closed.update(current)
