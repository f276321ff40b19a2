"""Thread-safety rules (RPL2xx).

The scheduler core runs on one thread; code a thread pool fans out is
only sound if each worker builds private state from its shared
``ClusterNode``/``Cluster`` inputs.  These rules keep it that way: no
mutation of shared-typed parameters, globals, or class attributes
anywhere reachable from a pool entry point; objects used as dict/cache
keys must be frozen dataclasses; and frozen classes may only be
back-doored via ``object.__setattr__`` inside ``__post_init__``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import CallGraph, shared_callgraph
from .config import LintConfig
from .dataflow import compute_locksets, pool_entry_keys
from .model import THREAD_SAFETY, Finding, Rule, register
from .project import FunctionInfo, Project

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "appendleft", "popleft",
}


def _root_name(node: ast.AST) -> Optional[str]:
    """The base identifier of an attribute/subscript chain, if any."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


@register
class SharedStateMutation(Rule):
    rule_id = "RPL201"
    name = "pool-shared-state-mutation"
    family = THREAD_SAFETY
    description = (
        "A function reachable from a thread-pool entry point mutates "
        "shared state: an attribute/item of a shared-typed parameter "
        "(ClusterNode, Cluster), a module global, or a class attribute. "
        "Concurrent pool workers would race on it."
    )
    autofix_hint = (
        "Build private state inside the worker (copy, or construct via "
        "ClusterNode.build_node) and return results instead of writing "
        "to shared inputs; move shared-cache writes behind the serial "
        "caller. Lock-guarded writes are RPL603's domain and are not "
        "flagged here."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        graph = shared_callgraph(project)
        entries: Set[str] = pool_entry_keys(project, graph, config)
        if not entries:
            return
        reachable = graph.reachable_from(entries)
        shared = set(config.shared_types)
        for key, path in sorted(reachable.items()):
            fn = project.functions[key]
            yield from self._check_function(
                project, graph, fn, shared, path
            )

    def _check_function(
        self,
        project: Project,
        graph: CallGraph,
        fn: FunctionInfo,
        shared: Set[str],
        path: Tuple[str, ...],
    ) -> Iterator[Finding]:
        param_types: Dict[str, str] = graph.param_types.get(fn.key, {})
        shared_params = {
            name for name, cls in param_types.items() if cls in shared
        }
        module = project.modules[fn.module]
        globals_declared: Set[str] = {
            name
            for node in ast.walk(fn.node)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        entry = path[0].split(":")[-1]
        via = " -> ".join(p.split(":")[-1] for p in path)
        locksets = compute_locksets(graph, fn)

        def describe(kind: str, what: str) -> str:
            return (
                f"{kind} {what} in {fn.qualname!r}, reachable from "
                f"thread-pool entry point {entry!r} (via {via})"
            )

        for node in ast.walk(fn.node):
            if locksets.held_at(node):
                # Deliberately synchronized write: lock discipline on
                # shared objects is RPL603's domain, not a finding here.
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    finding = self._check_write_target(
                        project, module, target, shared_params,
                        globals_declared, describe,
                    )
                    if finding is not None:
                        yield self.finding(project, module.name, node, finding)
            elif isinstance(node, ast.Call):
                message = self._check_mutating_call(node, shared_params, describe)
                if message is not None:
                    yield self.finding(project, module.name, node, message)

    def _check_write_target(
        self,
        project: Project,
        module,
        target: ast.AST,
        shared_params: Set[str],
        globals_declared: Set[str],
        describe,
    ) -> Optional[str]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                found = self._check_write_target(
                    project, module, element, shared_params,
                    globals_declared, describe,
                )
                if found is not None:
                    return found
            return None
        if isinstance(target, ast.Name):
            if target.id in globals_declared:
                return describe("write to module global", f"'{target.id}'")
            return None
        root = _root_name(target)
        if root is None:
            return None
        if root in shared_params and isinstance(
            target, (ast.Attribute, ast.Subscript)
        ):
            return describe(
                "write to shared-typed parameter", f"'{root}'"
            )
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            dotted = module.resolve(target.value)
            if dotted is not None:
                simple = dotted.split(".")[-1]
                if simple in project.classes_by_name and simple[:1].isupper():
                    return describe(
                        "write to class attribute", f"'{simple}.{target.attr}'"
                    )
        return None

    def _check_mutating_call(
        self, node: ast.Call, shared_params: Set[str], describe
    ) -> Optional[str]:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            return None
        root = _root_name(func.value)
        if root in shared_params:
            return describe(
                f"in-place '{func.attr}' on shared-typed parameter",
                f"'{root}'",
            )
        return None


@register
class UnfrozenKeyDataclass(Rule):
    rule_id = "RPL202"
    name = "unfrozen-cache-key"
    family = THREAD_SAFETY
    description = (
        "A dataclass used as a dict/set/cache key is not frozen=True: "
        "mutable key objects can change hash mid-flight, silently "
        "corrupting the observation cache and dropout tables."
    )
    autofix_hint = (
        "Declare the class @dataclass(frozen=True) (and eq=True); if "
        "mutation is required, key the container on an immutable "
        "projection like Configuration.flat() instead."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        # (a) Configured must-be-frozen classes.
        for name in config.frozen_key_classes:
            for cls in project.classes_by_name.get(name, ()):
                if cls.is_dataclass and not cls.frozen:
                    yield self.finding(
                        project,
                        cls.module,
                        cls.node,
                        f"dataclass {name!r} is declared a cache-key class "
                        "but is not frozen=True",
                    )
        # (b) Dataclass constructor calls appearing in key position.
        for module in project.modules.values():
            for node in ast.walk(module.tree):
                for key_expr in _key_positions(node):
                    cls_name = _constructed_class(key_expr)
                    if cls_name is None:
                        continue
                    info = project.dataclass_info(cls_name)
                    if info is not None and not info.frozen:
                        yield self.finding(
                            project,
                            module.name,
                            key_expr,
                            f"instance of non-frozen dataclass {cls_name!r} "
                            "used as a dict/set key",
                        )


def _key_positions(node: ast.AST) -> List[ast.AST]:
    """Expressions syntactically used as hash keys under ``node``."""
    positions: List[ast.AST] = []
    if isinstance(node, ast.Subscript):
        positions.append(node.slice)
    elif isinstance(node, ast.Dict):
        positions.extend(k for k in node.keys if k is not None)
    elif isinstance(node, ast.Set):
        positions.extend(node.elts)
    elif isinstance(node, ast.Compare):
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            positions.append(node.left)
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in {
            "get", "setdefault", "pop", "add", "discard",
        }:
            if node.args:
                positions.append(node.args[0])
    return positions


def _constructed_class(node: ast.AST) -> Optional[str]:
    """Class name when ``node`` is ``ClassName(...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id[:1].isupper():
        return func.id
    if isinstance(func, ast.Attribute) and func.attr[:1].isupper():
        return func.attr
    return None


@register
class SetattrOutsidePostInit(Rule):
    rule_id = "RPL203"
    name = "setattr-on-frozen"
    family = THREAD_SAFETY
    description = (
        "object.__setattr__ outside __post_init__: the only sanctioned "
        "use of the frozen-dataclass back door is field initialization; "
        "anywhere else it silently defeats immutability (and hash "
        "stability) that other threads rely on."
    )
    autofix_hint = (
        "Use dataclasses.replace to derive an updated instance, or move "
        "the write into __post_init__."
    )

    _ALLOWED = {"__post_init__", "__init__", "__setstate__"}

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        for fn in project.iter_functions():
            if fn.simple_name in self._ALLOWED:
                continue
            module = project.modules[fn.module]
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "object"
                ):
                    yield self.finding(
                        project,
                        module.name,
                        node,
                        f"object.__setattr__ in {fn.qualname!r} mutates a "
                        "frozen instance outside __post_init__",
                    )
