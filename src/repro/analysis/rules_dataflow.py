"""DATAFLOW family (RPL6xx): per-path lockset discipline.

RPL603 reads the lockset analysis in :mod:`.dataflow`: a write on a
lock-guarded class is recognised as guarded no matter which branch
acquired the lock, as long as *every* path did.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionScanner, shared_callgraph
from .config import LintConfig
from .dataflow import compute_locksets
from .model import DATAFLOW, Finding, Rule, register
from .project import FunctionInfo, Project

#: Methods allowed to write attributes without holding the lock: the
#: object is not yet (or no longer) shared while they run.
_UNSHARED_METHODS = {
    "__init__",
    "__post_init__",
    "__new__",
    "__setstate__",
    "__getstate__",
    "__reduce__",
}

#: Mutating container methods.
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "appendleft", "popleft",
}


@register
class LocksetDiscipline(Rule):
    """RPL603: writes in a lock-guarded class must hold a lock on all
    paths."""

    rule_id = "RPL603"
    name = "lockset-discipline"
    family = DATAFLOW
    description = (
        "Attribute writes on lock-guarded shared objects (in the methods "
        "of guarded_classes, to self or to another guarded instance) "
        "must happen while a lock is definitely held — computed by "
        "per-path lockset intersection, so a lock acquired on only one "
        "branch does not count."
    )
    autofix_hint = (
        "Wrap the write in `with self._lock:` (or acquire the guarding "
        "lock on every path leading to it)."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        graph = shared_callgraph(project)
        guarded = set(config.guarded_classes)
        # Methods of self-guarding classes: every write to self or to
        # another guarded instance needs a lock.
        for cls_name in sorted(guarded):
            for info in project.classes_by_name.get(cls_name, ()):
                for method in info.methods.values():
                    if method.simple_name in _UNSHARED_METHODS:
                        continue
                    yield from self._check_function(
                        project, graph, method, guarded
                    )

    def _check_function(
        self,
        project: Project,
        graph: CallGraph,
        fn: FunctionInfo,
        guarded: Set[str],
    ) -> Iterator[Finding]:
        locksets = compute_locksets(graph, fn)
        scanner = locksets.scanner
        for node in ast.walk(fn.node):
            write = self._write_target(node)
            if write is None:
                continue
            target, verb = write
            receiver = self._guarded_receiver(scanner, fn, target, guarded)
            if receiver is None:
                continue
            if locksets.held_at(node):
                continue
            yield self.finding(
                project,
                fn.module,
                node,
                f"{verb} on shared {receiver} instance in "
                f"{fn.qualname}() without a lock held on all paths",
            )

    @staticmethod
    def _container_owner(expr: ast.AST) -> ast.AST:
        """``self.entries[k] = v`` writes a container *owned by* self:
        unwrap one attribute hop so the shared object is the owner."""
        if isinstance(expr, ast.Attribute):
            return expr.value
        return expr

    @classmethod
    def _write_target(cls, node: ast.AST) -> Optional[Tuple[ast.AST, str]]:
        """(written-receiver expression, verb) for a mutation node."""
        if isinstance(node, (ast.Assign,)):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    return target.value, "attribute write"
                if isinstance(target, ast.Subscript):
                    return cls._container_owner(target.value), "item write"
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Attribute):
                return node.target.value, "augmented write"
            if isinstance(node.target, ast.Subscript):
                return (
                    cls._container_owner(node.target.value),
                    "augmented item write",
                )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Attribute):
                return node.target.value, "attribute write"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Attribute)
            ):
                # self._items.append(...) mutates the container held in
                # an attribute: the *owner* of the attribute is shared.
                return func.value.value, f"container .{func.attr}()"
        return None

    @staticmethod
    def _guarded_receiver(
        scanner: FunctionScanner,
        fn: FunctionInfo,
        target: ast.AST,
        guarded: Set[str],
    ) -> Optional[str]:
        """Guarded class name the written object belongs to, if any."""
        if isinstance(target, ast.Name) and target.id == "self":
            return fn.class_name
        inferred = scanner._value_type(target)
        if inferred in guarded:
            return inferred
        return None
