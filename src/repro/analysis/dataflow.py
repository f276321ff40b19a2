"""Per-path locksets: the locks *definitely* held at each statement.

RPL603 (writes on guarded classes must hold a lock on every path) and
the FLOW family's held-lock facts read this analysis.  It is all the
module holds: :class:`LocksetAnalysis` walks one function body,
tracking ``with lock:`` blocks and explicit ``acquire``/``release``
calls through branches and joining by intersection, and
:func:`compute_locksets` runs it over a function pre-typed by the
:class:`~.callgraph.CallGraph`.  Like the rest of the linter it is
syntactic and conservative: an expression it cannot identify as a lock
never counts as held.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional

from .callgraph import CallGraph, FunctionScanner
from .project import FunctionInfo

#: threading types treated as locks by the lockset analysis.
_LOCK_TYPE_NAMES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}


class LocksetAnalysis:
    """Per-statement locks *definitely* held, for one function body.

    ``with lock:`` blocks add to the set for their body;
    ``lock.acquire()``/``lock.release()`` statements add/remove along
    the current path; branches join by intersection, so a lock held on
    only one arm of an ``if`` does not count below the join — exactly
    the "held on all paths" obligation RPL603 checks.
    """

    def __init__(self, scanner: FunctionScanner) -> None:
        self.scanner = scanner
        self._held_at: Dict[int, FrozenSet[str]] = {}

    def lock_token(self, expr: ast.AST) -> Optional[str]:
        """Dotted name of a lock-like expression, else ``None``."""
        dotted = self.scanner.module.resolve(expr)
        if dotted is None:
            return None
        last = dotted.split(".")[-1].lower()
        if "lock" in last or "mutex" in last:
            return dotted
        if isinstance(expr, ast.Attribute):
            receiver = self.scanner._value_type(expr.value)
            if receiver is not None:
                attr_cls = self.scanner.graph.attr_type(receiver, expr.attr)
                if attr_cls in _LOCK_TYPE_NAMES:
                    return dotted
        if isinstance(expr, ast.Name):
            if self.scanner.local_types.get(expr.id) in _LOCK_TYPE_NAMES:
                return dotted
        return None

    def held_at(self, node: ast.AST) -> FrozenSet[str]:
        """Locks definitely held when ``node`` executes."""
        return self._held_at.get(id(node), frozenset())

    def run(self, body: List[ast.stmt]) -> None:
        self._walk(body, frozenset())

    def _mark(self, node: ast.AST, held: FrozenSet[str]) -> None:
        for sub in ast.walk(node):
            self._held_at[id(sub)] = held

    def _acquire_release(
        self, stmt: ast.stmt, held: FrozenSet[str]
    ) -> FrozenSet[str]:
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return held
        func = stmt.value.func
        if not isinstance(func, ast.Attribute):
            return held
        if func.attr not in ("acquire", "release"):
            return held
        token = self.lock_token(func.value)
        if token is None:
            return held
        if func.attr == "acquire":
            return held | {token}
        return held - {token}

    def _walk(
        self, stmts: Iterable[ast.stmt], held: FrozenSet[str]
    ) -> FrozenSet[str]:
        for stmt in stmts:
            self._mark(stmt, held)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                tokens = {
                    token
                    for item in stmt.items
                    if (token := self.lock_token(item.context_expr)) is not None
                }
                self._walk(stmt.body, held | tokens)
            elif isinstance(stmt, ast.If):
                after_body = self._walk(stmt.body, held)
                after_else = self._walk(stmt.orelse, held)
                held = after_body & after_else
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                after_body = self._walk(stmt.body, held)
                self._walk(stmt.orelse, held)
                held = held & after_body  # body may run zero times
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, held)
                for handler in stmt.handlers:
                    self._walk(handler.body, held)
                self._walk(stmt.orelse, held)
                held = self._walk(stmt.finalbody, held)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def's body runs whenever it is *called*; no
                # lock from the enclosing scope is guaranteed then.
                self._walk(stmt.body, frozenset())
            else:
                held = self._acquire_release(stmt, held)
        return held


def compute_locksets(
    graph: CallGraph, fn: FunctionInfo
) -> LocksetAnalysis:
    """Lockset analysis of one function, pre-typed by the call graph."""
    module = graph.project.modules[fn.module]
    scanner = FunctionScanner(graph, fn, module)
    for stmt in fn.node.body:
        scanner.visit(stmt)  # populate local types (flow-insensitive)
    analysis = LocksetAnalysis(scanner)
    analysis.run(fn.node.body)
    return analysis
