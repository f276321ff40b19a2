"""Thread-safety rules (RPL2xx).

Objects used as dict/cache keys must be frozen dataclasses, and frozen
classes may only be back-doored via ``object.__setattr__`` inside
``__post_init__``: a key that changes hash mid-flight corrupts every
cache keyed on it, on whatever thread reads it next.  Which objects
threads actually share, and how they lock them, is checked at runtime
by repro-san (:mod:`repro.sanitizer`).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from .config import LintConfig
from .model import THREAD_SAFETY, Finding, Rule, register
from .project import Project


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
