"""Parsed-project model: modules, classes, functions, imports.

The linter parses every file once into this index; rules then query it
instead of re-walking raw ASTs.  Name resolution is deliberately
syntactic — it resolves import aliases and relative imports to dotted
names without executing anything, which is exactly enough for the rule
families shipped here.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: ``# repro-lint: disable=RPL101,RPL202`` (line) /
#: ``disable-next-line=...`` / ``disable-file=...`` (whole file).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-next-line|disable-file)\s*=\s*"
    r"([A-Za-z0-9_*,\s]+)"
)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    module: str
    qualname: str  # "func" or "Class.method"
    node: FunctionNode

    @property
    def key(self) -> str:
        """Project-wide identity, ``module:qualname``."""
        return f"{self.module}:{self.qualname}"

    @property
    def simple_name(self) -> str:
        return self.node.name

    def decorator_names(self) -> List[str]:
        return [_last_component(d) for d in self.node.decorator_list]


@dataclass
class ClassInfo:
    """One class definition with dataclass metadata resolved."""

    module: str
    name: str
    node: ast.ClassDef
    base_names: Tuple[str, ...] = ()
    is_dataclass: bool = False
    frozen: bool = False
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str  # dotted module name
    path: Path
    display_path: str
    tree: ast.Module
    #: local alias -> fully qualified dotted target
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    file_suppressions: Set[str] = field(default_factory=set)
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: ``(comment line, rule id)`` for every id a suppression names.
    suppression_ids: List[Tuple[int, str]] = field(default_factory=list)

    def suppressed(self, rule_id: str, line: int) -> bool:
        if "all" in self.file_suppressions or rule_id in self.file_suppressions:
            return True
        rules = self.line_suppressions.get(line, ())
        return "all" in rules or rule_id in rules

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully qualified dotted name of a Name/Attribute chain.

        ``np.random.default_rng`` with ``import numpy as np`` resolves
        to ``"numpy.random.default_rng"``; unresolvable expressions
        (calls, subscripts) return ``None``.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


class Project:
    """Every parsed module plus cross-module lookup tables."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        for module in self.modules.values():
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
                for method in cls.methods.values():
                    self.functions[method.key] = method
            for fn in module.functions.values():
                self.functions[fn.key] = fn

    def iter_functions(self) -> Iterable[FunctionInfo]:
        return self.functions.values()

    def iter_classes(self) -> Iterable[ClassInfo]:
        for module in self.modules.values():
            yield from module.classes.values()

    def dataclass_info(self, class_name: str) -> Optional[ClassInfo]:
        """The project's dataclass with this simple name, if unique."""
        candidates = [
            c for c in self.classes_by_name.get(class_name, ()) if c.is_dataclass
        ]
        return candidates[0] if len(candidates) == 1 else None


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _last_component(node: ast.AST) -> str:
    """The rightmost identifier of a decorator/base expression."""
    if isinstance(node, ast.Call):
        return _last_component(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):  # Generic[...] bases
        return _last_component(node.value)
    return ""


def _dataclass_flags(node: ast.ClassDef) -> Tuple[bool, bool]:
    """(is_dataclass, frozen) from the class's decorator list."""
    for decorator in node.decorator_list:
        if _last_component(decorator) != "dataclass":
            continue
        frozen = False
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "frozen":
                    frozen = bool(
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value
                    )
        return True, frozen
    return False, False


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from the package layout on disk."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.append(current.name)
        current = current.parent
    if not parts:  # an __init__.py whose own directory has no __init__
        parts = [path.parent.name]
    return ".".join(reversed(parts))


def _collect_imports(tree: ast.Module, module_name: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    package_parts = module_name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - node.level + 1]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return imports


def _collect_suppressions(
    source_lines: List[str],
) -> Tuple[Set[str], Dict[int, Set[str]], List[Tuple[int, str]]]:
    file_level: Set[str] = set()
    per_line: Dict[int, Set[str]] = {}
    named: List[Tuple[int, str]] = []
    for lineno, text in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        kind = match.group(1)
        rules = {
            token.strip()
            for token in match.group(2).split(",")
            if token.strip()
        }
        rules = {"all" if r == "*" else r for r in rules}
        named.extend((lineno, rule_id) for rule_id in sorted(rules))
        if kind == "disable-file":
            file_level |= rules
        elif kind == "disable-next-line":
            per_line.setdefault(lineno + 1, set()).update(rules)
        else:
            per_line.setdefault(lineno, set()).update(rules)
    return file_level, per_line, named


def parse_module(path: Path, display_path: Optional[str] = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    name = module_name_for(path)
    lines = source.splitlines()
    file_suppressions, line_suppressions, suppression_ids = (
        _collect_suppressions(lines)
    )
    module = ModuleInfo(
        name=name,
        path=path,
        display_path=display_path or str(path),
        tree=tree,
        imports=_collect_imports(tree, name),
        file_suppressions=file_suppressions,
        line_suppressions=line_suppressions,
        suppression_ids=suppression_ids,
    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = FunctionInfo(
                module=name, qualname=node.name, node=node
            )
        elif isinstance(node, ast.ClassDef):
            is_dc, frozen = _dataclass_flags(node)
            cls = ClassInfo(
                module=name,
                name=node.name,
                node=node,
                base_names=tuple(
                    _last_component(b) for b in node.bases if _last_component(b)
                ),
                is_dataclass=is_dc,
                frozen=frozen,
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = FunctionInfo(
                        module=name,
                        qualname=f"{node.name}.{item.name}",
                        node=item,
                    )
            module.classes[node.name] = cls
    return module
