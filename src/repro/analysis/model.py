"""Core data model of the linter: findings, rules, and the registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .config import LintConfig
    from .project import Project

#: Rule families, in catalog order.
DETERMINISM = "determinism"
THREAD_SAFETY = "thread-safety"
CONTRACTS = "contracts"
NUMERICS = "numerics"
TELEMETRY = "telemetry"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule_id: Stable rule identifier (e.g. ``"RPL101"``).
        path: Path of the offending file, as given to the engine.
        line: 1-based line number.
        col: 0-based column offset.
        message: What is wrong, specific to this site.
        hint: The rule's autofix hint (how to make the finding go away
            legitimately; suppression syntax is documented separately).
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class Rule(ABC):
    """One invariant check, applied project-wide.

    Subclasses declare a stable ``rule_id``, a ``family`` (one of the
    module-level family constants), and an ``autofix_hint`` copied onto
    every finding.  ``check`` sees the whole parsed project so rules can
    be cross-module (the contract family follows base classes across
    modules).
    """

    rule_id: str = ""
    name: str = ""
    family: str = ""
    description: str = ""
    autofix_hint: str = ""

    @abstractmethod
    def check(self, project: "Project", config: "LintConfig") -> Iterator[Finding]:
        """Yield every violation of this rule in the project."""

    def finding(
        self, project: "Project", module_name: str, node, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node of one module."""
        module = project.modules[module_name]
        return Finding(
            rule_id=self.rule_id,
            path=str(module.display_path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.autofix_hint,
        )


#: Registry of every known rule class, keyed by rule ID.
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} needs a rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """Every registered rule class, keyed by stable rule ID."""
    # Importing the rule modules registers them; done lazily so the
    # registry is complete no matter which module was imported first.
    from . import (  # noqa: F401
        rules_contracts,
        rules_determinism,
        rules_numerics,
        rules_telemetry,
        rules_threadsafety,
    )

    return dict(sorted(_REGISTRY.items()))


@dataclass
class RuleCatalogEntry:
    """Human-readable catalog row (``repro-lint --list-rules``)."""

    rule_id: str
    name: str
    family: str
    description: str
    autofix_hint: str


def catalog() -> List[RuleCatalogEntry]:
    return [
        RuleCatalogEntry(
            rule_id=cls.rule_id,
            name=cls.name,
            family=cls.family,
            description=cls.description,
            autofix_hint=cls.autofix_hint,
        )
        for cls in all_rules().values()
    ]
