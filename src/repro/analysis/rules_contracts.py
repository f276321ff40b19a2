"""Contract-presence rules (RPL3xx).

The partition invariants (every resource column sums to capacity, every
job holds >= 1 unit, units are integers — Eqs. 5-6) are enforced at
runtime by the decorators in :mod:`repro.resources.contracts`.  These
rules close the loop statically: every function whose outputs cross a
partition-contract boundary must actually carry its decorator, so a new
policy, optimizer or constructor cannot silently opt out.  (Placement
has one function, ``repro.warehouse.service.place``, whose
``@placement_contract`` its own tests exercise; no class hierarchy is
left for a rule to walk.)
"""

from __future__ import annotations

from typing import Iterator, Optional, Set

from .config import LintConfig
from .model import CONTRACTS, Finding, Rule, register
from .project import ClassInfo, FunctionInfo, Project


def _is_abstract(fn: FunctionInfo) -> bool:
    return any(
        name in ("abstractmethod", "abstractproperty")
        for name in fn.decorator_names()
    )


def _inherits_from(
    project: Project, cls: ClassInfo, base_names: Set[str], _seen=None
) -> bool:
    seen = _seen if _seen is not None else set()
    if cls.key in seen:
        return False
    seen.add(cls.key)
    for base in cls.base_names:
        if base in base_names:
            return True
        for parent in project.classes_by_name.get(base, ()):
            if _inherits_from(project, parent, base_names, seen):
                return True
    return False


class _DecoratorPresenceRule(Rule):
    """Shared machinery: method M of matching classes needs decorator D."""

    required_decorator: str = ""

    def _missing(
        self, fn: FunctionInfo, what: str
    ) -> Optional[str]:
        if _is_abstract(fn):
            return None
        if self.required_decorator in fn.decorator_names():
            return None
        return (
            f"{what} must be decorated with @{self.required_decorator} "
            "so its output is checked against the partition contracts"
        )


@register
class ProposeMissingContract(_DecoratorPresenceRule):
    rule_id = "RPL302"
    name = "propose-missing-contract"
    family = CONTRACTS
    description = (
        "An acquisition optimizer's propose()/propose_exploit() lacks "
        "@proposal_contract: proposed candidate partitions would not be "
        "validated against Eqs. 5-6 before being observed."
    )
    autofix_hint = (
        "Decorate the propose method with "
        "repro.resources.contracts.proposal_contract."
    )
    required_decorator = "proposal_contract"

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        targets = set(config.optimizer_classes)
        for cls in project.iter_classes():
            if cls.name not in targets:
                continue
            for method_name in ("propose", "propose_exploit"):
                method = cls.methods.get(method_name)
                if method is None:
                    continue
                message = self._missing(method, f"{cls.name}.{method_name}")
                if message is not None:
                    yield self.finding(
                        project, cls.module, method.node, message
                    )


@register
class PolicyMissingContract(_DecoratorPresenceRule):
    rule_id = "RPL303"
    name = "policy-missing-contract"
    family = CONTRACTS
    description = (
        "A scheduling policy's partition() lacks @policy_contract: the "
        "partition it reports best could violate Eqs. 5-6 or "
        "misreport QoS."
    )
    autofix_hint = (
        "Decorate partition() with "
        "repro.resources.contracts.policy_contract."
    )
    required_decorator = "policy_contract"

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        bases = set(config.policy_bases)
        for cls in project.iter_classes():
            if cls.name in bases or not _inherits_from(project, cls, bases):
                continue
            method = cls.methods.get("partition")
            if method is None:
                continue
            message = self._missing(method, f"{cls.name}.partition")
            if message is not None:
                yield self.finding(project, cls.module, method.node, message)


@register
class ConstructorMissingContract(_DecoratorPresenceRule):
    rule_id = "RPL304"
    name = "constructor-missing-contract"
    family = CONTRACTS
    description = (
        "A configured partition constructor lacks @partition_contract: "
        "partitions it fabricates (equal split, random draws, cube "
        "projections) would enter the search unchecked."
    )
    autofix_hint = (
        "Decorate the constructor with "
        "repro.resources.contracts.partition_contract."
    )
    required_decorator = "partition_contract"

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        for dotted in config.partition_constructors:
            class_name, _, method_name = dotted.rpartition(".")
            found = False
            if class_name:
                for cls in project.classes_by_name.get(class_name, ()):
                    method = cls.methods.get(method_name)
                    if method is None:
                        continue
                    found = True
                    message = self._missing(method, dotted)
                    if message is not None:
                        yield self.finding(
                            project, cls.module, method.node, message
                        )
            else:
                for module in project.modules.values():
                    fn = module.functions.get(method_name)
                    if fn is None:
                        continue
                    found = True
                    message = self._missing(fn, dotted)
                    if message is not None:
                        yield self.finding(
                            project, module.name, fn.node, message
                        )
            # A configured constructor that does not exist is itself a
            # finding: the contract list has drifted from the code.
            if not found and project.modules:
                first = next(iter(project.modules.values()))
                yield Finding(
                    rule_id=self.rule_id,
                    path=str(first.display_path),
                    line=1,
                    col=0,
                    message=(
                        f"configured partition constructor {dotted!r} was "
                        "not found in the linted sources"
                    ),
                    hint=(
                        "Update [tool.repro-lint] partition_constructors "
                        "to match the code."
                    ),
                )
