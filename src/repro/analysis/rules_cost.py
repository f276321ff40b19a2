"""COST family (RPL10xx): static per-event complexity budgets.

These rules consume the shared :class:`~.cost.CostAnalysis` harvest:
one pass over the project yields every function's symbolic cost
closure, the local quadratic products, the hot-path allocation sites,
and the registry health report; each rule renders its slice as
findings.  The same analysis backs
``repro-lint report cost``, so every finding here can be inspected in
context (per-entry-point cost table, closures, hot scope) with
``repro-lint report cost src/repro``.
"""

from __future__ import annotations

from typing import Iterator

from .config import LintConfig
from .cost import cost_analysis, render_terms
from .model import COST, Finding, Rule, register
from .project import Project


@register
class CostBudgetExceeded(Rule):
    """RPL1001: a registered function's closed cost exceeds its budget."""

    rule_id = "RPL1001"
    name = "cost-budget-exceeded"
    family = COST
    description = (
        "Functions registered in [tool.repro-lint.cost] budgets carry "
        "a declared complexity polynomial (small, n_nodes, n_jobs, "
        "n_shards, and * products); their closed symbolic cost — own "
        "loops, materializations, membership scans, plus every "
        "callee's, bound through call sites over the callgraph — must "
        "not exceed that degree in fleet size.  This is the CLITE "
        "'low-overhead decision' claim as a checked invariant: a "
        "full-cluster scan reintroduced anywhere under an event "
        "handler fails the handler's O(small) budget."
    )
    autofix_hint = (
        "Replace the fleet-sized scan with an incremental index "
        "maintained at commit points (or a dirty set drained per "
        "tick), raise the declared budget if the cost is truly "
        "intended, or suppress the single charge site with a reasoned "
        "disable-next-line comment."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = cost_analysis(project, config)
        for hit in analysis.budget_hits:
            term = hit.term
            via = " via " + " -> ".join(term.chain) if term.chain else ""
            cost = render_terms([term])
            yield self.finding_at(
                project, term.site,
                (
                    f"{hit.budget.entry!r} is budgeted O({hit.budget.expr}) "
                    f"but closes at {cost}: {term.kind} charge "
                    f"{term.what}{via}"
                ),
            )


@register
class QuadraticBlowup(Rule):
    """RPL1002: provable same-family quadratic products."""

    rule_id = "RPL1002"
    name = "quadratic-blowup"
    family = COST
    description = (
        "A cost monomial containing the same N-class size variable "
        "twice is a provable quadratic in one fleet axis: nested loops "
        "over two n_nodes-sized collections, or a list-membership / "
        "sorted() / list() materialization of an N collection inside a "
        "loop already bounded by that same N.  Cross-family products "
        "(n_jobs x n_nodes batch placement) are deliberate and stay "
        "silent; same-family ones are almost always an accidental "
        "O(N^2)."
    )
    autofix_hint = (
        "Hoist the inner scan out of the loop, precompute a set/dict "
        "for membership, or restructure around an index; suppress "
        "with a reason only when the quadratic is bounded by "
        "construction."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = cost_analysis(project, config)
        for hit in analysis.quads:
            yield self.finding_at(
                project, hit.site,
                (
                    f"same-family quadratic in "
                    f"{project.qualname(hit.fn_key)!r}: "
                    f"{'*'.join(hit.vars)} from {hit.what}"
                ),
            )


@register
class HotPathAllocation(Rule):
    """RPL1003: N-sized allocation/copy inside hot entry points."""

    rule_id = "RPL1003"
    name = "hot-path-n-allocation"
    family = COST
    description = (
        "Functions reachable from a registered hot entry point (the "
        "engine round loop, warehouse event handlers, "
        "ServiceGateway.publish) or living in a hot-path module must "
        "not materialize n_nodes- or n_jobs-sized containers "
        "(sorted/list/dict of a fleet collection, numpy copies): a "
        "per-event O(N) allocation is the cost the incremental "
        "indices exist to avoid.  n_shards-sized routing state is "
        "exempt — shard counts are small by design."
    )
    autofix_hint = (
        "Maintain the derived structure incrementally at commit "
        "points instead of rebuilding it per event, or iterate "
        "lazily without materializing."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = cost_analysis(project, config)
        for hit in analysis.allocs:
            origin = (
                f"reachable from {project.qualname(hit.entry)!r}"
                if hit.entry
                else "in a hot-path module"
            )
            yield self.finding_at(
                project, hit.site,
                (
                    f"{hit.bound}-sized allocation in "
                    f"{project.qualname(hit.fn_key)!r} ({origin}): "
                    f"{hit.what}"
                ),
            )


@register
class CostRegistryHealth(Rule):
    """RPL1005: the cost registry must stay live and complete."""

    rule_id = "RPL1005"
    name = "cost-registry-health"
    family = COST
    description = (
        "Entries in the [tool.repro-lint.cost] budgets and "
        "hot-entrypoints tables must resolve to functions that still "
        "exist, budget expressions must parse (small / n_nodes / "
        "n_jobs / n_shards and * products), and every hot entry point "
        "must carry a declared budget — an unbudgeted event handler "
        "is an unchecked scaling claim.  Only entries whose dotted "
        "module prefix is part of the analysed tree are checked, so "
        "partial-tree runs stay quiet."
    )
    autofix_hint = (
        "Update the dotted path to the function's new home, fix the "
        "budget grammar, or add the missing budgets entry for the "
        "hot entry point."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = cost_analysis(project, config)
        for hit in analysis.registry:
            yield self.finding_at(
                project, hit.site,
                (
                    f"cost-registry entry {hit.entry!r} "
                    f"({hit.table}): {hit.detail}"
                ),
            )
