"""``repro-lint report``: the FLOW and COST analyses, rendered.

Each whole-program family keeps working state worth reading beyond its
findings — the lock-order graph, the closed cost of every budgeted
function.  ``repro-lint report FAMILY`` renders that state as text or
JSON::

    repro-lint report flow src/repro    # lock-order graph + escapes
    repro-lint report cost src/repro --format json   # budget table

The report always exits 0 once the analysis ran; the gate is the
plain ``repro-lint`` run, whose findings cover every violation the
reports list.

* **flow** — every lock the analysis qualified (with its threading
  kind), every order edge with one establishing site, the reentrant
  (RLock) self-edges, per-entry-point lock coverage, cycles, thread
  escapes and blocking-under-lock hits.
* **cost** — the budget registry (each registered function with its
  declared budget, closed symbolic cost and verdict), budget
  violations with their dominant charge and call chain, same-family
  quadratic products, hot-path N-sized allocations, and registry
  health.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Tuple

from .config import LintConfig
from .cost import CostAnalysis, cost_analysis, render_terms
from .flow import FlowAnalysis, flow_analysis
from .project import Project


def _heading(title: str) -> List[str]:
    return [title, "=" * len(title)]


def flow_text(analysis: FlowAnalysis) -> str:
    label = analysis.project.label
    lines: List[str] = []
    lines += _heading("lock-order graph")
    all_tokens = sorted(
        {t for edge in analysis.edges for t in edge}
        | set(analysis.reentrant)
        | {t for locks in analysis.entry_locks.values() for t in locks}
    )
    if not all_tokens:
        lines.append("  (no locks found)")
    for token in all_tokens:
        kind = analysis.lock_kinds.get(token, "unknown")
        lines.append(f"  lock {token}  [{kind}]")
    if analysis.edges:
        lines.append("")
        lines.append("order edges (held -> acquired)")
        for (held, acquired), sites in sorted(analysis.edges.items()):
            site = sites[0]
            lines.append(
                f"  {held} -> {acquired}  "
                f"({site.module}:{site.line} in {site.fn_key.split(':')[-1]})"
            )
    if analysis.reentrant:
        lines.append("")
        lines.append("reentrant self-edges (RLock, legal)")
        for token, sites in sorted(analysis.reentrant.items()):
            lines.append(f"  {token}  ({len(sites)} site(s))")
    lines.append("")
    lines.append("entry-point lock coverage")
    if not analysis.entry_locks:
        lines.append("  (no thread entry points discovered)")
    for key, locks in sorted(analysis.entry_locks.items()):
        shown = ", ".join(locks) if locks else "(none)"
        lines.append(f"  {label(key)}: {shown}")
    lines.append("")
    if analysis.cycles:
        lines.append(f"CYCLES: {len(analysis.cycles)}")
        for cycle in analysis.cycles:
            lines.append(
                f"  {cycle.detail}  "
                f"(first edge at {cycle.site.module}:{cycle.site.line})"
            )
    else:
        lines.append("cycles: none")
    lines += ["", *_heading("thread-escape report")]
    if not analysis.escapes:
        lines.append("  (no unregistered values escape into worker threads)")
    for escape in analysis.escapes:
        lines.append(
            f"  {escape.site.module}:{escape.site.line}  "
            f"{escape.value!r} ({escape.cls})"
        )
    if analysis.blocking:
        lines.append("")
        lines.append("blocking under lock")
        for hit in analysis.blocking:
            via = f" via {hit.via}" if hit.via else ""
            lines.append(
                f"  {hit.site.module}:{hit.site.line}  {hit.call}{via}  "
                f"holding {', '.join(hit.locks)}"
            )
    return "\n".join(lines)


def flow_json(analysis: FlowAnalysis) -> str:
    label = analysis.project.label
    payload = {
        "locks": {
            token: analysis.lock_kinds.get(token, "unknown")
            for token in sorted(
                {t for edge in analysis.edges for t in edge}
                | set(analysis.reentrant)
            )
        },
        "edges": [
            {
                "held": held,
                "acquired": acquired,
                "module": sites[0].module,
                "line": sites[0].line,
                "function": sites[0].fn_key,
            }
            for (held, acquired), sites in sorted(analysis.edges.items())
        ],
        "reentrant": sorted(analysis.reentrant),
        "cycles": [
            {"tokens": list(c.tokens), "detail": c.detail}
            for c in analysis.cycles
        ],
        "entry_locks": {
            label(key): list(locks)
            for key, locks in sorted(analysis.entry_locks.items())
        },
        "escapes": [
            {
                "module": e.site.module,
                "line": e.site.line,
                "value": e.value,
                "class": e.cls,
            }
            for e in analysis.escapes
        ],
        "blocking": [
            {
                "module": b.site.module,
                "line": b.site.line,
                "call": b.call,
                "locks": list(b.locks),
                "via": b.via,
            }
            for b in analysis.blocking
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def cost_text(analysis: CostAnalysis) -> str:
    label = analysis.project.label
    lines: List[str] = []
    lines += _heading("cost budgets")
    if not analysis.budgets:
        lines.append("  (no budgets registered)")
    over = {hit.budget.key for hit in analysis.budget_hits}
    for key in sorted(
        analysis.budgets, key=lambda k: analysis.budgets[k].entry
    ):
        budget = analysis.budgets[key]
        closed = render_terms(analysis._cost_closure(key))
        verdict = "OVER" if key in over else "ok"
        hot = "  [hot]" if key in analysis.hot_entries else ""
        lines.append(
            f"  {budget.entry}  budget O({budget.expr})  "
            f"closed {closed}  {verdict}{hot}"
        )
    if analysis.budget_hits:
        lines.append("")
        lines.append(f"BUDGET VIOLATIONS: {len(analysis.budget_hits)}")
        for hit in analysis.budget_hits:
            term = hit.term
            via = " via " + " -> ".join(term.chain) if term.chain else ""
            lines.append(
                f"  {term.site.module}:{term.site.line}  "
                f"{hit.budget.entry}  {render_terms([term])} > "
                f"O({hit.budget.expr})  [{term.kind}] {term.what}{via}"
            )
    lines += ["", *_heading("hot scope")]
    if not analysis.hot_entries:
        lines.append("  (no hot entry points registered)")
    for key in sorted(
        analysis.hot_entries, key=lambda k: analysis.hot_entries[k]
    ):
        lines.append(f"  hot entry {analysis.hot_entries[key]}")
    lines.append(f"  reachable functions: {len(analysis.hot_scope)}")
    lines += ["", *_heading("quadratic products")]
    if not analysis.quads:
        lines.append("  (no same-family quadratic is provable)")
    for quad in analysis.quads:
        lines.append(
            f"  {quad.site.module}:{quad.site.line}  "
            f"{label(quad.fn_key)}  "
            f"{'*'.join(quad.vars)}  {quad.what}"
        )
    lines += ["", *_heading("hot-path allocations")]
    if not analysis.allocs:
        lines.append("  (no N-sized allocation on a hot path)")
    for alloc in analysis.allocs:
        origin = (
            f"from {label(alloc.entry)}"
            if alloc.entry
            else "hot-path module"
        )
        lines.append(
            f"  {alloc.site.module}:{alloc.site.line}  "
            f"{label(alloc.fn_key)}  [{alloc.bound}] "
            f"{alloc.what}  ({origin})"
        )
    lines += ["", *_heading("registry health")]
    if not analysis.registry:
        lines.append("  (every registry entry resolves and is budgeted)")
    for stale in analysis.registry:
        lines.append(
            f"  [{stale.table}] entry {stale.entry!r}: {stale.detail}"
        )
    return "\n".join(lines)


def cost_json(analysis: CostAnalysis) -> str:
    label = analysis.project.label
    over = {hit.budget.key for hit in analysis.budget_hits}
    payload = {
        "budgets": [
            {
                "entry": budget.entry,
                "budget": budget.expr,
                "closed": render_terms(analysis._cost_closure(key)),
                "ok": key not in over,
                "hot": key in analysis.hot_entries,
            }
            for key, budget in sorted(
                analysis.budgets.items(), key=lambda kv: kv[1].entry
            )
        ],
        "budget_violations": [
            {
                "entry": hit.budget.entry,
                "budget": hit.budget.expr,
                "cost": render_terms([hit.term]),
                "module": hit.term.site.module,
                "line": hit.term.site.line,
                "kind": hit.term.kind,
                "what": hit.term.what,
                "via": list(hit.term.chain),
            }
            for hit in analysis.budget_hits
        ],
        "hot_entries": sorted(analysis.hot_entries.values()),
        "hot_reachable_count": len(analysis.hot_scope),
        "quadratics": [
            {
                "module": quad.site.module,
                "line": quad.site.line,
                "function": label(quad.fn_key),
                "vars": list(quad.vars),
                "what": quad.what,
            }
            for quad in analysis.quads
        ],
        "hot_allocations": [
            {
                "module": alloc.site.module,
                "line": alloc.site.line,
                "function": label(alloc.fn_key),
                "bound": alloc.bound,
                "what": alloc.what,
                "entry": (
                    label(alloc.entry) if alloc.entry else None
                ),
            }
            for alloc in analysis.allocs
        ],
        "stale_registry": [
            {
                "entry": stale.entry,
                "table": stale.table,
                "detail": stale.detail,
            }
            for stale in analysis.registry
        ],
        "violations": analysis.violation_count,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


#: family -> (analysis, text renderer, JSON renderer)
REPORTS: Dict[
    str,
    Tuple[
        Callable[[Project, LintConfig], Any],
        Callable[[Any], str],
        Callable[[Any], str],
    ],
] = {
    "flow": (flow_analysis, flow_text, flow_json),
    "cost": (cost_analysis, cost_text, cost_json),
}
