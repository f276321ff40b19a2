"""``repro-lint report``: the FLOW analysis, rendered.

The whole-program FLOW family keeps working state worth reading beyond
its findings — the lock-order graph, the entry-point lock coverage.
``repro-lint report flow`` renders that state as text or JSON::

    repro-lint report flow src/repro                 # lock-order graph
    repro-lint report flow src/repro --format json   # the same, as JSON

The report always exits 0 once the analysis ran; the gate is the
plain ``repro-lint`` run, whose findings cover every violation the
report lists.  The report lists every lock the analysis qualified
(with its threading kind), every order edge with one establishing
site, the reentrant (RLock) self-edges, per-entry-point lock coverage,
cycles, thread escapes and blocking-under-lock hits.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Tuple

from .config import LintConfig
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
}
