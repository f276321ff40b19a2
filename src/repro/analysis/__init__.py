"""repro-lint: AST-based invariant checking for the reproduction.

CLITE's evaluation stands on three mechanical invariants — seed-driven
determinism, thread-safety of whatever runs on handler threads, and
the partition contracts of Eqs. 5-6 — and this subpackage enforces
them statically.  A rule engine walks every module's AST, a call-graph
pass computes what each thread entry point and event handler reaches,
and a catalog of rules (determinism, thread-safety, contract presence,
numerics hygiene, telemetry naming, lockset discipline, lock order)
reports violations with stable IDs, autofix hints, and
per-line/per-file suppression comments.

Run it as ``repro-lint src/repro`` (console script) or through
:func:`run_lint`.
"""

from .config import LintConfig, load_config
from .engine import LintEngine, run_lint
from .model import Finding, Rule, all_rules
from .reporter import render_json, render_text

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "Rule",
    "all_rules",
    "load_config",
    "render_json",
    "render_text",
    "run_lint",
]
