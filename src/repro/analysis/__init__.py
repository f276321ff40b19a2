"""repro-lint: AST-based invariant checking for the reproduction.

CLITE's evaluation stands on mechanical invariants — seed-driven
determinism, immutable cache keys, and the partition contracts of
Eqs. 5-6 — and this subpackage enforces them statically.  A rule engine
walks every module's AST once, and a catalog of per-module rules
(determinism, thread-safety, contract presence, numerics hygiene,
telemetry naming) reports violations with stable IDs, autofix hints,
and per-line/per-file suppression comments.  Lock discipline on the
threads that do run is checked at runtime by :mod:`repro.sanitizer`.

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
