"""``repro-lint`` console entry point.

Usage::

    repro-lint src/repro                 # human-readable text
    repro-lint src/repro --format json   # CI reporter
    repro-lint --list-rules              # the rule catalog

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .config import LintConfig, load_config
from .engine import LintEngine
from .model import all_rules
from .project import Project
from .reporter import render_json, render_rule_catalog, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the CLITE reproduction: "
            "determinism, thread-safety, partition contracts, numerics."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="Files or directories to analyse (default: src/repro).",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="Output format (json is the CI reporter).",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="PATH",
        help=(
            "File or directory to skip during discovery (repeatable); "
            "e.g. --exclude tests/lint_fixtures."
        ),
    )
    parser.add_argument(
        "--select",
        default="",
        help=(
            "Comma-separated rule IDs or family names (e.g. RPL101, "
            "determinism) to run exclusively."
        ),
    )
    parser.add_argument(
        "--ignore",
        default="",
        help="Comma-separated rule IDs or family names to skip.",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="Print the rule catalog and exit.",
    )
    return parser


def _default_paths(
    parser: argparse.ArgumentParser, paths: List[str]
) -> Optional[List[str]]:
    if paths:
        return paths
    default = Path("src/repro")
    if default.is_dir():
        return [str(default)]
    parser.print_usage(sys.stderr)
    print(
        f"{parser.prog}: no paths given and ./src/repro not found",
        file=sys.stderr,
    )
    return None


def _load_config(prog: str, paths: List[str]) -> Optional[LintConfig]:
    try:
        return load_config(Path(paths[0]))
    except ValueError as error:
        print(f"{prog}: {error}", file=sys.stderr)
        return None


def _build_project(
    prog: str, engine: LintEngine, paths: List[str], exclude: List[str]
) -> Optional[Project]:
    try:
        return engine.build_project(paths, exclude=exclude)
    except (FileNotFoundError, SyntaxError) as error:
        print(f"{prog}: {error}", file=sys.stderr)
        return None


def _split_rules(raw: str) -> tuple:
    return tuple(token.strip() for token in raw.split(",") if token.strip())


def _expand_families(tokens: tuple) -> tuple:
    """Expand family names (``determinism``, ``thread-safety``) to rule IDs."""
    families: dict = {}
    for rule_id, cls in all_rules().items():
        families.setdefault(cls.family.upper().replace("-", "_"), []).append(
            rule_id
        )
    expanded: list = []
    for token in tokens:
        members = families.get(token.upper().replace("-", "_"))
        if members is not None:
            expanded.extend(members)
        else:
            expanded.append(token)
    return tuple(expanded)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_catalog())
        return 0

    paths = _default_paths(parser, args.paths)
    if paths is None:
        return 2
    config = _load_config(parser.prog, paths)
    if config is None:
        return 2

    select = _expand_families(_split_rules(args.select))
    ignore = _expand_families(_split_rules(args.ignore))
    if select or ignore:
        from dataclasses import replace

        config = replace(
            config,
            select=select or config.select,
            ignore=tuple(set(config.ignore) | set(ignore)),
        )

    known = set(all_rules())
    unknown = [r for r in (*select, *ignore) if r not in known]
    if unknown:
        print(
            f"repro-lint: unknown rule id(s): {', '.join(unknown)}",
            file=sys.stderr,
        )
        return 2

    engine = LintEngine(config)
    project = _build_project(parser.prog, engine, paths, args.exclude)
    if project is None:
        return 2
    findings = engine.run(project)

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
