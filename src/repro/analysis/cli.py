"""``repro-lint`` console entry point.

Usage::

    repro-lint src/repro                 # human-readable text
    repro-lint src/repro --format json   # CI reporter
    repro-lint --list-rules              # the rule catalog
    repro-lint report flow src/repro     # a family's analysis report

Exit status: 0 clean, 1 findings, 2 usage/configuration error.  The
``report flow`` subcommand (see :mod:`.report`) exits 0 whenever the
analysis ran.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .cache import DEFAULT_CACHE_FILE, LintCache, cache_key
from .config import LintConfig, load_config
from .engine import LintEngine, discover_files
from .model import all_rules
from .project import Project
from .report import REPORTS
from .reporter import render_json, render_rule_catalog, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the CLITE reproduction: "
            "determinism, thread-safety, partition contracts, numerics."
        ),
        epilog=(
            "repro-lint report flow [paths] renders the lock-order "
            "analysis behind the FLOW findings (see report --help)."
        ),
    )
    _add_common_arguments(parser)
    parser.add_argument(
        "--select",
        default="",
        help=(
            "Comma-separated rule IDs or family names (e.g. FLOW, "
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
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="Re-run the full analysis even when the cache is fresh.",
    )
    parser.add_argument(
        "--cache-file",
        default=DEFAULT_CACHE_FILE,
        metavar="PATH",
        help=(
            "Incremental cache location (default: "
            f"{DEFAULT_CACHE_FILE} in the current directory)."
        ),
    )
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint report",
        description=(
            "Render the FLOW analysis (lock-order graph, escapes) behind "
            "the lint family's findings."
        ),
    )
    parser.add_argument("family", choices=tuple(REPORTS))
    _add_common_arguments(parser)
    return parser


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
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


def report_main(argv: List[str]) -> int:
    """``repro-lint report``: print one family's analysis report."""
    parser = build_report_parser()
    args = parser.parse_args(argv)
    paths = _default_paths(parser, args.paths)
    if paths is None:
        return 2
    config = _load_config(parser.prog, paths)
    if config is None:
        return 2
    project = _build_project(
        parser.prog, LintEngine(config), paths, args.exclude
    )
    if project is None:
        return 2
    analyse, text, as_json = REPORTS[args.family]
    analysis = analyse(project, config)
    print(as_json(analysis) if args.format == "json" else text(analysis))
    return 0


def _split_rules(raw: str) -> tuple:
    return tuple(token.strip() for token in raw.split(",") if token.strip())


def _expand_families(tokens: tuple) -> tuple:
    """Expand family names (``FLOW``, ``thread-safety``) to rule IDs."""
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
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["report"]:
        return report_main(argv[1:])
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

    cache = None
    key = None
    if not args.no_cache:
        try:
            files = discover_files(paths, exclude=args.exclude)
            key = cache_key(files, config)
        except (FileNotFoundError, OSError) as error:
            print(f"repro-lint: {error}", file=sys.stderr)
            return 2
        cache = LintCache(Path(args.cache_file))
        cached = cache.lookup(key)
        if cached is not None:
            print("repro-lint: cache hit, replaying findings", file=sys.stderr)
            if args.format == "json":
                print(render_json(cached))
            else:
                print(render_text(cached))
            return 1 if cached else 0

    engine = LintEngine(config)
    project = _build_project(parser.prog, engine, paths, args.exclude)
    if project is None:
        return 2
    findings = engine.run(project)
    if cache is not None and key is not None:
        cache.store(key, findings)

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
