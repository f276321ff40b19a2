"""The lint engine: file discovery, rule execution, suppression.

Suppression syntax (checked against stable rule IDs, ``all`` wildcard):

* ``# repro-lint: disable=RPL101`` — this line only;
* ``# repro-lint: disable-next-line=RPL101,RPL401`` — the line below;
* ``# repro-lint: disable-file=RPL104`` — the whole file.

A suppression that names an id no registered rule carries (a typo, or
a retired rule) suppresses nothing, so it is itself a finding,
:data:`UNKNOWN_SUPPRESSION`; ``all`` and ``*`` stay valid.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from .config import LintConfig, load_config
from .model import Finding, all_rules
from .project import ModuleInfo, Project, parse_module

#: Rule id of the finding for a suppression naming an unregistered id.
#: It belongs to no rule, so ``--select`` and ``--ignore`` leave it on.
UNKNOWN_SUPPRESSION = "RPL000"


def discover_files(
    paths: Sequence[Union[str, Path]],
    exclude: Sequence[Union[str, Path]] = (),
) -> List[Path]:
    """Every ``.py`` file under the given files/directories, sorted.

    ``exclude`` entries are files or directory prefixes (resolved); any
    discovered file equal to or underneath one is dropped — how CI
    lints ``tests/`` while skipping the deliberately-broken
    ``tests/lint_fixtures/`` corpus.
    """
    excluded = [Path(raw).resolve() for raw in exclude]

    def is_excluded(resolved: Path) -> bool:
        return any(
            resolved == entry or entry in resolved.parents
            for entry in excluded
        )

    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    unique = []
    seen = set()
    for path in files:
        resolved = path.resolve()
        if resolved not in seen and not is_excluded(resolved):
            seen.add(resolved)
            unique.append(path)
    return unique


class LintEngine:
    """Parses a file set once and runs every enabled rule over it."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def build_project(
        self,
        paths: Sequence[Union[str, Path]],
        exclude: Sequence[Union[str, Path]] = (),
    ) -> Project:
        modules: List[ModuleInfo] = []
        for path in discover_files(paths, exclude=exclude):
            modules.append(parse_module(path, display_path=str(path)))
        return Project(modules)

    def run(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        registry = all_rules()
        for rule_id, rule_cls in registry.items():
            if not self.config.rule_enabled(rule_id):
                continue
            rule = rule_cls()
            findings.extend(rule.check(project, self.config))
        for module in project.modules.values():
            findings.extend(
                Finding(
                    rule_id=UNKNOWN_SUPPRESSION,
                    path=str(module.display_path),
                    line=line,
                    col=0,
                    message=f"suppression names unregistered rule id "
                    f"{rule_id!r}",
                    hint="Delete the id: no rule carries it, so it "
                    "suppresses nothing.",
                )
                for line, rule_id in module.suppression_ids
                if rule_id != "all" and rule_id not in registry
            )
        return self._apply_suppressions(project, findings)

    def _apply_suppressions(
        self, project: Project, findings: Iterable[Finding]
    ) -> List[Finding]:
        by_path = {
            str(module.display_path): module
            for module in project.modules.values()
        }
        kept = []
        for finding in findings:
            module = by_path.get(finding.path)
            if module is not None and module.suppressed(
                finding.rule_id, finding.line
            ):
                continue
            kept.append(finding)
        return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.rule_id))


def run_lint(
    paths: Sequence[Union[str, Path]],
    config: Optional[LintConfig] = None,
    exclude: Sequence[Union[str, Path]] = (),
) -> List[Finding]:
    """Lint ``paths`` and return the surviving findings.

    When ``config`` is ``None`` the nearest ``pyproject.toml``'s
    ``[tool.repro-lint]`` table (walking up from the first path) is
    merged over the built-in defaults.
    """
    if not paths:
        raise ValueError("run_lint needs at least one path")
    if config is None:
        config = load_config(Path(paths[0]))
    engine = LintEngine(config)
    project = engine.build_project(paths, exclude=exclude)
    return engine.run(project)
