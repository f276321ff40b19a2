"""Incremental lint cache: replay a clean run when nothing changed.

Most of the rule families are *whole-program* analyses (call graph,
lock-order graph, lock sets), so per-file result reuse would be
unsound: editing one file can create findings in another (a new lock
acquisition in a callee changes its callers' order edges).  The cache
is therefore all-or-nothing at invocation granularity — the stored
findings are replayed only when *every* input file's content hash, the
effective configuration, and the analysis package itself are
unchanged.  Any difference re-runs the full analysis.  Repeated
invocations over an unchanged tree with the same effective selection
(text then JSON, or a re-run of CI's single full ``repro-lint`` step)
pay for one analysis.  A different ``--select``/``--ignore`` is a
different key, and the file holds one entry: a full run followed by
``--select FLOW`` analyses twice and leaves only the second cached.
The full run already reports every family, so CI makes exactly one.

The cache lives in ``.repro-lint-cache.json`` next to the invocation's
working directory by default (``--cache-file`` overrides,
``--no-cache`` bypasses), and is invalidated by:

* any input file appearing, disappearing, or changing content;
* any configuration change (including ``--select``/``--ignore``,
  which are merged into the config before keying) — the nested
  ``[tool.repro-lint.flow]`` table is parsed into ``LintConfig`` fields
  before the digest is taken, so editing a thread entry point
  invalidates cached runs like any other config edit;
* any change to ``repro.analysis`` itself (rule logic edits must not
  replay stale verdicts).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .config import LintConfig
from .model import Finding

#: Bumped when the stored payload shape changes.
CACHE_SCHEMA = 1

#: Default cache file name, resolved against the current directory.
DEFAULT_CACHE_FILE = ".repro-lint-cache.json"

_TOOL_DIGEST: Optional[str] = None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tool_digest() -> str:
    """Content hash of the ``repro.analysis`` package sources.

    A rule-logic edit changes this digest, so a stale cache can never
    outlive the code that produced it.  Computed once per process.
    """
    global _TOOL_DIGEST
    if _TOOL_DIGEST is None:
        digest = hashlib.sha256()
        package_dir = Path(__file__).parent
        for path in sorted(package_dir.glob("*.py")):
            digest.update(path.name.encode("utf-8"))
            digest.update(path.read_bytes())
        _TOOL_DIGEST = digest.hexdigest()[:24]
    return _TOOL_DIGEST


def config_digest(config: LintConfig) -> str:
    """Hash of the effective configuration (frozen dataclass repr)."""
    return _sha256(repr(config).encode("utf-8"))[:24]


def file_digests(files: Sequence[Path]) -> Dict[str, str]:
    """Per-file content hashes, keyed by display path."""
    return {str(path): _sha256(path.read_bytes()) for path in files}


def cache_key(files: Sequence[Path], config: LintConfig) -> Dict[str, object]:
    return {
        "schema": CACHE_SCHEMA,
        "tool": tool_digest(),
        "config": config_digest(config),
        "files": file_digests(files),
    }


class LintCache:
    """One JSON cache file: a key plus the findings it vouches for."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def lookup(self, key: Dict[str, object]) -> Optional[List[Finding]]:
        """The cached findings if ``key`` matches exactly, else ``None``."""
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        for field in ("schema", "tool", "config", "files"):
            if data.get(field) != key[field]:
                return None
        findings = data.get("findings")
        if not isinstance(findings, list):
            return None
        try:
            return [Finding(**entry) for entry in findings]
        except TypeError:
            return None

    def store(
        self, key: Dict[str, object], findings: Sequence[Finding]
    ) -> None:
        """Persist ``findings`` under ``key`` (atomic best-effort)."""
        payload = dict(key)
        payload["findings"] = [asdict(finding) for finding in findings]
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
            os.replace(tmp, self.path)
        except OSError:
            # A read-only tree must not fail the lint run; the cache is
            # an optimisation only.
            try:
                tmp.unlink()
            except OSError:
                pass
