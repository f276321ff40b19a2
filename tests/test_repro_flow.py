"""FLOW: lock-order graph edge cases, the ``repro-lint report flow``
output, and the incremental lint cache."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import LintConfig
from repro.analysis.cache import LintCache, cache_key
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import LintEngine
from repro.analysis.flow import flow_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def analyse(tmp_path, source, **overrides):
    path = tmp_path / "mod.py"
    path.write_text(source)
    config = LintConfig(**overrides)
    engine = LintEngine(config)
    project = engine.build_project([path])
    return flow_analysis(project, config)


# ----------------------------------------------------------------------
# Lock-order graph edge cases
# ----------------------------------------------------------------------
class TestLockOrderGraph:
    def test_rlock_self_edge_is_reentrant_not_a_cycle(self, tmp_path):
        """Self-guarding helpers re-taking an RLock are legal."""
        source = (
            "import threading\n"
            "class R:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        analysis = analyse(tmp_path, source)
        assert analysis.cycles == []
        assert "R._lock" in analysis.reentrant

    def test_plain_lock_reacquire_is_a_self_deadlock(self, tmp_path):
        source = (
            "import threading\n"
            "class L:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        analysis = analyse(tmp_path, source)
        assert len(analysis.cycles) == 1
        cycle = analysis.cycles[0]
        assert cycle.tokens == ("L._lock",)
        assert "re-acquired" in cycle.detail

    def test_conditional_acquisition_is_an_edge_not_a_cycle(self, tmp_path):
        """A lock taken on only one branch still orders after the outer
        lock; one direction alone must not read as a deadlock."""
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock_a = threading.Lock()\n"
            "        self._lock_b = threading.Lock()\n"
            "    def maybe(self, flag):\n"
            "        with self._lock_a:\n"
            "            if flag:\n"
            "                with self._lock_b:\n"
            "                    pass\n"
        )
        analysis = analyse(tmp_path, source)
        assert ("C._lock_a", "C._lock_b") in analysis.edges
        assert analysis.cycles == []

    def test_interprocedural_two_class_cycle(self, tmp_path):
        """A holds its lock and calls into B (which takes B's lock);
        B does the reverse.  Neither function shows both locks locally —
        only the call-graph closure sees the ABBA."""
        source = (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def take(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "    def forward(self, b: 'B'):\n"
            "        with self._lock:\n"
            "            b.take()\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def take(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "    def backward(self, a: 'A'):\n"
            "        with self._lock:\n"
            "            a.take()\n"
        )
        analysis = analyse(tmp_path, source)
        assert ("A._lock", "B._lock") in analysis.edges
        assert ("B._lock", "A._lock") in analysis.edges
        assert len(analysis.cycles) == 1
        assert set(analysis.cycles[0].tokens) == {"A._lock", "B._lock"}

    def test_thread_entry_only_lock_lands_in_coverage(self, tmp_path):
        """A lock touched solely by a thread target must still appear in
        that entry point's lock coverage."""
        source = (
            "import threading\n"
            "_work_lock = threading.Lock()\n"
            "def work():\n"
            "    with _work_lock:\n"
            "        pass\n"
            "def dispatch():\n"
            "    worker = threading.Thread(target=work)\n"
            "    worker.start()\n"
            "    worker.join()\n"
        )
        analysis = analyse(tmp_path, source)
        entry_locks = {
            key.split(":")[-1]: locks
            for key, locks in analysis.entry_locks.items()
        }
        assert "work" in entry_locks
        assert any(
            token.endswith("._work_lock") for token in entry_locks["work"]
        )

    def test_repo_graph_covers_http_handlers(self):
        """Acceptance: the HTTP handlers — the one place threads meet the
        scheduler — are entry points of the graph, and no scheduler-core
        function is."""
        from repro.analysis.config import load_config

        config = load_config(PACKAGE)
        engine = LintEngine(config)
        project = engine.build_project([PACKAGE])
        analysis = flow_analysis(project, config)
        qualnames = {key.split(":")[-1] for key in analysis.entry_locks}
        assert {
            "_MetricsHandler.do_GET",      # telemetry serve
            "_WarehouseHandler.do_GET",    # warehouse control plane
            "_WarehouseHandler.do_POST",
        } <= qualnames
        modules = {key.split(":")[0] for key in analysis.entry_locks}
        assert not any(
            module.startswith(("repro.cluster", "repro.core"))
            for module in modules
        )
        assert analysis.cycles == []

    def test_default_entrypoints_match_repo_config(self):
        """The repo's pyproject overrides nothing, so a bare
        ``LintConfig()`` sees the same HTTP handler entry points."""
        from repro.analysis.config import load_config

        assert (
            LintConfig().flow_entrypoints
            == load_config(PACKAGE).flow_entrypoints
        )


# ----------------------------------------------------------------------
# repro-lint report flow / --select FLOW
# ----------------------------------------------------------------------
def run_lint_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
    )


CYCLE_SOURCE = (
    "import threading\n"
    "class OrderA:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "    def tangle(self, other: 'OrderB'):\n"
    "        with self._lock:\n"
    "            with other._lock:\n"
    "                pass\n"
    "class OrderB:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "    def tangle(self, other: 'OrderA'):\n"
    "        with self._lock:\n"
    "            with other._lock:\n"
    "                pass\n"
)


class TestFlowCLI:
    def test_text_report_on_package(self):
        result = run_lint_cli("report", "flow", str(PACKAGE))
        assert result.returncode == 0, result.stderr
        assert "lock-order graph" in result.stdout
        assert "entry-point lock coverage" in result.stdout
        assert "cycles: none" in result.stdout
        assert "_WarehouseHandler.do_POST" in result.stdout

    def test_json_report_schema(self, tmp_path):
        (tmp_path / "mod.py").write_text(CYCLE_SOURCE)
        result = run_lint_cli(
            "report", "flow", str(tmp_path / "mod.py"), "--format", "json"
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert set(payload) >= {
            "locks", "edges", "cycles", "entry_locks", "escapes", "blocking",
        }
        assert len(payload["cycles"]) == 1

    def test_check_fails_on_cycle(self, tmp_path):
        (tmp_path / "mod.py").write_text(CYCLE_SOURCE)
        target = str(tmp_path / "mod.py")
        report = run_lint_cli("report", "flow", target)
        assert report.returncode == 0
        assert "CYCLES: 1" in report.stdout
        gate = run_lint_cli(target, "--select", "FLOW", "--no-cache")
        assert gate.returncode == 1
        assert "RPL801 lock-order cycle" in gate.stdout

    def test_missing_path_is_usage_error(self, tmp_path):
        result = run_lint_cli("report", "flow", cwd=tmp_path)
        assert result.returncode == 2
        assert "repro-lint report: no paths given" in result.stderr

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        result = run_lint_cli("report", "units", cwd=tmp_path)
        assert result.returncode == 2
        # Retired families take the same argparse exit, in-process.
        for family in ("pure", "cost"):
            with pytest.raises(SystemExit) as exit_info:
                lint_main(["report", family])
            assert exit_info.value.code == 2, family
            assert f"invalid choice: '{family}'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Incremental lint cache
# ----------------------------------------------------------------------
SNIPPET = "import numpy as np\ngen = np.random.default_rng()\n"


class TestLintCache:
    def _run(self, capsys, *args):
        code = lint_main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_second_identical_run_replays_from_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text(SNIPPET)
        code1, out1, err1 = self._run(
            capsys, "mod.py", "--select", "RPL101"
        )
        assert code1 == 1
        assert "cache hit" not in err1
        code2, out2, err2 = self._run(
            capsys, "mod.py", "--select", "RPL101"
        )
        assert code2 == 1
        assert "cache hit" in err2
        assert out2 == out1
        assert (tmp_path / ".repro-lint-cache.json").exists()

    def test_content_change_invalidates(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "mod.py"
        target.write_text(SNIPPET)
        self._run(capsys, "mod.py", "--select", "RPL101")
        target.write_text(SNIPPET + "# touched\n")
        code, _out, err = self._run(capsys, "mod.py", "--select", "RPL101")
        assert code == 1
        assert "cache hit" not in err

    def test_config_change_invalidates(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text(SNIPPET)
        self._run(capsys, "mod.py", "--select", "RPL101")
        code, _out, err = self._run(
            capsys, "mod.py", "--select", "RPL103"
        )
        assert code == 0
        assert "cache hit" not in err

    def test_no_cache_flag_bypasses(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text(SNIPPET)
        self._run(capsys, "mod.py", "--select", "RPL101")
        code, _out, err = self._run(
            capsys, "mod.py", "--select", "RPL101", "--no-cache"
        )
        assert code == 1
        assert "cache hit" not in err

    def test_corrupt_cache_file_is_a_miss(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text(SNIPPET)
        (tmp_path / ".repro-lint-cache.json").write_text("{not json")
        code, _out, err = self._run(capsys, "mod.py", "--select", "RPL101")
        assert code == 1
        assert "cache hit" not in err

    def test_lookup_rejects_schema_mismatch(self, tmp_path):
        (tmp_path / "mod.py").write_text(SNIPPET)
        config = LintConfig()
        key = cache_key([tmp_path / "mod.py"], config)
        cache = LintCache(tmp_path / "cache.json")
        cache.store(key, [])
        assert cache.lookup(key) == []
        stale = dict(key, schema=-1)
        assert cache.lookup(stale) is None
