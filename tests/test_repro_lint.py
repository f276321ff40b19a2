"""repro-lint: rule behavior on the fixture corpus, reporters, CLI,
and the meta-check that the package's own tree lints clean."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintConfig,
    load_config,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.cli import main as cli_main
from repro.analysis.model import all_rules

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def fixture_config(**overrides) -> LintConfig:
    """A config retargeted at the fixture corpus' class names."""
    base = dict(
        hot_path=("",),  # numerics rules apply everywhere
        policy_bases=("Policy",),
        optimizer_classes=("AcquisitionOptimizer",),
        partition_constructors=(),  # opt in per test (drift rule)
        frozen_key_classes=("CacheKey",),
    )
    base.update(overrides)
    return LintConfig(**base)


def lint_fixture(filename: str, **overrides):
    return run_lint([FIXTURES / filename], fixture_config(**overrides))


def rule_ids(findings) -> list:
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# Determinism family
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_bad_fixture_triggers_all_four_rules(self):
        findings = lint_fixture("determinism_bad.py")
        assert sorted(set(rule_ids(findings))) == [
            "RPL101",
            "RPL102",
            "RPL103",
            "RPL104",
        ]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("determinism_good.py") == []

    def test_unseeded_rng_message_points_at_call(self):
        (finding,) = [
            f for f in lint_fixture("determinism_bad.py")
            if f.rule_id == "RPL101" and "default_rng" in f.message
        ]
        assert finding.line > 1
        assert finding.path.endswith("determinism_bad.py")

    def test_rpl101_flags_each_laundering_channel_at_construction(self):
        """A fresh generator passed on through a local, a constructor
        field or a dict payload is flagged on the line that constructs
        it — ``default_rng`` never appears in those cases."""
        lines = (FIXTURES / "determinism_bad.py").read_text().splitlines()
        findings = lint_fixture("determinism_bad.py", select=("RPL101",))
        named = {}
        for finding in findings:
            constructor = finding.message.split("np.random.")[1].split("(")[0]
            assert f"{constructor}()" in lines[finding.line - 1], finding
            named[constructor] = finding.line
        assert len(named) == len(findings)
        assert set(named) == {
            "default_rng", "Generator", "SeedSequence",
            "PCG64", "PCG64DXSM", "MT19937",  # local, field, payload
        }

    def test_seeded_default_rng_not_flagged(self, tmp_path):
        snippet = tmp_path / "seeded.py"
        snippet.write_text(
            "import numpy as np\n"
            "gen = np.random.default_rng(42)\n"
            "other = np.random.default_rng(seed=7)\n"
        )
        assert run_lint([snippet], fixture_config()) == []


# ----------------------------------------------------------------------
# Thread-safety family
# ----------------------------------------------------------------------
class TestThreadSafetyRules:
    def test_bad_fixture_flags_setattr_backdoor(self):
        findings = [
            f for f in lint_fixture("threadsafety_bad.py")
            if f.rule_id == "RPL203"
        ]
        assert len(findings) == 1
        assert "thaw" in findings[0].message

    def test_good_fixture_is_clean(self):
        assert lint_fixture("threadsafety_good.py") == []

    def test_frozen_key_rules(self):
        findings = lint_fixture("frozen_bad.py")
        assert rule_ids(findings) == ["RPL202", "RPL202"]
        messages = "\n".join(f.message for f in findings)
        assert "CacheKey" in messages  # configured class not frozen
        assert "LooseKey" in messages  # unfrozen instance in key position
        assert lint_fixture("frozen_good.py") == []


# ----------------------------------------------------------------------
# Contract-presence family
# ----------------------------------------------------------------------
class TestContractRules:
    def test_bad_fixture_triggers_all_three_rules(self):
        findings = lint_fixture(
            "contracts_bad.py", partition_constructors=("Space.make",)
        )
        assert sorted(rule_ids(findings)) == [
            "RPL302",
            "RPL303",
            "RPL304",
        ]

    def test_good_fixture_is_clean(self):
        assert (
            lint_fixture(
                "contracts_good.py", partition_constructors=("Space.make",)
            )
            == []
        )

    def test_configured_constructor_drift_is_a_finding(self):
        findings = lint_fixture(
            "determinism_good.py",
            partition_constructors=("Space.vanished",),
            select=("RPL304",),
        )
        assert rule_ids(findings) == ["RPL304"]
        assert "not found" in findings[0].message


# ----------------------------------------------------------------------
# Numerics family
# ----------------------------------------------------------------------
class TestNumericsRules:
    def test_bad_fixture(self):
        findings = lint_fixture("numerics_bad.py")
        assert sorted(rule_ids(findings)) == ["RPL401", "RPL402", "RPL402"]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("numerics_good.py") == []

    def test_rules_scoped_to_hot_path(self):
        # Same bad file, but a hot_path that doesn't match it: silent.
        findings = lint_fixture(
            "numerics_bad.py", hot_path=("repro/core/",)
        )
        assert findings == []


# ----------------------------------------------------------------------
# Telemetry family
# ----------------------------------------------------------------------
class TestTelemetryRules:
    def test_bad_fixture_triggers_both_rules(self):
        findings = lint_fixture("telemetry_bad.py")
        assert sorted(rule_ids(findings)) == [
            "RPL501",
            "RPL501",
            "RPL501",
            "RPL502",
        ]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("telemetry_good.py") == []

    def test_metric_name_message_quotes_the_literal(self):
        findings = [
            f for f in lint_fixture("telemetry_bad.py")
            if f.rule_id == "RPL501"
        ]
        messages = "\n".join(f.message for f in findings)
        assert "'Engine.Samples'" in messages
        assert "'node load'" in messages
        assert "'9th_window'" in messages

    def test_span_rule_ignores_non_tracer_span_methods(self, tmp_path):
        snippet = tmp_path / "other_span.py"
        snippet.write_text(
            "def f(layout):\n"
            "    return layout.span(3)\n"  # not a tracer: silent
        )
        assert run_lint([snippet], fixture_config()) == []


# ----------------------------------------------------------------------
# Suppressions, config, reporters
# ----------------------------------------------------------------------
class TestSuppressionsAndConfig:
    def test_all_three_suppression_forms(self):
        assert lint_fixture("suppressed.py") == []

    def test_suppression_is_rule_specific(self, tmp_path):
        snippet = tmp_path / "wrong_id.py"
        snippet.write_text(
            "import numpy as np\n"
            "gen = np.random.default_rng()  # repro-lint: disable=RPL104\n"
        )
        findings = run_lint([snippet], fixture_config())
        assert rule_ids(findings) == ["RPL101"]

    def test_suppression_of_an_unregistered_id_is_a_finding(self, tmp_path):
        """A typo or a retired rule's id suppresses nothing, so naming it
        is reported at the comment; ``all`` and ``*`` stay valid, and
        ``--select`` does not hide the report."""
        mark = "# repro-lint: "  # spelled apart, so this file stays clean
        snippet = tmp_path / "stale_id.py"
        snippet.write_text(
            f"{mark}disable-file=RPL999\n"
            f"X = 1  {mark}disable=RPL201,RPL101\n"
            f"Y = 2  {mark}disable=all\n"
            f"{mark}disable-next-line=*\n"
            "Z = 3\n"
        )
        for config in (fixture_config(), fixture_config(select=("RPL101",))):
            findings = run_lint([snippet], config)
            assert [(f.rule_id, f.line) for f in findings] == [
                ("RPL000", 1), ("RPL000", 2),
            ]
            assert "'RPL999'" in findings[0].message
            assert "'RPL201'" in findings[1].message

    def test_select_and_ignore(self):
        only = lint_fixture("determinism_bad.py", select=("RPL103",))
        assert rule_ids(only) == ["RPL103"]
        without = lint_fixture("determinism_bad.py", ignore=("RPL103",))
        assert "RPL103" not in rule_ids(without)

    def test_config_fields(self):
        """Seven fields: rule selection plus the shapes the per-module
        rules read."""
        from dataclasses import fields

        assert [f.name for f in fields(LintConfig)] == [
            "select", "ignore", "hot_path", "policy_bases",
            "optimizer_classes", "partition_constructors",
            "frozen_key_classes",
        ]

    def test_pyproject_table_overrides(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nhot-path = ["custom/"]\nignore = ["RPL103"]\n'
        )
        config = load_config(tmp_path / "module.py")
        assert config.hot_path == ("custom/",)
        assert config.ignore == ("RPL103",)

    @staticmethod
    def _assert_rejected(tmp_path, cases):
        for table, key in cases:
            (tmp_path / "pyproject.toml").write_text(table)
            with pytest.raises(ValueError, match=repr(key)):
                load_config(tmp_path / "module.py")

    def test_unknown_config_key_rejected(self, tmp_path):
        self._assert_rejected(tmp_path, [
            ("[tool.repro-lint]\nhot-paths = []\n", "hot-paths"),
            # A string hot-path would mark every path holding one of its
            # characters hot; a string ignore would match substrings.
            ('[tool.repro-lint]\nhot-path = "custom/"\n', "hot-path"),
            ('[tool.repro-lint]\nignore = "RPL103"\n', "ignore"),
            ("[tool.repro-lint]\nselect = 1\n", "select"),
            # No option holds a nested table.
            ('[tool.repro-lint.hot-path]\n"a" = "b"\n', "hot-path"),
            ('[tool.repro-lint.units]\n"f.return" = "Millis"\n', "units"),
            ('[tool.repro-lint.pure]\nregistry = ["m.f"]\n', "pure"),
            ('[tool.repro-lint.cost]\nbudgets = ["m.f=small"]\n', "cost"),
            ('[tool.repro-lint.cost.budgets]\n"m.f" = "small"\n', "cost"),
            # Retired with RPL602.
            ('[tool.repro-lint]\nclock-classes = ["T"]\n', "clock-classes"),
            # Retired with FLOW and RPL603.
            ('[tool.repro-lint.flow]\nlonglived = ["EventLog"]\n', "flow"),
            ('[tool.repro-lint.flow.resources]\n"A" = "close"\n', "flow"),
            ('[tool.repro-lint]\nguarded-classes = ["C"]\n', "guarded-classes"),
            ('[tool.repro-lint]\nflow-longlived = ["C"]\n', "flow-longlived"),
        ])


class TestReporters:
    def _findings(self):
        return lint_fixture("determinism_bad.py")

    def test_text_reporter(self):
        text = render_text(self._findings())
        assert "RPL101" in text and "RPL104" in text
        assert "hint:" in text
        assert render_text([]) == "repro-lint: clean (0 findings)"

    def test_json_reporter_schema(self):
        payload = json.loads(render_json(self._findings()))
        assert payload["schema_version"] == 1
        assert payload["tool"] == "repro-lint"
        assert payload["finding_count"] == len(self._findings())
        assert payload["counts_by_rule"]["RPL103"] == 1
        first = payload["findings"][0]
        assert set(first) >= {"rule_id", "path", "line", "col", "message"}

    def test_findings_sorted_and_immutable(self):
        findings = self._findings()
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
        )
        with pytest.raises(AttributeError):
            findings[0].rule_id = "RPL999"


# ----------------------------------------------------------------------
# Rule registry and the repo meta-check
# ----------------------------------------------------------------------
class TestRegistryAndRepoTree:
    EXPECTED_RULES = {
        "RPL101", "RPL102", "RPL103", "RPL104",
        "RPL202", "RPL203",
        "RPL302", "RPL303", "RPL304",
        "RPL401", "RPL402",
        "RPL501", "RPL502",
    }

    def test_registry_is_complete(self):
        registry = all_rules()
        assert set(registry) == self.EXPECTED_RULES
        for rule_id, rule_cls in registry.items():
            assert rule_cls.rule_id == rule_id
            assert rule_cls.description
            assert rule_cls.autofix_hint
            assert rule_cls.family

    def test_repo_config_is_the_defaults(self):
        """The repo's pyproject adds nothing: the built-in defaults are
        the one copy of the config, so the bare ``LintConfig()`` gates
        below check exactly what the CLI checks."""
        assert load_config(PACKAGE) == LintConfig()

    def test_whole_repo_lints_clean(self):
        """The acceptance gate: repro-lint on src/repro, tests/ and
        examples/ finds nothing (minus the deliberately-broken fixture
        corpus)."""
        findings = run_lint(
            [PACKAGE, REPO_ROOT / "tests", REPO_ROOT / "examples"],
            LintConfig(),
            exclude=[FIXTURES],
        )
        assert findings == [], render_text(findings)

    def test_exclude_drops_subtree(self):
        with_fixtures = run_lint(
            [REPO_ROOT / "tests"], LintConfig(select=("RPL101",))
        )
        without = run_lint(
            [REPO_ROOT / "tests"],
            LintConfig(select=("RPL101",)),
            exclude=[FIXTURES],
        )
        assert any(f.path.startswith(str(FIXTURES)) for f in with_fixtures)
        assert not any(f.path.startswith(str(FIXTURES)) for f in without)


# ----------------------------------------------------------------------
# Console entry point
# ----------------------------------------------------------------------
def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestCLI:
    def test_clean_tree_exits_zero(self):
        # A small clean subtree: the whole package's verdict is
        # test_whole_repo_lints_clean's job.
        result = run_cli(str(PACKAGE / "resources"))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_findings_exit_one(self):
        result = run_cli(
            str(FIXTURES / "determinism_bad.py"), "--select", "RPL101"
        )
        assert result.returncode == 1
        assert "RPL101" in result.stdout

    def test_json_format(self):
        result = run_cli(
            str(FIXTURES / "determinism_bad.py"),
            "--select", "RPL101",
            "--format", "json",
        )
        assert result.returncode == 1
        expected = lint_fixture("determinism_bad.py", select=("RPL101",))
        assert json.loads(result.stdout)["finding_count"] == len(expected)

    def test_unknown_rule_exits_two(self, capsys):
        result = run_cli(str(PACKAGE), "--select", "RPL999")
        assert result.returncode == 2
        assert "unknown rule id(s): RPL999" in result.stderr
        # A family name no registered rule carries is unknown too, and
        # so is the id of a retired rule.  They take RPL999's exit path,
        # so they run in-process rather than one subprocess each.
        retired = (
            "UNITS", "PURE", "RPL901", "RPL1004", "RPL201",
            "RPL601", "RPL602", "COST", "RPL1001", "RPL1005", "RPL301",
            "FLOW", "dataflow", "RPL603",
            "RPL801", "RPL802", "RPL803", "RPL804", "RPL805",
        )
        for token in retired:
            assert cli_main([str(PACKAGE), "--select", token]) == 2, token
            assert f"unknown rule id(s): {token}" in capsys.readouterr().err

    def test_retired_options_are_usage_errors(self, capsys):
        """The incremental cache and the ``report`` subcommand are gone:
        their flags are unknown, and ``report`` is no lintable path."""
        for argv in (
            [str(PACKAGE), "--no-cache"],
            [str(PACKAGE), "--cache-file", "x.json"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                cli_main(argv)
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert cli_main(["report", "flow", str(PACKAGE)]) == 2
        assert "not a Python file or directory: report" in (
            capsys.readouterr().err
        )

    def test_missing_path_exits_two(self):
        result = run_cli(str(REPO_ROOT / "no_such_file.txt"))
        assert result.returncode == 2

    def test_list_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in TestRegistryAndRepoTree.EXPECTED_RULES:
            assert rule_id in result.stdout
