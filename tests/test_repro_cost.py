"""COST-family (RPL10xx) rule behavior on the cost fixtures,
interprocedural cost closures with call chains, the ``repro-lint report
cost`` output, cache coverage of the nested cost table, and the
meta-tests pinning the repo's own per-event budgets."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import LintConfig, run_lint
from repro.analysis.cache import LintCache, cache_key, config_digest
from repro.analysis.config import load_config
from repro.analysis.cost import cost_analysis, parse_budget
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import LintEngine

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

COST_IDS = ("RPL1001", "RPL1002", "RPL1003", "RPL1005")
BAD = "lint_fixtures.cost_bad"
GOOD = "lint_fixtures.cost_good"


def bad_config(**overrides) -> LintConfig:
    base = dict(
        select=COST_IDS,
        cost_budgets=(
            f"{BAD}.BadService.handle=small",
            f"{BAD}.BadService.deep=small",
            f"{BAD}.BadService.hot_alloc=n_nodes",
            f"{BAD}.BadService.gone=small",      # stale: no such function
            f"{BAD}.BadService.quad=bogus",      # malformed expression
        ),
        cost_hot_entrypoints=(
            f"{BAD}.BadService.handle",
            f"{BAD}.BadService.hot_alloc",
            f"{BAD}.BadService.unbudgeted_hot",  # hot without a budget
        ),
        cost_collections=("Fleet.nodes=n_nodes", "Fleet.jobs=n_jobs"),
        cost_bounded=(),
        cost_small_names=(),
    )
    base.update(overrides)
    return LintConfig(**base)


def good_config(**overrides) -> LintConfig:
    base = dict(
        select=COST_IDS,
        cost_budgets=(
            f"{GOOD}.GoodService.handle=small",
            f"{GOOD}.GoodService.deep=small",
            f"{GOOD}.GoodService.probe=small",
            f"{GOOD}.GoodService.recheck=n_nodes",
            f"{GOOD}.GoodService.placement_matrix=n_jobs*n_nodes",
            f"{GOOD}.GoodService.loads_of=n_nodes",
        ),
        cost_hot_entrypoints=(
            f"{GOOD}.GoodService.handle",
            f"{GOOD}.GoodService.probe",
        ),
        cost_collections=("Fleet.nodes=n_nodes", "Fleet.jobs=n_jobs"),
        cost_bounded=("GoodService.dirty=commit-maintained dirty set",),
        cost_small_names=(),
    )
    base.update(overrides)
    return LintConfig(**base)


def lint_fixture(filename: str, config: LintConfig):
    return run_lint([FIXTURES / filename], config)


def analyse_fixture(filename: str, config: LintConfig):
    engine = LintEngine(config)
    project = engine.build_project([FIXTURES / filename])
    return cost_analysis(project, config)


def analyse_source(tmp_path, source: str, config: LintConfig):
    path = tmp_path / "mod.py"
    path.write_text(source)
    engine = LintEngine(config)
    project = engine.build_project([path])
    return cost_analysis(project, config)


def rule_ids(findings) -> list:
    return [f.rule_id for f in findings]


def key_for(analysis, entry: str) -> str:
    for key, budget in analysis.budgets.items():
        if budget.entry == entry:
            return key
    raise AssertionError(f"no budget registered for {entry}")


# ----------------------------------------------------------------------
# The fixture corpus: every rule fires on bad, stays silent on good
# ----------------------------------------------------------------------
class TestCostFixtures:
    def test_bad_fixture_triggers_every_rule(self):
        findings = lint_fixture("cost_bad.py", bad_config())
        assert sorted(set(rule_ids(findings))) == sorted(COST_IDS)

    def test_good_fixture_is_clean(self):
        findings = lint_fixture("cost_good.py", good_config())
        assert findings == [], [f.message for f in findings]

    def test_rpl1001_charges_the_direct_scan(self):
        analysis = analyse_fixture("cost_bad.py", bad_config())
        over = {hit.budget.entry for hit in analysis.budget_hits}
        assert f"{BAD}.BadService.handle" in over
        hit = next(
            h
            for h in analysis.budget_hits
            if h.budget.entry == f"{BAD}.BadService.handle"
        )
        assert "n_nodes" in hit.term.vars
        assert hit.term.chain == ()

    def test_rpl1001_charges_through_a_two_deep_chain(self):
        """The fleet scan in _scan must be billed to deep's budget with
        the callee path it was imported through."""
        analysis = analyse_fixture("cost_bad.py", bad_config())
        hit = next(
            h
            for h in analysis.budget_hits
            if h.budget.entry == f"{BAD}.BadService.deep"
        )
        assert "n_nodes" in hit.term.vars
        assert len(hit.term.chain) >= 2
        assert any("_scan" in link for link in hit.term.chain)

    def test_rpl1001_respects_a_sufficient_budget(self):
        """hot_alloc closes at O(n_nodes) under an n_nodes budget: the
        degree comparison, not the mere presence of an N term, decides."""
        analysis = analyse_fixture("cost_bad.py", bad_config())
        over = {hit.budget.entry for hit in analysis.budget_hits}
        assert f"{BAD}.BadService.hot_alloc" not in over

    def test_rpl1002_proves_the_same_family_product(self):
        analysis = analyse_fixture("cost_bad.py", bad_config())
        assert [quad.vars for quad in analysis.quads] == [
            ("n_nodes", "n_nodes")
        ]

    def test_rpl1002_leaves_cross_family_products_alone(self):
        """placement_matrix is a deliberate n_jobs x n_nodes product:
        different fleet axes never read as a quadratic."""
        analysis = analyse_fixture("cost_good.py", good_config())
        assert analysis.quads == []

    def test_rpl1003_flags_the_hot_allocation(self):
        analysis = analyse_fixture("cost_bad.py", bad_config())
        assert len(analysis.allocs) == 1
        alloc = analysis.allocs[0]
        assert alloc.bound == "n_nodes"
        assert "sorted" in alloc.what

    def test_rpl1005_reports_all_three_registry_defects(self):
        analysis = analyse_fixture("cost_bad.py", bad_config())
        details = {(hit.table, hit.detail) for hit in analysis.registry}
        assert details == {
            ("budgets", "no such function"),
            ("budgets", "unparsable budget 'bogus'"),
            ("hot-entrypoints", "hot entry has no budget"),
        }

    def test_bounded_slice_keeps_probe_small(self):
        """queue[: self.max_probe] is a bounded slice: the closed cost
        of probe must carry no N factor despite the unsized queue."""
        analysis = analyse_fixture("cost_good.py", good_config())
        key = key_for(analysis, f"{GOOD}.GoodService.probe")
        terms = analysis._cost_closure(key)
        assert all(term.degree == 0 for term in terms)

    def test_bounded_attr_keeps_the_drain_small(self):
        """sorted(self.dirty) under the bounded allowlist closes at
        degree zero; dropping the allowlist entry re-exposes nothing
        because dirty has no declared size either way."""
        analysis = analyse_fixture("cost_good.py", good_config())
        key = key_for(analysis, f"{GOOD}.GoodService.handle")
        terms = analysis._cost_closure(key)
        assert all(term.degree == 0 for term in terms)


# ----------------------------------------------------------------------
# Budget grammar
# ----------------------------------------------------------------------
class TestBudgetGrammar:
    def test_licensed_degrees(self):
        assert parse_budget("small") == 0
        assert parse_budget("const") == 0
        assert parse_budget("n_nodes") == 1
        assert parse_budget("small*n_jobs") == 1
        assert parse_budget("n_shards*n_jobs") == 2

    def test_malformed_expressions(self):
        assert parse_budget("") is None
        assert parse_budget("bogus") is None
        assert parse_budget("n_nodes*") is None
        assert parse_budget("n_nodes^2") is None


# ----------------------------------------------------------------------
# repro-lint report cost / --select COST
# ----------------------------------------------------------------------
COST_PROJECT_TABLE = (
    "[tool.repro-lint.cost]\n"
    'hot-entrypoints = ["cost_bad.BadService.handle"]\n'
    "[tool.repro-lint.cost.budgets]\n"
    '"cost_bad.BadService.handle" = "small"\n'
    "[tool.repro-lint.cost.collections]\n"
    '"Fleet.nodes" = "n_nodes"\n'
    '"Fleet.jobs" = "n_jobs"\n'
)


def write_cost_project(tmp_path) -> Path:
    shutil.copy(FIXTURES / "cost_bad.py", tmp_path / "cost_bad.py")
    (tmp_path / "pyproject.toml").write_text(COST_PROJECT_TABLE)
    return tmp_path


def cost_report(*args):
    return lint_main(["report", "cost", *args])


def cost_gate(*args):
    return lint_main([*args, "--select", "COST", "--no-cache"])


class TestCostCLI:
    def test_text_report_on_package_is_clean(self, capsys):
        code = cost_report(str(PACKAGE))
        out = capsys.readouterr()
        assert code == 0, out.err
        assert "cost budgets" in out.out
        assert "_find_target" in out.out
        assert "OVER" not in out.out
        assert "every registry entry resolves and is budgeted" in out.out

    def test_check_fails_on_bad_tree(self, tmp_path, capsys):
        tree = write_cost_project(tmp_path)
        assert cost_report(str(tree)) == 0
        out = capsys.readouterr()
        assert "BUDGET VIOLATIONS" in out.out
        assert "OVER" in out.out
        assert cost_gate(str(tree)) == 1
        assert "RPL1001" in capsys.readouterr().out

    def test_json_report_schema(self, tmp_path, capsys):
        tree = write_cost_project(tmp_path)
        code = cost_report(str(tree), "--format", "json")
        out = capsys.readouterr()
        assert code == 0
        payload = json.loads(out.out)
        assert set(payload) >= {
            "budgets",
            "budget_violations",
            "hot_entries",
            "hot_reachable_count",
            "quadratics",
            "hot_allocations",
            "stale_registry",
            "violations",
        }
        assert payload["violations"] >= 2
        handle = next(
            row
            for row in payload["budgets"]
            if row["entry"] == "cost_bad.BadService.handle"
        )
        assert handle["ok"] is False
        assert handle["hot"] is True

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cost_report() == 2

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def fn():\n    return 1\n")
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.cost]\nbudgetss = []\n"
        )
        code = cost_report(str(tmp_path))
        out = capsys.readouterr()
        assert code == 2
        assert "repro-lint report:" in out.err


# ----------------------------------------------------------------------
# Config + cache: the nested cost table
# ----------------------------------------------------------------------
COST_TABLE = (
    "[tool.repro-lint.cost]\n"
    'hot-entrypoints = ["pkg.mod.fn"]\n'
    "[tool.repro-lint.cost.budgets]\n"
    '"pkg.mod.fn" = "small"\n'
)


class TestCostConfigAndCache:
    def test_nested_table_parses_into_cost_fields(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(COST_TABLE)
        config = load_config(tmp_path)
        assert config.cost_hot_entrypoints == ("pkg.mod.fn",)
        assert config.cost_budgets == ("pkg.mod.fn=small",)
        # Untouched cost fields keep their defaults.
        assert "Cluster.nodes=n_nodes" in config.cost_collections

    def test_unknown_cost_subkey_is_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.cost]\nbudgetss = []\n"
        )
        with pytest.raises(ValueError, match="repro-lint.cost"):
            load_config(tmp_path)

    def test_nested_table_edit_changes_config_digest(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(COST_TABLE)
        before = config_digest(load_config(tmp_path))
        pyproject.write_text(COST_TABLE.replace('"small"', '"n_nodes"'))
        after = config_digest(load_config(tmp_path))
        assert before != after

    def test_budget_edit_invalidates_cached_run(self, tmp_path):
        """End-to-end: a cached clean verdict must not survive an edit
        to [tool.repro-lint.cost] budgets."""
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(COST_TABLE)
        target = tmp_path / "mod.py"
        target.write_text("def fn():\n    return 1\n")
        cache = LintCache(tmp_path / "cache.json")
        key = cache_key([target], load_config(tmp_path))
        cache.store(key, [])
        assert cache.lookup(key) == []
        pyproject.write_text(COST_TABLE.replace('"small"', '"n_nodes"'))
        new_key = cache_key([target], load_config(tmp_path))
        assert cache.lookup(new_key) is None


# ----------------------------------------------------------------------
# Meta: the repo's own per-event budgets, pinned
# ----------------------------------------------------------------------
class TestRepoCostBudgets:
    """Mirrors repro-lint-src-is-clean for the COST family, plus the
    acceptance mutations that must break the gate: re-introducing a
    full fleet scan on either per-event path fails ``--select COST``
    and shows the budget OVER in ``repro-lint report cost``."""

    def test_package_tree_is_cost_clean(self):
        findings = run_lint([PACKAGE], LintConfig(select=COST_IDS))
        assert findings == [], [f.message for f in findings]

    def _mutated_package(self, tmp_path, filename, old, new):
        tree = tmp_path / "repro"
        shutil.copytree(PACKAGE, tree)
        target = tree / filename
        source = target.read_text()
        assert old in source, f"mutation anchor missing in {filename}"
        target.write_text(source.replace(old, new, 1))
        return tree

    def _gate_and_report(self, tree, capsys):
        """(``--select COST`` exit code, findings, ``report cost``)."""
        code = cost_gate(str(tree))
        findings = capsys.readouterr().out
        assert cost_report(str(tree)) == 0
        return code, findings, capsys.readouterr().out

    def test_full_scan_in_find_target_fails_the_check(
        self, tmp_path, capsys
    ):
        """Acceptance: replacing the density-bucket probe walk with a
        whole-cluster scan must blow the O(small) budget on
        _find_target."""
        tree = self._mutated_package(
            tmp_path,
            "warehouse/service.py",
            "for index in self._by_density[density]:",
            "for index in [node_state.index "
            "for node_state in self.cluster.nodes]:",
        )
        code, findings, report = self._gate_and_report(tree, capsys)
        assert code == 1
        assert "RPL1001" in findings
        assert "_find_target" in report
        assert "OVER" in report

    def test_full_scan_in_recheck_fails_the_check(self, tmp_path, capsys):
        """Acceptance: rechecking every cluster node instead of the
        volatile/dirty candidate set must blow the O(small) budget on
        _on_recheck."""
        tree = self._mutated_package(
            tmp_path,
            "warehouse/service.py",
            "candidates = sorted("
            "set(self._volatile_nodes) | self._recheck_dirty)",
            "candidates = [node_state.index "
            "for node_state in self.cluster.nodes]",
        )
        code, findings, report = self._gate_and_report(tree, capsys)
        assert code == 1
        assert "RPL1001" in findings
        assert "_on_recheck" in report
