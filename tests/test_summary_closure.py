"""The SCC-ordered summary closure behind FLOW and COST.

Per-function summaries (locks acquired, cost terms) are
closed over the call graph one strongly connected component at a time,
and a recursive component is iterated to a fixpoint — so what a
function's summary says never depends on which member of a cycle was
asked for first.  The family tests below pin that through the public
analyses; the gate-equivalence tests pin that a plain
``repro-lint --select FAMILY`` run fails exactly when the family's
report shows a violation.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import LintConfig
from repro.analysis.callgraph import SummaryClosure, strongly_connected
from repro.analysis.cli import main as lint_main
from repro.analysis.config import load_config
from repro.analysis.cost import cost_analysis, render_terms
from repro.analysis.engine import LintEngine
from repro.analysis.flow import flow_analysis

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def build(tmp_path, source: str, config: LintConfig):
    path = tmp_path / "m.py"
    path.write_text(source)
    return LintEngine(config).build_project([path])


# ----------------------------------------------------------------------
# The routine itself
# ----------------------------------------------------------------------
EDGES = {"a": {"b"}, "b": {"a", "c"}, "c": set(), "d": {"d"}}


def union_closure(local):
    def summarize(key, closed):
        items = list(local.get(key, ()))
        for callee in EDGES[key]:
            items.extend(closed(callee))
        return items

    return SummaryClosure(
        EDGES.__getitem__, summarize, lambda items: tuple(sorted(set(items)))
    )


class TestSummaryClosure:
    def test_components_come_out_callees_first(self):
        components = strongly_connected(EDGES.__getitem__, ["a", "d"])
        assert components == [{"c"}, {"a", "b"}, {"d"}]

    def test_skipped_nodes_are_absent(self):
        assert strongly_connected(EDGES.__getitem__, ["a"], {"b"}) == [
            {"a"}
        ]

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_cycle_members_share_one_fixpoint(self, order):
        closure = union_closure({"a": ["x"], "b": ["y"], "c": ["z"]})
        results = {key: closure(key) for key in order}
        assert results["a"] == results["b"] == ("x", "y", "z")

    def test_self_loop_is_recursive(self):
        calls = []

        def summarize(key, closed):
            calls.append(key)
            return ["d", *closed("d")]

        closure = SummaryClosure(
            EDGES.__getitem__, summarize, lambda items: tuple(set(items))
        )
        assert closure("d") == ("d",)
        # One pass to reach the fixpoint, one to see it is stable.
        assert calls == ["d", "d"]


# ----------------------------------------------------------------------
# Query order must not change a family's verdict
# ----------------------------------------------------------------------
FLOW_CYCLE = (
    "import threading\n"
    "class Inner:\n"
    "    def __init__(self):\n"
    "        self._a_lock = threading.Lock()\n"
    "        self._b_lock = threading.Lock()\n"
    "    def ping(self, n):\n"
    "        with self._a_lock:\n"
    "            pass\n"
    "        self.pong(n)\n"
    "    def pong(self, n):\n"
    "        with self._b_lock:\n"
    "            pass\n"
    "        self.ping(n)\n"
    "class Outer:\n"
    "    def __init__(self, inner: Inner):\n"
    "        self._one_lock = threading.Lock()\n"
    "        self._two_lock = threading.Lock()\n"
    "        self.inner = inner\n"
    "    def first(self):\n"
    "        with self._one_lock:\n"
    "            self.inner.{first_helper}(0)\n"
    "    def second(self):\n"
    "        with self._two_lock:\n"
    "            self.inner.{second_helper}(0)\n"
)


@pytest.mark.parametrize(
    "first_helper,second_helper", [("ping", "pong"), ("pong", "ping")]
)
def test_flow_cycle_gives_every_edge_in_any_order(
    tmp_path, first_helper, second_helper
):
    source = FLOW_CYCLE.format(
        first_helper=first_helper, second_helper=second_helper
    )
    config = LintConfig()
    analysis = flow_analysis(build(tmp_path, source, config), config)
    assert set(analysis.edges) == {
        (outer, inner)
        for outer in ("Outer._one_lock", "Outer._two_lock")
        for inner in ("Inner._a_lock", "Inner._b_lock")
    }


COST_CYCLE = (
    "class Fleet:\n"
    "    def __init__(self):\n"
    "        self.nodes = []\n"
    "class Svc:\n"
    "    def __init__(self, fleet: Fleet):\n"
    "        self.fleet = fleet\n"
    "    def a(self, depth):\n"
    "        for node in self.fleet.nodes:\n"
    "            pass\n"
    "        self.b(depth)\n"
    "    def b(self, depth):\n"
    "        if depth:\n"
    "            self.a(depth - 1)\n"
)


@pytest.mark.parametrize(
    "budgets",
    [("m.Svc.b=small",), ("m.Svc.a=small", "m.Svc.b=small")],
    ids=["b-only", "a-first"],
)
def test_cost_cycle_closes_the_same_in_any_order(tmp_path, budgets):
    config = LintConfig(
        select=("RPL1001",),
        cost_budgets=budgets,
        cost_hot_entrypoints=(),
        cost_collections=("Fleet.nodes=n_nodes",),
        cost_bounded=(),
        cost_small_names=(),
    )
    analysis = cost_analysis(build(tmp_path, COST_CYCLE, config), config)
    assert render_terms(analysis._cost_closure("m:Svc.b")) == "O(n_nodes)"
    over = {hit.budget.entry for hit in analysis.budget_hits}
    assert "m.Svc.b" in over


def test_cost_loop_prefixes_stop_growing_around_a_cycle(tmp_path):
    """A recursive call inside an N-loop compounds the loop prefix
    only while the term's call chain has room, so the closure ends."""
    source = COST_CYCLE.replace(
        "        for node in self.fleet.nodes:\n"
        "            pass\n"
        "        self.b(depth)\n",
        "        for node in self.fleet.nodes:\n"
        "            self.b(depth)\n",
    )
    config = LintConfig(
        cost_budgets=("m.Svc.a=small",),
        cost_hot_entrypoints=(),
        cost_collections=("Fleet.nodes=n_nodes",),
        cost_bounded=(),
        cost_small_names=(),
    )
    analysis = cost_analysis(build(tmp_path, source, config), config)
    terms = analysis._cost_closure("m:Svc.a")
    # The local loop, then one more n_nodes factor per a -> b -> a
    # round trip until the chain holds _VIA_LIMIT (8) calls.
    assert [term.degree for term in terms] == [1, 2, 3, 4, 5]
    assert max(len(term.chain) for term in terms) == 8


# ----------------------------------------------------------------------
# Gate equivalence: --select FAMILY fails exactly when the report does
# ----------------------------------------------------------------------
def _report_violation(family: str, path: Path) -> bool:
    config = load_config(path)
    project = LintEngine(config).build_project([path])
    if family == "FLOW":
        return bool(flow_analysis(project, config).cycles)
    return bool(cost_analysis(project, config).violation_count)


@pytest.mark.parametrize(
    "family,fixture",
    [
        ("FLOW", "flow_good.py"),
        ("FLOW", "flow_bad.py"),
        ("COST", "cost_good.py"),
        ("COST", "cost_bad.py"),
        ("FLOW", "."),
        ("COST", "."),
    ],
)
def test_select_gate_matches_report_violations(capsys, family, fixture):
    path = (FIXTURES / fixture).resolve()
    code = lint_main([str(path), "--select", family, "--no-cache"])
    capsys.readouterr()
    assert code == (1 if _report_violation(family, path) else 0)
