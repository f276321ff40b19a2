"""The SCC-ordered summary closure behind FLOW.

Per-function summaries (locks acquired) are closed over the call graph
one strongly connected component at a time, and a recursive component
is iterated to a fixpoint — so what a function's summary says never
depends on which member of a cycle was asked for first.  The unit
tests pin that on the routine itself and the FLOW test through the
public analysis; the gate-equivalence tests pin that a plain
``repro-lint --select FLOW`` run fails exactly when the report shows a
lock-order cycle.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import LintConfig
from repro.analysis.callgraph import SummaryClosure, strongly_connected
from repro.analysis.cli import main as lint_main
from repro.analysis.config import load_config
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

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_growing_cycle_stops_at_the_prune_bound(self, order):
        # Each pass prefixes the callee's call chains with the caller,
        # so around the a <-> b cycle they would grow forever; prune
        # keeps chains of at most four calls, which ends the iteration
        # at the same fixpoint whichever member is asked for first.
        def summarize(key, closed):
            items = [key]
            for callee in EDGES[key]:
                items.extend(key + chain for chain in closed(callee))
            return items

        closure = SummaryClosure(
            EDGES.__getitem__,
            summarize,
            lambda items: tuple(sorted({i for i in items if len(i) <= 4})),
        )
        results = {key: closure(key) for key in order}
        assert results["a"] == ("a", "ab", "aba", "abab", "abc")
        assert results["b"] == ("b", "ba", "bab", "baba", "babc", "bc")


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


# ----------------------------------------------------------------------
# Gate equivalence: --select FLOW fails exactly when the report does
# ----------------------------------------------------------------------
def _report_violation(path: Path) -> bool:
    config = load_config(path)
    project = LintEngine(config).build_project([path])
    return bool(flow_analysis(project, config).cycles)


@pytest.mark.parametrize(
    "family,fixture",
    [
        ("FLOW", "flow_good.py"),
        ("FLOW", "flow_bad.py"),
        ("FLOW", "."),
    ],
)
def test_select_gate_matches_report_violations(capsys, family, fixture):
    path = (FIXTURES / fixture).resolve()
    code = lint_main([str(path), "--select", family, "--no-cache"])
    capsys.readouterr()
    assert code == (1 if _report_violation(path) else 0)
