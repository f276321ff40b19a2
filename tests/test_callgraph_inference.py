"""Type-inferencer edge cases in analysis/callgraph.py.

RPL603 and FLOW resolve call targets and receivers through this
inferencer, so the inputs it must not fumble — string annotations,
``Optional`` and ``Union[..., None]`` unwrapping, attribute-chain
receivers, re-assigned locals — each get a direct regression test here.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.callgraph import (
    FunctionScanner,
    _annotation_class,
    build_callgraph,
)
from repro.analysis.project import Project, parse_module


def make_project(tmp_path, source: str, name: str = "mod_under_test.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return Project([parse_module(path)])


def annotation(text: str):
    return ast.parse(text, mode="eval").body


class TestAnnotationClass:
    def test_plain_name(self):
        assert _annotation_class(annotation("ClusterNode")) == "ClusterNode"

    def test_dotted_attribute(self):
        assert _annotation_class(annotation("state.ClusterNode")) == "ClusterNode"

    def test_optional_unwraps(self):
        assert _annotation_class(annotation("Optional[ClusterNode]")) == "ClusterNode"

    def test_string_annotation(self):
        node = ast.Constant(value="ClusterNode")
        assert _annotation_class(node) == "ClusterNode"

    def test_string_optional_annotation(self):
        """A quoted Optional must unwrap to the inner class, not report
        'Optional'."""
        node = ast.Constant(value="Optional[Generator]")
        assert _annotation_class(node) == "Generator"

    def test_union_with_none(self):
        assert _annotation_class(annotation("Union[Node, None]")) == "Node"

    def test_union_of_two_classes_is_unknown(self):
        assert _annotation_class(annotation("Union[Node, Cluster]")) is None

    def test_generic_container_yields_base(self):
        assert _annotation_class(annotation("List[int]")) == "List"

    def test_garbage_string_annotation(self):
        assert _annotation_class(ast.Constant(value="not (valid")) is None

    def test_none_annotation(self):
        assert _annotation_class(None) is None


class TestParamAndAttrTypes:
    def test_string_annotated_param_resolves(self, tmp_path):
        project = make_project(
            tmp_path,
            '''
            class Widget:
                pass

            def use(w: "Optional[Widget]") -> None:
                w.poke()
            ''',
        )
        graph = build_callgraph(project)
        key = "mod_under_test:use"
        assert graph.param_types[key] == {"w": "Widget"}

    def test_class_body_annotations_harvested(self, tmp_path):
        project = make_project(
            tmp_path,
            """
            class Inner:
                pass

            class Outer:
                child: Inner

                def __init__(self) -> None:
                    self.other = Inner()
            """,
        )
        graph = build_callgraph(project)
        assert graph.attr_type("Outer", "child") == "Inner"
        assert graph.attr_type("Outer", "other") == "Inner"

    def test_attr_type_walks_bases(self, tmp_path):
        project = make_project(
            tmp_path,
            """
            class Inner:
                pass

            class Base:
                child: Inner

            class Derived(Base):
                pass
            """,
        )
        graph = build_callgraph(project)
        assert graph.attr_type("Derived", "child") == "Inner"


class TestScannerValueTypes:
    def scanner_for(self, project, qualname: str):
        graph = build_callgraph(project)
        fn = project.functions[f"mod_under_test:{qualname}"]
        module = project.modules[fn.module]
        scanner = FunctionScanner(graph, fn, module)
        for stmt in fn.node.body:
            scanner.visit(stmt)
        return scanner, fn

    def test_constructor_assigned_local(self, tmp_path):
        project = make_project(
            tmp_path,
            """
            class Thing:
                def poke(self) -> None:
                    pass

            def go():
                t = Thing()
                t.poke()
            """,
        )
        scanner, _ = self.scanner_for(project, "go")
        assert scanner.local_types["t"] == "Thing"

    def test_reassigned_local_takes_last_type(self, tmp_path):
        project = make_project(
            tmp_path,
            """
            class A:
                pass

            class B:
                pass

            def go():
                x = A()
                x = B()
            """,
        )
        scanner, _ = self.scanner_for(project, "go")
        assert scanner.local_types["x"] == "B"

    def test_reassignment_to_unknown_invalidates(self, tmp_path):
        """A local rebound to something untypeable must drop its old
        type — keeping it would let RPL603 mistake an arbitrary object
        for a guarded instance (or vice versa)."""
        project = make_project(
            tmp_path,
            """
            class A:
                pass

            def opaque():
                return 3

            def go():
                x = A()
                x = opaque()
            """,
        )
        scanner, _ = self.scanner_for(project, "go")
        assert "x" not in scanner.local_types

    def test_attribute_chain_receiver(self, tmp_path):
        """``hub.registry.counter()`` resolves through two attribute
        hops — the input RPL603 needs for nested receivers."""
        project = make_project(
            tmp_path,
            """
            class Counter:
                def add(self, n: int) -> None:
                    pass

            class Registry:
                def __init__(self) -> None:
                    self.counter_obj = Counter()

            class Hub:
                def __init__(self) -> None:
                    self.registry = Registry()

            def go(hub: Hub):
                hub.registry.counter_obj.add(1)
            """,
        )
        graph = build_callgraph(project)
        assert (
            "mod_under_test:Counter.add"
            in graph.edges["mod_under_test:go"]
        )

    def test_ifexp_type(self, tmp_path):
        project = make_project(
            tmp_path,
            """
            class Real:
                pass

            def pick(flag: bool):
                r = Real() if flag else Real()
                return r
            """,
        )
        scanner, _ = self.scanner_for(project, "pick")
        assert scanner.local_types["r"] == "Real"

    def test_annotated_return_type_flows_to_local(self, tmp_path):
        project = make_project(
            tmp_path,
            """
            class Product:
                def ship(self) -> None:
                    pass

            def build() -> Product:
                return Product()

            def go():
                p = build()
                p.ship()
            """,
        )
        graph = build_callgraph(project)
        assert (
            "mod_under_test:Product.ship"
            in graph.edges["mod_under_test:go"]
        )
