"""Unit tests for the property-graph substrate: Graph, Node, Edge, Pattern."""

from __future__ import annotations

import pytest

from repro.errors import DuplicateNode, EdgeNotFound, GraphError, NodeNotFound, PatternError
from repro.graph.graph import WILDCARD, Graph, Node
from repro.graph.pattern import Pattern


class TestNode:
    def test_attribute_lookup(self):
        node = Node("n1", "person", {"age": 30})
        assert node.attribute("age") == 30
        assert node.attribute("missing") is None
        assert node.attribute("missing", 7) == 7

    def test_has_attribute(self):
        node = Node("n1", "person", {"age": 30})
        assert node.has_attribute("age")
        assert not node.has_attribute("name")

    def test_with_attribute_returns_new_node(self):
        node = Node("n1", "person", {"age": 30})
        updated = node.with_attribute("age", 31)
        assert updated.attribute("age") == 31
        assert node.attribute("age") == 30


class TestGraphNodes:
    def test_add_and_get_node(self):
        graph = Graph()
        graph.add_node("a", "person", {"val": 1})
        assert graph.node("a").label == "person"
        assert graph.has_node("a")
        assert len(graph) == 1

    def test_add_duplicate_identical_is_noop(self):
        graph = Graph()
        graph.add_node("a", "person", {"val": 1})
        graph.add_node("a", "person", {"val": 1})
        assert graph.node_count() == 1

    def test_add_duplicate_conflicting_raises(self):
        graph = Graph()
        graph.add_node("a", "person")
        with pytest.raises(DuplicateNode):
            graph.add_node("a", "city")

    def test_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(NodeNotFound):
            graph.node("ghost")

    def test_ensure_node_creates_once(self):
        graph = Graph()
        first = graph.ensure_node("a", "person")
        second = graph.ensure_node("a")
        assert first == second
        assert graph.node_count() == 1

    def test_label_index(self):
        graph = Graph()
        graph.add_node("a", "person")
        graph.add_node("b", "person")
        graph.add_node("c", "city")
        assert graph.nodes_with_label("person") == frozenset({"a", "b"})
        assert graph.nodes_with_label("city") == frozenset({"c"})
        assert graph.nodes_with_label("missing") == frozenset()

    def test_wildcard_label_returns_all_nodes(self):
        graph = Graph()
        graph.add_node("a", "person")
        graph.add_node("b", "city")
        assert graph.nodes_with_label(WILDCARD) == frozenset({"a", "b"})

    def test_set_attribute(self):
        graph = Graph()
        graph.add_node("a", "person", {"val": 1})
        graph.set_attribute("a", "val", 2)
        assert graph.node("a").attribute("val") == 2

    def test_remove_node_removes_incident_edges(self):
        graph = Graph()
        graph.add_node("a", "x")
        graph.add_node("b", "x")
        graph.add_edge("a", "b", "e")
        graph.add_edge("b", "a", "e")
        graph.remove_node("a")
        assert not graph.has_node("a")
        assert graph.edge_count() == 0
        graph.validate_consistency()


class TestGraphEdges:
    def test_add_edge_requires_nodes(self):
        graph = Graph()
        graph.add_node("a", "x")
        with pytest.raises(NodeNotFound):
            graph.add_edge("a", "missing", "e")

    def test_add_edge_and_lookup(self, triangle_graph):
        assert triangle_graph.has_edge("a", "b", "knows")
        assert triangle_graph.has_edge("a", "b")
        assert not triangle_graph.has_edge("b", "a", "knows")
        edge = triangle_graph.edge("a", "b", "knows")
        assert edge.endpoints() == ("a", "b")

    def test_parallel_edges_different_labels(self):
        graph = Graph()
        graph.add_node("a", "x")
        graph.add_node("b", "x")
        graph.add_edge("a", "b", "e1")
        graph.add_edge("a", "b", "e2")
        assert graph.edge_count() == 2

    def test_duplicate_edge_is_noop(self, triangle_graph):
        before = triangle_graph.edge_count()
        triangle_graph.add_edge("a", "b", "knows")
        assert triangle_graph.edge_count() == before

    def test_remove_missing_edge_raises(self, triangle_graph):
        with pytest.raises(EdgeNotFound):
            triangle_graph.remove_edge("a", "b", "likes")

    def test_edges_with_signature(self, triangle_graph):
        edges = triangle_graph.edges_with_signature("person", "knows", "person")
        assert len(edges) == 1
        assert edges[0].source == "a"

    def test_edges_with_signature_wildcards(self, triangle_graph):
        edges = triangle_graph.edges_with_signature(WILDCARD, "lives_in", "city")
        assert {e.source for e in edges} == {"a", "b"}

    def test_signature_index_follows_removal(self, triangle_graph):
        triangle_graph.remove_edge("a", "b", "knows")
        assert triangle_graph.edges_with_signature("person", "knows", "person") == []
        triangle_graph.validate_consistency()


class TestGraphAdjacencyAndStats:
    def test_successors_and_predecessors(self, triangle_graph):
        assert ("b", "knows") in triangle_graph.successors("a")
        assert ("a", "knows") in triangle_graph.predecessors("b")

    def test_neighbours_ignore_direction(self, triangle_graph):
        assert triangle_graph.neighbours("c") == frozenset({"a", "b"})

    def test_degree(self, triangle_graph):
        assert triangle_graph.degree("a") == 2
        assert triangle_graph.degree("c") == 2

    def test_density_and_average_degree(self, triangle_graph):
        assert triangle_graph.density() == pytest.approx(3 / (3 * 2))
        assert triangle_graph.average_degree() == pytest.approx(2.0)

    def test_total_size(self, triangle_graph):
        assert triangle_graph.total_size() == 6

    def test_labels(self, triangle_graph):
        assert triangle_graph.labels() == frozenset({"person", "city"})
        assert triangle_graph.edge_labels() == frozenset({"knows", "lives_in"})


class TestSubgraphs:
    def test_induced_subgraph(self, triangle_graph):
        sub = triangle_graph.induced_subgraph(["a", "b"])
        assert sub.node_count() == 2
        assert sub.edge_count() == 1
        assert sub.has_edge("a", "b", "knows")

    def test_induced_subgraph_missing_node(self, triangle_graph):
        with pytest.raises(NodeNotFound):
            triangle_graph.induced_subgraph(["a", "ghost"])

    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.remove_edge("a", "b", "knows")
        assert triangle_graph.has_edge("a", "b", "knows")
        assert not clone.has_edge("a", "b", "knows")

    def test_is_subgraph_of(self, triangle_graph):
        sub = triangle_graph.induced_subgraph(["a", "b"])
        assert sub.is_subgraph_of(triangle_graph)
        assert not triangle_graph.is_subgraph_of(sub)

    def test_graph_equality(self, triangle_graph):
        assert triangle_graph == triangle_graph.copy()
        other = triangle_graph.copy()
        other.set_attribute("a", "val", 99)
        assert triangle_graph != other


class TestPattern:
    def test_variables_in_order(self, knows_pattern):
        assert knows_pattern.variables == ("x", "y")

    def test_duplicate_variable_conflicting_label(self):
        pattern = Pattern()
        pattern.add_node("x", "person")
        with pytest.raises(PatternError):
            pattern.add_node("x", "city")

    def test_edge_requires_variables(self):
        pattern = Pattern()
        pattern.add_node("x", "person")
        with pytest.raises(PatternError):
            pattern.add_edge("x", "y", "knows")

    def test_wildcard_matches_any_label(self):
        pattern = Pattern()
        node = pattern.add_node("x", WILDCARD)
        assert node.matches_label("anything")

    def test_neighbours_and_incident_edges(self, knows_pattern):
        assert knows_pattern.neighbours("x") == frozenset({"y"})
        assert len(knows_pattern.incident_edges("x")) == 1

    def test_connectivity(self):
        pattern = Pattern.from_edges(
            "p", nodes=[("a", "x"), ("b", "x"), ("c", "x")], edges=[("a", "b", "e")]
        )
        assert not pattern.is_connected()
        assert len(pattern.connected_components()) == 2

    def test_diameter_of_chain(self):
        pattern = Pattern.from_edges(
            "chain",
            nodes=[("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")],
            edges=[("a", "b", "e"), ("b", "c", "e"), ("c", "d", "e")],
        )
        assert pattern.diameter() == 3

    def test_diameter_single_node(self):
        pattern = Pattern.from_edges("single", nodes=[("a", "x")])
        assert pattern.diameter() == 0

    def test_to_graph_roundtrip(self, knows_pattern):
        graph = knows_pattern.to_graph()
        assert graph.node_count() == 2
        assert graph.has_edge("x", "y", "knows")

    def test_pattern_equality_and_hash(self):
        p1 = Pattern.from_edges("a", nodes=[("x", "t")], edges=[])
        p2 = Pattern.from_edges("b", nodes=[("x", "t")], edges=[])
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_qx_patterns_from_paper_have_expected_diameters(self):
        from repro.core.builtin_rules import pattern_q1, pattern_q2, pattern_q3, pattern_q4

        assert pattern_q1().diameter() == 2
        assert pattern_q2().diameter() == 2
        # in Q3/Q4 the value nodes of the two entities are four hops apart
        assert pattern_q3().diameter() == 4
        assert pattern_q4().diameter() == 4
