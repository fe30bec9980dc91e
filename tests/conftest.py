"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.builtin_rules import example_rules, phi1, phi2, phi3, phi4
from repro.core.ngd import NGD, RuleSet
from repro.datasets.figure1 import figure1_g1, figure1_g2, figure1_g3, figure1_g4
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern


@pytest.fixture
def triangle_graph() -> Graph:
    """A small labelled triangle with numeric attributes, used across unit tests."""
    graph = Graph("triangle")
    graph.add_node("a", "person", {"val": 10, "age": 30})
    graph.add_node("b", "person", {"val": 20, "age": 25})
    graph.add_node("c", "city", {"val": 5})
    graph.add_edge("a", "b", "knows")
    graph.add_edge("b", "c", "lives_in")
    graph.add_edge("a", "c", "lives_in")
    return graph


@pytest.fixture
def g1() -> Graph:
    return figure1_g1()


@pytest.fixture
def g2() -> Graph:
    return figure1_g2()


@pytest.fixture
def g3() -> Graph:
    return figure1_g3()


@pytest.fixture
def g4() -> Graph:
    return figure1_g4()


@pytest.fixture
def figure1_rules() -> RuleSet:
    return example_rules()


@pytest.fixture
def rule_phi1() -> NGD:
    return phi1()


@pytest.fixture
def rule_phi2() -> NGD:
    return phi2()


@pytest.fixture
def rule_phi3() -> NGD:
    return phi3()


@pytest.fixture
def rule_phi4() -> NGD:
    return phi4()


@pytest.fixture
def knows_pattern() -> Pattern:
    """Pattern: person --knows--> person."""
    return Pattern(
        "knows",
        nodes=[("x", "person"), ("y", "person")],
        edges=[("x", "y", "knows")],
    )


@pytest.fixture
def knows_rule(knows_pattern) -> NGD:
    """Rule: if x knows y then x.val >= y.val — violated by the triangle fixture (10 < 20)."""
    return NGD.from_text(knows_pattern, "", "x.val >= y.val", name="val_order")


@pytest.fixture
def force_start_method(monkeypatch):
    """Return ``force(method)``, which pins the process backend to ``fork`` or ``spawn``.

    The backend picks its start method in one place,
    :func:`~repro.detect.parallel.executor.resolve_start_method`; patching
    that is how a test reaches the path the thread count would pick.
    """
    from repro.detect.parallel import executor

    def force(method: str) -> None:
        monkeypatch.setattr(executor, "resolve_start_method", lambda: method)

    return force
