"""Synthetic graph generators.

Section 7 of the paper generates synthetic graphs "with labels and attributes
drawn from an alphabet L of 500 symbols and values from a set of 2000
integers", controlled by |V| and |E| (up to 80M/100M).  This module provides:

* :func:`random_labeled_graph` — the direct analogue of that generator,
  scaled to laptop sizes;
* :func:`power_law_graph` — a preferential-attachment variant whose degree
  skew stresses the workload-balancing machinery (stragglers with large
  adjacency lists);
* :func:`community_graph` — a planted-partition generator whose locality
  mirrors social networks (used by the Pokec-like dataset);
* :func:`star_graph` / :func:`chain_graph` — tiny deterministic shapes used
  throughout the unit tests.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.store import GraphStore

__all__ = [
    "random_labeled_graph",
    "power_law_graph",
    "community_graph",
    "star_graph",
    "chain_graph",
]

#: Default attribute names attached to synthetic nodes; "val" mirrors the
#: attribute used by the paper's example NGDs.
DEFAULT_NUMERIC_ATTRIBUTES = ("val", "count", "rank")


def _label_alphabet(size: int) -> list[str]:
    return [f"L{i}" for i in range(size)]


def _edge_alphabet(size: int) -> list[str]:
    return [f"e{i}" for i in range(size)]


def random_labeled_graph(
    num_nodes: int,
    num_edges: int,
    num_labels: int = 500,
    num_edge_labels: int = 50,
    value_pool: int = 2000,
    numeric_attributes: Sequence[str] = DEFAULT_NUMERIC_ATTRIBUTES,
    seed: int = 0,
    name: str = "Synthetic",
    store: str | GraphStore | None = None,
) -> Graph:
    """Return a uniform random directed graph with labelled nodes and edges.

    Node labels are sampled uniformly from ``num_labels`` symbols, edge labels
    from ``num_edge_labels`` symbols, and each node carries every attribute in
    ``numeric_attributes`` with an integer value in ``[0, value_pool)``.
    Self-loops and duplicate (source, target, label) triples are avoided.
    """
    if num_nodes < 0 or num_edges < 0:
        raise GraphError("node and edge counts must be non-negative")
    if num_nodes < 2 and num_edges > 0:
        raise GraphError("at least two nodes are required to place edges")
    rng = random.Random(seed)
    labels = _label_alphabet(num_labels)
    edge_labels = _edge_alphabet(num_edge_labels)
    graph = Graph(name, store=store)
    for i in range(num_nodes):
        attributes = {attr: rng.randrange(value_pool) for attr in numeric_attributes}
        graph.add_node(i, rng.choice(labels), attributes)
    placed = 0
    seen: set[tuple[int, int, str]] = set()
    attempts = 0
    max_attempts = 20 * max(1, num_edges)
    while placed < num_edges and attempts < max_attempts:
        attempts += 1
        source = rng.randrange(num_nodes)
        target = rng.randrange(num_nodes)
        if source == target:
            continue
        label = rng.choice(edge_labels)
        key = (source, target, label)
        if key in seen:
            continue
        seen.add(key)
        graph.add_edge(source, target, label)
        placed += 1
    return graph


def power_law_graph(
    num_nodes: int,
    edges_per_node: int = 3,
    num_labels: int = 50,
    num_edge_labels: int = 10,
    value_pool: int = 2000,
    numeric_attributes: Sequence[str] = DEFAULT_NUMERIC_ATTRIBUTES,
    seed: int = 0,
    name: str = "PowerLaw",
    store: str | GraphStore | None = None,
) -> Graph:
    """Return a preferential-attachment graph with a heavy-tailed degree distribution.

    Every new node attaches ``edges_per_node`` outgoing edges to targets chosen
    proportionally to their current degree (plus one).  Hub nodes end up with
    very large adjacency lists, which is exactly the skew PIncDect's work-unit
    splitting is designed to handle.
    """
    if num_nodes < 1:
        raise GraphError("power-law graphs need at least one node")
    rng = random.Random(seed)
    labels = _label_alphabet(num_labels)
    edge_labels = _edge_alphabet(num_edge_labels)
    graph = Graph(name, store=store)
    attachment_pool: list[int] = []
    for i in range(num_nodes):
        attributes = {attr: rng.randrange(value_pool) for attr in numeric_attributes}
        graph.add_node(i, rng.choice(labels), attributes)
        targets: set[int] = set()
        for _ in range(min(edges_per_node, i)):
            target = rng.choice(attachment_pool) if attachment_pool else rng.randrange(max(1, i))
            if target == i or target in targets:
                continue
            targets.add(target)
            graph.add_edge(i, target, rng.choice(edge_labels))
            attachment_pool.append(target)
        attachment_pool.append(i)
    return graph


def community_graph(
    num_communities: int,
    community_size: int,
    intra_probability: float = 0.08,
    inter_probability: float = 0.002,
    num_labels: int = 30,
    num_edge_labels: int = 8,
    value_pool: int = 2000,
    numeric_attributes: Sequence[str] = DEFAULT_NUMERIC_ATTRIBUTES,
    seed: int = 0,
    name: str = "Community",
    store: str | GraphStore | None = None,
) -> Graph:
    """Return a planted-partition graph: dense communities, sparse cross links.

    Social graphs (Pokec in the paper) have exactly this structure; it keeps
    dΣ-neighbourhoods compact.
    """
    if num_communities < 1 or community_size < 1:
        raise GraphError("community counts and sizes must be positive")
    if not (0.0 <= intra_probability <= 1.0 and 0.0 <= inter_probability <= 1.0):
        raise GraphError("edge probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    labels = _label_alphabet(num_labels)
    edge_labels = _edge_alphabet(num_edge_labels)
    graph = Graph(name, store=store)
    total = num_communities * community_size
    for i in range(total):
        community = i // community_size
        attributes = {attr: rng.randrange(value_pool) for attr in numeric_attributes}
        attributes["community"] = community
        graph.add_node(i, rng.choice(labels), attributes)
    for source in range(total):
        source_community = source // community_size
        for target in range(total):
            if source == target:
                continue
            same = (target // community_size) == source_community
            probability = intra_probability if same else inter_probability
            if rng.random() < probability:
                graph.add_edge(source, target, rng.choice(edge_labels))
    return graph


def star_graph(num_leaves: int, hub_label: str = "hub", leaf_label: str = "leaf", edge_label: str = "link") -> Graph:
    """Return a star: one hub with ``num_leaves`` outgoing edges (deterministic)."""
    if num_leaves < 0:
        raise GraphError("number of leaves must be non-negative")
    graph = Graph("Star")
    graph.add_node("hub", hub_label, {"val": num_leaves})
    for i in range(num_leaves):
        graph.add_node(f"leaf{i}", leaf_label, {"val": i})
        graph.add_edge("hub", f"leaf{i}", edge_label)
    return graph


def chain_graph(length: int, label: str = "n", edge_label: str = "next", value_start: int = 0) -> Graph:
    """Return a directed chain ``n0 -> n1 -> ... -> n(length-1)`` (deterministic)."""
    if length < 0:
        raise GraphError("chain length must be non-negative")
    graph = Graph("Chain")
    for i in range(length):
        graph.add_node(f"n{i}", label, {"val": value_start + i})
    for i in range(length - 1):
        graph.add_edge(f"n{i}", f"n{i + 1}", edge_label)
    return graph
