"""Scaled-down synthetic analogues of the paper's evaluation graphs.

The experiments of Section 7 use DBpedia (28M nodes / 33.4M edges, 200 node
types, 160 edge types), YAGO2 (3.5M / 7.35M, 13/36 types) and Pokec (1.63M /
30.6M, 269/11 types).  Those dumps are not available offline and would not be
tractable for a pure-Python matcher anyway, so this module generates
*structurally analogous* knowledge graphs:

* entities are typed (``type_i`` labels) and carry numeric facts through
  edges to ``integer`` value nodes (``rel_j`` edge labels), exactly the shape
  the example patterns Q1–Q7 rely on;
* entities link to each other with typed relations (``link_j``), giving the
  patterns of diameter ≥ 2 something to traverse;
* a configurable fraction of the numeric facts is perturbed
  (``error_rate``), planting the inconsistencies the NGDs are supposed to
  catch;
* the relative proportions mirror the real datasets: the DBpedia analogue is
  the largest and most heterogeneous, the YAGO2 analogue is small with few
  types, the Pokec analogue is denser in entity-entity links.

Every generator is deterministic given its seed, and ``scale`` rescales node
counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.graph.store import GraphStore

__all__ = ["KBConfig", "knowledge_graph", "dbpedia_like", "yago_like", "pokec_like"]


@dataclass(frozen=True)
class KBConfig:
    """Size and shape parameters of a synthetic knowledge graph."""

    name: str
    num_entities: int
    num_entity_types: int
    num_value_relations: int
    num_link_relations: int
    values_per_entity: int
    links_per_entity: float
    value_pool: int = 2000
    error_rate: float = 0.02
    seed: int = 0
    #: Fraction of entity-entity links whose target is one of the hub entities.
    #: Hubs give the graph the heavy-tailed adjacency lists (celebrities, capital
    #: cities, large companies) that make parallel workloads skewed — the very
    #: skew PIncDect's splitting and rebalancing are designed to absorb.
    hub_link_fraction: float = 0.0
    num_hubs: int = 0

    def scaled(self, scale: float) -> "KBConfig":
        """Return a copy with the entity count rescaled by ``scale``."""
        return self.replace(num_entities=max(10, int(self.num_entities * scale)))

    def replace(self, **overrides: object) -> "KBConfig":
        """Return a copy with selected fields overridden."""
        data = dict(self.__dict__)
        data.update(overrides)
        return KBConfig(**data)  # type: ignore[arg-type]


def knowledge_graph(config: KBConfig, store: str | GraphStore | None = None) -> Graph:
    """Generate a typed knowledge graph with planted numeric inconsistencies.

    Every entity of type ``type_t`` carries ``values_per_entity`` numeric
    facts.  The first two facts of each entity obey the invariant
    ``fact_0 ≤ fact_1`` (think "part ≤ whole": female population ≤ total
    population, nations ≤ competitors); with probability ``error_rate`` the
    invariant is deliberately broken.  The benchmark rule sets assert exactly
    these invariants, so the planted error rate controls the violation counts
    the detectors should find.
    """
    rng = random.Random(config.seed)
    graph = Graph(config.name, store=store)
    entity_ids = []
    for index in range(config.num_entities):
        entity_type = f"type_{index % config.num_entity_types}"
        entity_id = f"{config.name}/e{index}"
        graph.add_node(entity_id, entity_type, {"degree_hint": index % 7})
        entity_ids.append(entity_id)

        base = rng.randrange(config.value_pool // 2)
        whole = base + rng.randrange(config.value_pool // 2)
        if rng.random() < config.error_rate:
            base, whole = whole + 1 + rng.randrange(50), base  # planted "part > whole" error
        facts = [base, whole]
        for extra in range(2, config.values_per_entity):
            facts.append(rng.randrange(config.value_pool))
        for fact_index, value in enumerate(facts):
            relation = f"rel_{fact_index % config.num_value_relations}"
            value_id = f"{entity_id}/v{fact_index}"
            graph.add_node(value_id, "integer", {"val": value})
            graph.add_edge(entity_id, value_id, relation)

    hubs = entity_ids[: config.num_hubs] if config.num_hubs > 0 else []
    total_links = int(config.links_per_entity * config.num_entities)
    placed = 0
    attempts = 0
    while placed < total_links and attempts < 20 * max(1, total_links):
        attempts += 1
        source = rng.choice(entity_ids)
        if hubs and rng.random() < config.hub_link_fraction:
            target = rng.choice(hubs)
        else:
            target = rng.choice(entity_ids)
        if source == target:
            continue
        relation = f"link_{rng.randrange(config.num_link_relations)}"
        if graph.has_edge(source, target, relation):
            continue
        graph.add_edge(source, target, relation)
        placed += 1
    return graph


#: Default configurations; the proportions follow the paper's dataset table.
DBPEDIA_CONFIG = KBConfig(
    name="DBpedia-like",
    num_entities=1400,
    num_entity_types=20,
    num_value_relations=8,
    num_link_relations=8,
    values_per_entity=3,
    links_per_entity=0.45,
    seed=11,
    hub_link_fraction=0.35,
    num_hubs=4,
)
YAGO_CONFIG = KBConfig(
    name="YAGO2-like",
    num_entities=700,
    num_entity_types=6,
    num_value_relations=6,
    num_link_relations=6,
    values_per_entity=3,
    links_per_entity=0.6,
    seed=13,
    hub_link_fraction=0.3,
    num_hubs=3,
)
POKEC_CONFIG = KBConfig(
    name="Pokec-like",
    num_entities=500,
    num_entity_types=10,
    num_value_relations=5,
    num_link_relations=4,
    values_per_entity=3,
    links_per_entity=6.0,
    seed=17,
    hub_link_fraction=0.45,
    num_hubs=5,
)


def dbpedia_like(scale: float = 1.0, error_rate: float | None = None, seed: int | None = None) -> Graph:
    """Return the DBpedia analogue (largest, most heterogeneous)."""
    return _build(DBPEDIA_CONFIG, scale, error_rate, seed)


def yago_like(scale: float = 1.0, error_rate: float | None = None, seed: int | None = None) -> Graph:
    """Return the YAGO2 analogue (small, few types)."""
    return _build(YAGO_CONFIG, scale, error_rate, seed)


def pokec_like(scale: float = 1.0, error_rate: float | None = None, seed: int | None = None) -> Graph:
    """Return the Pokec analogue (densest entity-entity linkage)."""
    return _build(POKEC_CONFIG, scale, error_rate, seed)


def _build(config: KBConfig, scale: float, error_rate: float | None, seed: int | None) -> Graph:
    adjusted = config.scaled(scale)
    overrides: dict[str, object] = {}
    if error_rate is not None:
        overrides["error_rate"] = error_rate
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        adjusted = adjusted.replace(**overrides)
    return knowledge_graph(adjusted)
