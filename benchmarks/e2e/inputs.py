"""Seeded input documents for the end-to-end benchmark.

Everything here produces plain JSON documents in the repository's file
formats (graph document, rule-set document, update lists) without touching
``src/``: the timed code receives the inputs only as files, and a change to
the library's own dataset generators cannot move the workload.

Two graph families, shaped after the ones the repo's experiments use:

* a YAGO-like knowledge base — typed entities, three numeric facts each on
  ``integer`` value nodes, sparse entity-entity links with a few hubs, and
  2 % planted ``part > whole`` errors — with 24 template rules of pattern
  diameter 1..4 (value stars and link paths);
* a product/seller marketplace with one rule carrying five premise literals
  and an arithmetic conclusion, so literal evaluation dominates the search.

Node and edge counts depend only on the size arguments, never on the seed,
so runs on different seeds do the same amount of work on different data.

ΔG batches come from :class:`UpdateStream`, which keeps the current edge
list and draws each batch in O(|ΔG|): half deletions of existing edges, half
insertions, a quarter of the insertions attaching a brand-new node.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

ENTITY_TYPES = 6
VALUE_RELATIONS = 3
LINK_RELATIONS = 6
VALUE_POOL = 2000
ERROR_RATE = 0.02
LINKS_PER_ENTITY = 0.6
HUBS = 3
HUB_LINK_FRACTION = 0.3
KB_RULES = 24


def digest(document: object) -> str:
    """Return the sha256 of a document's canonical JSON (sorted keys, no spaces, ASCII)."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


# ---------------------------------------------------------------- knowledge base


def kb_graph(rng: random.Random, entities: int) -> dict:
    """Return a YAGO-like graph document: 4 nodes and 3.6 edges per entity."""
    nodes, edges = [], []
    for index in range(entities):
        entity = f"e{index}"
        nodes.append(
            {"id": entity, "label": f"type_{index % ENTITY_TYPES}", "attributes": {"degree_hint": index % 7}}
        )
        part = rng.randrange(VALUE_POOL // 2)
        whole = part + rng.randrange(VALUE_POOL // 2)
        if rng.random() < ERROR_RATE:
            part, whole = whole + 1 + rng.randrange(50), part  # planted "part > whole" error
        for fact, value in enumerate((part, whole, rng.randrange(VALUE_POOL))):
            value_node = f"{entity}/v{fact}"
            nodes.append({"id": value_node, "label": "integer", "attributes": {"val": value}})
            edges.append({"source": entity, "target": value_node, "label": f"rel_{fact}"})
    seen = set()
    wanted = int(LINKS_PER_ENTITY * entities)
    while len(seen) < wanted:
        source = rng.randrange(entities)
        target = rng.randrange(HUBS) if rng.random() < HUB_LINK_FRACTION else rng.randrange(entities)
        link = (source, target, rng.randrange(LINK_RELATIONS))
        if source != target and link not in seen:
            seen.add(link)
            edges.append({"source": f"e{link[0]}", "target": f"e{link[1]}", "label": f"link_{link[2]}"})
    return {"name": "kb", "nodes": nodes, "edges": edges}


def _pattern(name: str, nodes: list, edges: list) -> dict:
    return {"name": name, "nodes": [list(node) for node in nodes], "edges": [list(edge) for edge in edges]}


def _star(entity_type: str, arms: int, name: str) -> dict:
    nodes = [("x", entity_type)] + [(f"a{i}", "integer") for i in range(arms)]
    return _pattern(name, nodes, [("x", f"a{i}", f"rel_{i}") for i in range(arms)])


def _path(first_type: int, hops: int, name: str) -> dict:
    nodes = [(f"x{i}", f"type_{(first_type + i) % ENTITY_TYPES}") for i in range(hops + 1)]
    nodes += [("a", "integer"), ("b", "integer")]
    edges = [(f"x{i}", f"x{i + 1}", f"link_{i % LINK_RELATIONS}") for i in range(hops)]
    edges += [("x0", "a", "rel_0"), (f"x{hops}", "b", "rel_1")]
    return _pattern(name, nodes, edges)


def kb_rules(rng: random.Random) -> dict:
    """Return 24 template rules (six per entity type, pattern diameter 1..4).

    Only the ``a0.val <= a1.val`` stars catch the planted errors; the rest
    are (mostly) satisfied and contribute matching work, the mix the paper's
    mined rule sets have.
    """
    rules = []
    for type_index in range(KB_RULES // 6):
        entity_type = f"type_{type_index}"
        single = _pattern(f"Q{type_index}_single", [("x", entity_type), ("a", "integer")], [("x", "a", "rel_0")])
        templates = [
            (single, "", "a.val >= 0"),
            (_star(entity_type, 2, f"Q{type_index}_star2"), "", "a0.val <= a1.val"),
            (
                _star(entity_type, 2, f"Q{type_index}_star2b"),
                f"a0.val >= 0, a0.val > {rng.randrange(100, 900)}",
                "a1.val >= a0.val",
            ),
            (_star(entity_type, 3, f"Q{type_index}_star3"), "", "a0.val + a1.val + a2.val >= 0, a0.val <= a1.val"),
        ]
        for hops in (1, 2):
            templates.append(
                (
                    _path(type_index, hops, f"Q{type_index}_path{hops}"),
                    f"a.val >= {rng.randrange(0, 400)}",
                    f"a.val + b.val <= {rng.randrange(2000, 4500)}, b.val >= 0",
                )
            )
        for pattern, premise, conclusion in templates:
            rules.append(
                {"name": f"r{len(rules):02d}", "pattern": pattern, "premise": premise, "conclusion": conclusion}
            )
    return {"name": "kb-rules", "rules": rules}


def _kb_new_edge(rng: random.Random, entities: int, fresh: int) -> dict:
    """Draw one KB insertion; ``fresh`` >= 0 names the new value node it attaches."""
    source = f"e{rng.randrange(entities)}"
    if fresh >= 0:
        return {
            "op": "insert",
            "source": source,
            "target": f"n{fresh}",
            "label": f"rel_{rng.randrange(VALUE_RELATIONS)}",
            "target_payload": {"label": "integer", "attributes": {"val": rng.randrange(VALUE_POOL)}},
        }
    target = f"e{rng.randrange(entities)}"
    return {"op": "insert", "source": source, "target": target, "label": f"link_{rng.randrange(LINK_RELATIONS)}"}


# ------------------------------------------------------------------- marketplace


def market_graph(rng: random.Random, products: int) -> dict:
    """Return a marketplace document: products, a tenth as many sellers."""
    sellers = products // 10
    nodes = [
        {"id": f"p{i}", "label": "product", "attributes": {"price": rng.randint(1, 400)}} for i in range(products)
    ]
    nodes += [{"id": f"s{i}", "label": "seller", "attributes": {"rating": rng.randint(0, 5)}} for i in range(sellers)]
    seen, edges = set(), []
    while len(edges) < products * 4:
        edge = (f"p{rng.randrange(products)}", f"p{rng.randrange(products)}", "variant")
        if edge[0] != edge[1] and edge not in seen:
            seen.add(edge)
            edges.append(edge)
    while len(edges) < products * 7:
        edge = (f"s{rng.randrange(sellers)}", f"p{rng.randrange(products)}", "sells")
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return {
        "name": "market",
        "nodes": nodes,
        "edges": [{"source": s, "target": t, "label": label} for s, t, label in edges],
    }


def market_rules() -> dict:
    """Return the one literal-heavy rule (five premise literals, arithmetic conclusion)."""
    pattern = _pattern(
        "Qmarket",
        [("x", "product"), ("y", "product"), ("z", "seller")],
        [("x", "y", "variant"), ("z", "x", "sells")],
    )
    return {
        "name": "market-rules",
        "rules": [
            {
                "name": "m00",
                "pattern": pattern,
                "premise": "x.price > 0, y.price > 0, z.rating >= 1, "
                "|(x.price - y.price)| <= 400, (x.price + y.price) <= 600",
                "conclusion": "(x.price * 4) >= (y.price + (z.rating / 2))",
            }
        ],
    }


def _market_new_edge(rng: random.Random, products: int, fresh: int) -> dict:
    """Draw one marketplace insertion; ``fresh`` >= 0 names the new product it lists."""
    seller = f"s{rng.randrange(products // 10)}"
    if fresh >= 0:
        return {
            "op": "insert",
            "source": seller,
            "target": f"n{fresh}",
            "label": "sells",
            "target_payload": {"label": "product", "attributes": {"price": rng.randint(1, 400)}},
        }
    if rng.random() < 0.5:
        return {"op": "insert", "source": seller, "target": f"p{rng.randrange(products)}", "label": "sells"}
    return {
        "op": "insert",
        "source": f"p{rng.randrange(products)}",
        "target": f"p{rng.randrange(products)}",
        "label": "variant",
    }


# ----------------------------------------------------------------- update stream


class UpdateStream:
    """Draws valid ΔG batches against an evolving edge list in O(|ΔG|) each.

    A batch replaces ``size // 2`` edges by as many new ones with the same
    labels, so the edge count and the label mix stay fixed along the stream
    and late batches cost what early ones do.
    """

    def __init__(self, graph: dict, new_edge, rng: random.Random) -> None:
        self._pools: dict[str, list[tuple]] = {}
        for entry in graph["edges"]:
            self._pools.setdefault(entry["label"], []).append((entry["source"], entry["target"], entry["label"]))
        self._present = {edge for pool in self._pools.values() for edge in pool}
        self._new_edge = new_edge
        self._rng = rng
        self._fresh = 0

    def batch(self, size: int) -> list[dict]:
        """Return one batch: ``size // 2`` deletions, then as many insertions."""
        rng = self._rng
        insertions, inserted = [], set()
        while len(insertions) < size // 2:
            attach = len(insertions) % 4 == 0
            entry = self._new_edge(rng, self._fresh if attach else -1)
            edge = (entry["source"], entry["target"], entry["label"])
            if edge[0] == edge[1] or edge in self._present or edge in inserted:
                continue
            if attach:
                self._fresh += 1
            inserted.add(edge)
            insertions.append(entry)
        deletions = []
        for _, _, label in sorted(inserted):
            # drawn before the new edges join the pools, so a batch never
            # deletes what it inserts and keeps the size it was asked for
            pool = self._pools[label] or max(self._pools.values(), key=len)
            slot = rng.randrange(len(pool))
            pool[slot], pool[-1] = pool[-1], pool[slot]
            edge = pool.pop()
            self._present.discard(edge)
            deletions.append({"op": "delete", "source": edge[0], "target": edge[1], "label": edge[2]})
        for edge in sorted(inserted):
            self._pools[edge[2]].append(edge)
        self._present |= inserted
        return deletions + insertions


class GraphState:
    """A graph document that ΔG batches are applied to in place, without the library."""

    def __init__(self, graph: dict) -> None:
        self._name = graph["name"]
        self._nodes = {node["id"]: node for node in graph["nodes"]}
        self._edges = {(e["source"], e["target"], e["label"]): None for e in graph["edges"]}

    def apply(self, batch: list[dict]) -> None:
        for entry in batch:
            edge = (entry["source"], entry["target"], entry["label"])
            if entry["op"] == "delete":
                del self._edges[edge]
                continue
            payload = entry.get("target_payload")
            if payload is not None:
                self._nodes[entry["target"]] = {"id": entry["target"], **payload}
            self._edges[edge] = None

    def document(self) -> dict:
        return {
            "name": self._name,
            "nodes": list(self._nodes.values()),
            "edges": [{"source": s, "target": t, "label": label} for s, t, label in self._edges],
        }


# ------------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """One fixed workload: which graph family, how large, its ΔG batch size and stream length."""

    name: str
    family: str  # "kb" or "market"
    size: int  # entities (kb) or products (market)
    batch_size: int  # unit updates per ΔG
    batches: int  # ΔG in the update stream of a full run


WORKLOADS = (
    Workload("kb_batch", "kb", 1200, 100, 110),
    Workload("literal_heavy", "market", 800, 100, 110),
    Workload("kb_incremental", "kb", 900, 150, 110),
    # a trickle: the updates are the smallest, so there are the most of them
    Workload("service_mixed", "kb", 600, 10, 220),
)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(name)


def generate(spec: Workload, seed: int, shrink: int, batches: int) -> dict:
    """Return ``{"graph", "rules", "updates"}`` for one workload and seed.

    ``shrink`` divides the graph and batch sizes (1 = full size; the smoke
    run uses more).
    """
    # every workload draws from its own stream, so two workloads of one
    # family do not see the same graph at different sizes
    rng = random.Random(f"{seed}/{spec.name}")
    size = spec.size // shrink
    if spec.family == "kb":
        graph, rules = kb_graph(rng, size), kb_rules(rng)
        new_edge = lambda r, fresh: _kb_new_edge(r, size, fresh)  # noqa: E731
    else:
        graph, rules = market_graph(rng, size), market_rules()
        new_edge = lambda r, fresh: _market_new_edge(r, size, fresh)  # noqa: E731
    stream = UpdateStream(graph, new_edge, rng)
    batch_size = max(4, spec.batch_size // shrink)
    return {"graph": graph, "rules": rules, "updates": [stream.batch(batch_size) for _ in range(batches)]}
