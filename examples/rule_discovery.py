"""Rule discovery and static analysis: mine NGDs from a graph, then reason about them.

The paper mines its benchmark rules from the data (Section 7, "NGDs") and
motivates the satisfiability / implication analyses as the way to sanity-check
and minimise such mined rule sets before using them for cleaning.  This
example runs that pipeline end to end on a synthetic knowledge graph:

1. mine candidate NGDs with the levelwise miner;
2. check that the mined set is satisfiable (it always should be — it was
   mined from an actual graph);
3. remove redundant rules with the implication-based minimal cover;
4. use the surviving rules to detect violations in a *dirtier* copy of the
   graph.

Run with::

    python examples/rule_discovery.py
"""

from __future__ import annotations

from repro import Detector, RuleSet
from repro.core.implication import minimal_cover
from repro.core.satisfiability import is_satisfiable
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.discovery import DiscoveryConfig, discover_ngds


def main() -> None:
    clean_config = KBConfig(
        name="clean-kb",
        num_entities=150,
        num_entity_types=4,
        num_value_relations=4,
        num_link_relations=3,
        values_per_entity=3,
        links_per_entity=1.2,
        error_rate=0.0,
        seed=3,
    )
    clean_graph = knowledge_graph(clean_config)
    print(f"mining NGDs from a clean graph (|V|={clean_graph.node_count()}, |E|={clean_graph.edge_count()}) ...")

    mined = discover_ngds(
        clean_graph,
        DiscoveryConfig(max_pattern_edges=2, max_rules=10, min_support=8, min_confidence=0.98, seed=5),
    )
    print(f"mined {len(mined)} candidate rules:")
    for rule in mined:
        print(f"  {rule}")

    print("\nchecking the mined rules one by one with the satisfiability analysis ...")
    consistent = [rule for rule in mined if is_satisfiable(RuleSet([rule]))]
    print(f"  {len(consistent)} / {len(mined)} rules are individually satisfiable (as expected)")

    print("\nremoving redundant rules with the implication analysis ...")
    cover = minimal_cover(RuleSet(consistent, name="mined"))
    print(f"  minimal cover keeps {len(cover)} rules")

    dirty_graph = knowledge_graph(clean_config.replace(name="dirty-kb", error_rate=0.1, seed=4))
    print(f"\napplying the cover to a dirty copy (error rate 10%) ...")
    result = Detector(cover, engine="batch").run(dirty_graph)
    print(f"  violations detected: {result.violation_count()}")
    rules_hit = sorted(result.violations.rules_violated())
    print(f"  rules that caught something: {rules_hit}")


if __name__ == "__main__":
    main()
