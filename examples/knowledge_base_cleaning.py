"""Knowledge-base cleaning: batch detection once, incremental detection forever after.

This is the workload the paper's introduction motivates: a large knowledge
base (here the DBpedia-like synthetic analogue) is checked against a set of
data-quality NGDs once, and then, as the KB keeps changing, only the *changes*
to the violation set are recomputed.

Run with::

    python examples/knowledge_base_cleaning.py
"""

from __future__ import annotations

from repro import Detector, UpdateGenerator, apply_update
from repro.datasets.kb import dbpedia_like
from repro.datasets.rules import benchmark_rules


def main() -> None:
    print("building the DBpedia-like knowledge graph ...")
    graph = dbpedia_like(scale=0.5, error_rate=0.03)
    print(f"  |V| = {graph.node_count()}, |E| = {graph.edge_count()}")

    rules = benchmark_rules(graph, count=20, max_diameter=4)
    print(f"  using {len(rules)} data-quality NGDs (dΣ = {rules.diameter()})")

    print("\n--- initial batch detection (Dect) ---")
    batch = Detector(rules, engine="batch").run(graph)
    print(f"  violations found: {batch.violation_count()}  (cost {batch.cost:.0f} work units)")

    print("\n--- the knowledge base evolves: three rounds of updates ---")
    violations = batch.violations
    current = graph
    generator = UpdateGenerator(seed=7)
    for round_number in range(1, 4):
        delta = generator.generate(current, size=max(1, current.edge_count() // 20))
        updated = apply_update(current, delta)
        # a session per round: each run plans against the graph it searches
        inc_dect = Detector(rules, engine="incremental")
        incremental = inc_dect.run_incremental(current, delta, graph_after=updated)
        violations = violations.apply_delta(incremental.delta)
        ratio = batch.cost / incremental.cost if incremental.cost else float("inf")
        print(
            f"  round {round_number}: |ΔG| = {len(delta)} edges, "
            f"ΔVio = +{len(incremental.introduced())}/-{len(incremental.removed())}, "
            f"cost {incremental.cost:.0f} ({ratio:.1f}x cheaper than re-running Dect)"
        )
        current = updated

    print("\n--- sanity check: incremental bookkeeping matches recomputation ---")
    recomputed = Detector(rules, engine="batch").run(current).violations
    print(f"  maintained violation set size: {len(violations)}")
    print(f"  recomputed violation set size: {len(recomputed)}")
    print(f"  identical: {violations == recomputed}")


if __name__ == "__main__":
    main()
