"""Experiment drivers: one function per figure of the paper's evaluation.

Every driver returns an :class:`ExperimentSeries` — a mapping from the swept
parameter (x-axis) to per-algorithm costs (y-axis) — and is completely
deterministic given its configuration.  The benchmark files under
``benchmarks/`` call these drivers and print the resulting tables; the same
drivers power ``examples/parallel_scaling.py`` and the EXPERIMENTS.md record.

Cost is the simulated/operation-count measure described in
``repro.detect.base``; it replaces the cluster wall-clock of the paper while
preserving the comparisons the figures make (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.core.builtin_rules import effectiveness_rules, example_rules
from repro.core.ngd import RuleSet
from repro.core.validation import find_violations
from repro.datasets.rules import benchmark_rules, rules_with_diameter
from repro.datasets.synthetic import synthetic_graph
from repro.detect import (
    BalancingPolicy,
    DetectionOptions,
    Detector,
    p_dect,
    pinc_dect,
)
from repro.experiments.config import ExperimentConfig, build_dataset
from repro.graph.graph import Graph
from repro.graph.neighborhood import update_neighborhood
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update

__all__ = [
    "ExperimentSeries",
    "run_exp1_vary_delta",
    "run_exp2_vary_graph_size",
    "run_exp3_vary_rules",
    "run_exp3_vary_diameter",
    "run_exp4_vary_processors",
    "run_exp4_vary_latency",
    "run_exp4_vary_interval",
    "run_exp5_effectiveness",
    "run_parallel_speedup",
    "run_selftuning",
    "run_storage_backend_comparison",
]


@dataclass
class ExperimentSeries:
    """Result of one experiment: ``values[x][algorithm] = cost`` plus metadata."""

    title: str
    x_label: str
    values: dict[object, dict[str, float]] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)

    def algorithms(self) -> list[str]:
        """Return the algorithm names present, in first-seen order."""
        seen: list[str] = []
        for row in self.values.values():
            for name in row:
                if name not in seen:
                    seen.append(name)
        return seen

    def series(self, algorithm: str) -> list[tuple[object, float]]:
        """Return the (x, cost) points of one algorithm."""
        return [(x, row[algorithm]) for x, row in self.values.items() if algorithm in row]

    def speedup(self, baseline: str, algorithm: str) -> dict[object, float]:
        """Return baseline-cost / algorithm-cost per x value (>1 means faster than baseline)."""
        result = {}
        for x, row in self.values.items():
            if baseline in row and algorithm in row and row[algorithm] > 0:
                result[x] = row[baseline] / row[algorithm]
        return result


def _prepare(
    config: ExperimentConfig,
    dataset: str,
    delta_fraction: Optional[float] = None,
    rules: Optional[RuleSet] = None,
) -> tuple[Graph, RuleSet, BatchUpdate, Graph]:
    """Build the graph, rule set, batch update and updated graph for a run."""
    graph = build_dataset(dataset, scale=config.scale, seed=config.seed + 1)
    rule_set = rules if rules is not None else benchmark_rules(
        graph, count=config.rules_count, max_diameter=config.max_diameter, seed=config.seed
    )
    fraction = config.delta_fraction if delta_fraction is None else delta_fraction
    generator = UpdateGenerator(seed=config.seed + 7)
    delta = generator.generate(
        graph, size=max(1, int(graph.edge_count() * fraction)), insert_ratio=config.insert_ratio
    )
    updated = apply_update(graph, delta)
    return graph, rule_set, delta, updated


def _incremental_variants(config: ExperimentConfig) -> dict[str, BalancingPolicy]:
    return {
        "PIncDect": BalancingPolicy.hybrid(config.latency, config.interval),
        "PIncDect_ns": BalancingPolicy.no_splitting(config.latency, config.interval),
        "PIncDect_nb": BalancingPolicy.no_rebalancing(config.latency, config.interval),
        "PIncDect_NO": BalancingPolicy.none(config.latency, config.interval),
    }


def _cost_row(
    graph: Graph,
    rule_set: RuleSet,
    wanted: Iterable[str],
    config: ExperimentConfig,
    delta: Optional[BatchUpdate] = None,
    updated: Optional[Graph] = None,
    policies: Optional[dict[str, BalancingPolicy]] = None,
) -> dict[str, float]:
    """Compute one row of an experiment series through ``Detector`` sessions.

    ``wanted`` selects the algorithms; the incremental ones run only when a
    ``delta`` is supplied.  ``policies`` maps extra PIncDect variant names
    (``PIncDect_ns`` …) to their balancing policies.
    """
    wanted = set(wanted)
    row: dict[str, float] = {}
    if "Dect" in wanted:
        row["Dect"] = Detector(rule_set, engine="batch").run(graph).cost
    if "PDect" in wanted:
        row["PDect"] = (
            Detector(rule_set, engine="parallel", processors=config.processors).run(graph).cost
        )
    if delta is not None:
        if "IncDect" in wanted:
            # the paper's cost model charges IncDect for identifying G_dΣ(ΔG) too
            result = Detector(rule_set, engine="incremental").run_incremental(graph, delta, graph_after=updated)
            row["IncDect"] = result.cost + result.neighborhood_size
        variants = policies if policies is not None else {"PIncDect": None}
        for name, policy in variants.items():
            if name not in wanted:
                continue
            detector = Detector(
                rule_set,
                engine="parallel",
                processors=config.processors,
                options=DetectionOptions(policy=policy),
            )
            row[name] = detector.run_incremental(graph, delta, graph_after=updated).cost
    return row


def run_exp1_vary_delta(
    dataset: str,
    delta_fractions: Iterable[float] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35),
    config: Optional[ExperimentConfig] = None,
    algorithms: Iterable[str] = ("Dect", "IncDect", "PDect", "PIncDect", "PIncDect_NO"),
) -> ExperimentSeries:
    """Exp-1 / Figures 4(a)–(d): incremental vs batch detection while |ΔG| grows."""
    config = config or ExperimentConfig()
    wanted = list(algorithms)
    series = ExperimentSeries(
        title=f"Exp-1 ({dataset}): varying |ΔG|", x_label="|ΔG| / |G|", metadata={"dataset": dataset}
    )
    graph = build_dataset(dataset, scale=config.scale, seed=config.seed + 1)
    rule_set = benchmark_rules(graph, count=config.rules_count, max_diameter=config.max_diameter, seed=config.seed)
    variants = _incremental_variants(config)

    # batch detection is insensitive to |ΔG|: compute its costs once
    batch_row = _cost_row(graph, rule_set, set(wanted) & {"Dect", "PDect"}, config)

    for fraction in delta_fractions:
        generator = UpdateGenerator(seed=config.seed + 7)
        delta = generator.generate(
            graph, size=max(1, int(graph.edge_count() * fraction)), insert_ratio=config.insert_ratio
        )
        updated = apply_update(graph, delta)
        row = dict(batch_row)
        row.update(
            _cost_row(
                graph,
                rule_set,
                set(wanted) - {"Dect", "PDect"},
                config,
                delta=delta,
                updated=updated,
                policies=variants,
            )
        )
        series.values[fraction] = row
    return series


def run_exp2_vary_graph_size(
    sizes: Iterable[tuple[int, int]] = ((1000, 2000), (2000, 4000), (3000, 6000), (6000, 8000), (8000, 10000)),
    config: Optional[ExperimentConfig] = None,
    algorithms: Iterable[str] = ("Dect", "IncDect", "PDect", "PIncDect"),
) -> ExperimentSeries:
    """Exp-2 / Figure 4(e): scalability with |G| on synthetic graphs (|ΔG| fixed at 15%)."""
    config = config or ExperimentConfig()
    wanted = list(algorithms)
    series = ExperimentSeries(title="Exp-2 (Synthetic): varying |G|", x_label="(|V|, |E|)")
    for num_nodes, num_edges in sizes:
        graph = synthetic_graph(
            num_nodes=int(num_nodes * config.scale),
            num_edges=int(num_edges * config.scale),
            seed=config.seed + 1,
            name=f"Synthetic({num_nodes},{num_edges})",
        )
        rule_set = benchmark_rules(graph, count=config.rules_count, max_diameter=config.max_diameter, seed=config.seed)
        generator = UpdateGenerator(seed=config.seed + 7)
        delta = generator.generate(
            graph, size=max(1, int(graph.edge_count() * config.delta_fraction)), insert_ratio=config.insert_ratio
        )
        updated = apply_update(graph, delta)
        series.values[(num_nodes, num_edges)] = _cost_row(
            graph, rule_set, wanted, config, delta=delta, updated=updated
        )
    return series


def run_exp3_vary_rules(
    dataset: str,
    rule_counts: Iterable[int] = (50, 60, 70, 80, 90, 100),
    config: Optional[ExperimentConfig] = None,
    algorithms: Iterable[str] = ("Dect", "IncDect", "PDect", "PIncDect"),
) -> ExperimentSeries:
    """Exp-3 / Figures 4(f)–(g): impact of ‖Σ‖ (|ΔG| fixed at 15%)."""
    config = config or ExperimentConfig()
    wanted = list(algorithms)
    series = ExperimentSeries(
        title=f"Exp-3 ({dataset}): varying ‖Σ‖", x_label="‖Σ‖", metadata={"dataset": dataset}
    )
    graph, full_rules, delta, updated = _prepare(
        config.scaled(rules_count=max(rule_counts)), dataset
    )
    for count in rule_counts:
        rule_set = full_rules.restrict(count)
        series.values[count] = _cost_row(
            graph, rule_set, wanted, config, delta=delta, updated=updated
        )
    return series


def run_exp3_vary_diameter(
    dataset: str = "DBpedia",
    diameters: Iterable[int] = (2, 3, 4, 5, 6),
    config: Optional[ExperimentConfig] = None,
    algorithms: Iterable[str] = ("Dect", "IncDect", "PDect", "PIncDect"),
) -> ExperimentSeries:
    """Exp-3 / Figure 4(h): impact of the rule-set diameter dΣ."""
    config = config or ExperimentConfig()
    wanted = list(algorithms)
    series = ExperimentSeries(
        title=f"Exp-3 ({dataset}): varying dΣ", x_label="dΣ", metadata={"dataset": dataset}
    )
    graph = build_dataset(dataset, scale=config.scale, seed=config.seed + 1)
    generator = UpdateGenerator(seed=config.seed + 7)
    delta = generator.generate(
        graph, size=max(1, int(graph.edge_count() * config.delta_fraction)), insert_ratio=config.insert_ratio
    )
    updated = apply_update(graph, delta)
    for diameter in diameters:
        rule_set = rules_with_diameter(graph, diameter, count=config.rules_count, seed=config.seed)
        series.values[diameter] = _cost_row(
            graph, rule_set, wanted, config, delta=delta, updated=updated
        )
    return series


def run_exp4_vary_processors(
    dataset: str,
    processor_counts: Iterable[int] = (4, 8, 12, 16, 20),
    config: Optional[ExperimentConfig] = None,
    algorithms: Iterable[str] = ("PDect", "PIncDect", "PIncDect_ns", "PIncDect_nb", "PIncDect_NO"),
) -> ExperimentSeries:
    """Exp-4 / Figures 4(i)–(l): parallel scalability with the number of processors."""
    config = config or ExperimentConfig()
    wanted = list(algorithms)
    series = ExperimentSeries(
        title=f"Exp-4 ({dataset}): varying p", x_label="p", metadata={"dataset": dataset}
    )
    graph, rule_set, delta, updated = _prepare(config, dataset)
    for processors in processor_counts:
        row: dict[str, float] = {}
        if "PDect" in wanted:
            row["PDect"] = p_dect(graph, rule_set, processors=processors).cost
        for name, policy in _incremental_variants(config).items():
            if name in wanted:
                row[name] = pinc_dect(
                    graph, rule_set, delta, processors=processors, policy=policy, graph_after=updated
                ).cost
        series.values[processors] = row
    return series


def run_exp4_vary_latency(
    dataset: str = "Pokec",
    latencies: Iterable[float] = (20, 40, 60, 80, 100),
    config: Optional[ExperimentConfig] = None,
) -> ExperimentSeries:
    """Exp-4 / Figure 4(m): sensitivity to the communication-latency parameter C."""
    config = config or ExperimentConfig()
    series = ExperimentSeries(
        title=f"Exp-4 ({dataset}): varying C", x_label="C", metadata={"dataset": dataset}
    )
    graph, rule_set, delta, updated = _prepare(config, dataset)
    for latency in latencies:
        row = {
            "PIncDect": pinc_dect(
                graph,
                rule_set,
                delta,
                processors=config.processors,
                policy=BalancingPolicy.hybrid(latency, config.interval),
                graph_after=updated,
            ).cost,
            "PIncDect_nb": pinc_dect(
                graph,
                rule_set,
                delta,
                processors=config.processors,
                policy=BalancingPolicy.no_rebalancing(latency, config.interval),
                graph_after=updated,
            ).cost,
        }
        series.values[latency] = row
    return series


def run_exp4_vary_interval(
    dataset: str = "YAGO2",
    intervals: Iterable[float] = (15, 30, 45, 50, 65),
    config: Optional[ExperimentConfig] = None,
) -> ExperimentSeries:
    """Exp-4 / Figure 4(n): sensitivity to the workload-monitoring interval intvl."""
    config = config or ExperimentConfig()
    series = ExperimentSeries(
        title=f"Exp-4 ({dataset}): varying intvl", x_label="intvl", metadata={"dataset": dataset}
    )
    graph, rule_set, delta, updated = _prepare(config, dataset)
    for interval in intervals:
        row = {
            "PIncDect": pinc_dect(
                graph,
                rule_set,
                delta,
                processors=config.processors,
                policy=BalancingPolicy.hybrid(config.latency, interval),
                graph_after=updated,
            ).cost,
            "PIncDect_ns": pinc_dect(
                graph,
                rule_set,
                delta,
                processors=config.processors,
                policy=BalancingPolicy.no_splitting(config.latency, interval),
                graph_after=updated,
            ).cost,
        }
        series.values[interval] = row
    return series


def run_exp5_effectiveness(config: Optional[ExperimentConfig] = None) -> ExperimentSeries:
    """Exp-5: how many errors the example / effectiveness NGDs catch on each graph.

    The paper reports 415 / 212 / 568 errors on DBpedia / YAGO2 / Pokec, 92%
    of which need NGD (not GFD) expressiveness; here the planted error rates
    of the synthetic analogues determine the counts, and the split between
    "numeric" (needs arithmetic/comparison) and "GFD-expressible" violations
    is reported alongside.
    """
    config = config or ExperimentConfig()
    series = ExperimentSeries(title="Exp-5: effectiveness of NGDs", x_label="dataset")
    from repro.datasets.figure1 import figure1_graphs

    figure_rules = example_rules()
    for name, graph in figure1_graphs().items():
        found = find_violations(graph, figure_rules)
        series.values[f"Figure1-{name}"] = {"violations": float(len(found))}

    for dataset in ("DBpedia", "YAGO2", "Pokec"):
        graph = build_dataset(dataset, scale=config.scale, seed=config.seed + 1)
        rule_set = benchmark_rules(graph, count=config.rules_count, max_diameter=config.max_diameter, seed=config.seed)
        found = find_violations(graph, rule_set)
        numeric_rules = {rule.name for rule in rule_set if not rule.is_gfd()}
        numeric_violations = sum(1 for violation in found if violation.rule in numeric_rules)
        series.values[dataset] = {
            "violations": float(len(found)),
            "numeric_only": float(numeric_violations),
            "numeric_share": (numeric_violations / len(found)) if len(found) else 0.0,
        }
    return series


def _expansion_kernel(graph: Graph, edge_labels: list[str]) -> int:
    """Drive the matcher's label-filtered expansion primitive over the graph.

    For every node and every pattern edge label, fetch the label-matching
    successors and predecessors and enumerate them — exactly the adjacency
    access pattern of an anchored search step when a neighbour of the next
    variable is already matched, stripped of the backend-neutral matcher
    bookkeeping that would otherwise dilute the storage-layer difference.
    """
    touched = 0
    successors_by_label = graph.successors_by_label
    predecessors_by_label = graph.predecessors_by_label
    for node_id in graph.node_ids():
        for label in edge_labels:
            for _ in successors_by_label(node_id, label):
                touched += 1
            for _ in predecessors_by_label(node_id, label):
                touched += 1
    return touched


def _best_of(repeats: int, fn: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_storage_backend_comparison(
    sizes: Iterable[tuple[int, int]] = ((1000, 2000), (3000, 6000), (8000, 10000)),
    backends: Iterable[str] = ("dict", "indexed"),
    config: Optional[ExperimentConfig] = None,
    repeats: int = 3,
) -> ExperimentSeries:
    """Compare graph storage backends on the matcher and neighbourhood hot paths.

    Unlike the other drivers this one measures *wall-clock seconds*: the
    deterministic work-unit cost model charges both backends identically by
    construction (they execute the same algorithm on the same data), so only
    real time can expose the difference between the reference ``DictStore``
    (flat adjacency, copy-on-read, O(degree) label filtering) and the
    optimized ``IndexedStore`` (label-keyed adjacency, zero-copy views).

    For each synthetic exp2 graph size the driver builds byte-identical
    graphs on every backend and times

    * ``expand`` — the label-filtered matcher-expansion kernel
      (:func:`_expansion_kernel`): the pure storage access pattern of
      candidate filtering, where the adjacency layout difference shows
      undiluted;
    * ``match`` — full batch detection (``find_violations``), which also
      spends most of its time in backend-neutral literal evaluation and
      matcher bookkeeping;
    * ``nbhd`` — ``G_d(ΔG)`` extraction for a 15% batch update, dominated
      by BFS adjacency reads and induced-subgraph construction.

    Each measurement is the best of ``repeats`` runs.  The driver also
    asserts the backends agree on the violation set — a drifting backend
    would silently invalidate every benchmark above — and records per-size
    speedups in ``series.metadata["speedups"]``.
    """
    config = config or ExperimentConfig()
    backends = list(backends)
    series = ExperimentSeries(
        title="Storage backends: matcher expansion & neighbourhood extraction (seconds)",
        x_label="(|V|, |E|)",
        metadata={"backends": backends, "repeats": repeats},
    )
    speedups: dict[object, dict[str, float]] = {}
    for num_nodes, num_edges in sizes:
        row: dict[str, float] = {}
        violation_sets = {}
        for backend in backends:
            graph = synthetic_graph(
                num_nodes=int(num_nodes * config.scale),
                num_edges=int(num_edges * config.scale),
                seed=config.seed + 1,
                name=f"Synthetic({num_nodes},{num_edges})",
                store=backend,
            )
            rule_set = benchmark_rules(
                graph, count=config.rules_count, max_diameter=config.max_diameter, seed=config.seed
            )
            pattern_edge_labels = sorted(
                {edge.label for rule in rule_set for edge in rule.pattern.edges()}
            )
            generator = UpdateGenerator(seed=config.seed + 7)
            delta = generator.generate(
                graph,
                size=max(1, int(graph.edge_count() * config.delta_fraction)),
                insert_ratio=config.insert_ratio,
            )

            row[f"expand[{backend}]"] = _best_of(
                repeats, lambda: _expansion_kernel(graph, pattern_edge_labels)
            )
            found: list = []

            def timed_match(graph=graph, rule_set=rule_set, found=found):
                found[:] = find_violations(graph, rule_set)

            row[f"match[{backend}]"] = _best_of(repeats, timed_match)
            violation_sets[backend] = frozenset(found)
            row[f"nbhd[{backend}]"] = _best_of(
                repeats, lambda: update_neighborhood(graph, delta, hops=config.max_diameter)
            )

        first = violation_sets[backends[0]]
        for backend, found in violation_sets.items():
            if found != first:
                raise AssertionError(
                    f"storage backends disagree on violations at size {(num_nodes, num_edges)}: "
                    f"{backends[0]} vs {backend}"
                )

        size_key = (num_nodes, num_edges)
        series.values[size_key] = row
        if "dict" in backends and "indexed" in backends:
            speedups[size_key] = {
                metric: row[f"{metric}[dict]"] / row[f"{metric}[indexed]"]
                if row[f"{metric}[indexed]"]
                else float("inf")
                for metric in ("expand", "match", "nbhd")
            }
    series.metadata["speedups"] = speedups
    return series


def run_parallel_speedup(
    processors: int = 4,
    entities: int = 4000,
    rules_count: int = 36,
    repeats: int = 2,
    seed: int = 8,
) -> dict:
    """Measure wall-clock speedup of ``execution="processes"`` over serial Dect.

    The first *measured* (rather than simulated) performance number of the
    reproduction: a skewed Exp-4-style knowledge-graph workload (hub
    entities concentrate adjacency, so rule subtrees are uneven) is
    detected serially, on the simulated cluster (the deterministic
    cost-model oracle — reported for the record), and on the real
    multi-process backend at 1 and ``processors`` workers.  Violation sets
    are asserted byte-identical across all four runs; the wall-clock
    numbers are environment-dependent by design.

    Returns a JSON-ready report (``benchmarks/BENCH_parallel.json`` keeps
    the committed baseline).
    """
    import json as _json
    import os
    import platform

    from repro.datasets.kb import KBConfig, knowledge_graph

    config = KBConfig(
        name="kb-speedup",
        num_entities=entities,
        num_entity_types=6,
        num_value_relations=5,
        num_link_relations=4,
        values_per_entity=3,
        links_per_entity=3.0,
        error_rate=0.05,
        seed=seed,
        hub_link_fraction=0.5,
        num_hubs=4,
    )
    graph = knowledge_graph(config)
    rule_set = benchmark_rules(graph, count=rules_count, max_diameter=5, seed=2)

    serial_detector = Detector(rule_set, engine="batch")
    serial_time = _best_of(repeats, lambda: serial_detector.run(graph))
    serial = serial_detector.last_result

    simulated = Detector(rule_set, engine="parallel", processors=processors).run(graph)

    process_times: dict[int, float] = {}
    process_results: dict[int, object] = {}
    for workers in sorted({1, processors}):
        detector = Detector(
            rule_set,
            engine="parallel",
            processors=workers,
            options=DetectionOptions(execution="processes"),
        )
        process_times[workers] = _best_of(repeats, lambda d=detector: d.run(graph))
        process_results[workers] = detector.last_result

    reference = serial.violations.to_json()
    for label, result in (("simulated", simulated), *(
        (f"processes[{w}]", r) for w, r in process_results.items()
    )):
        if result.violations.to_json() != reference:
            raise AssertionError(f"{label} violations differ from serial Dect")

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    speedup = serial_time / process_times[processors] if process_times[processors] else 0.0
    report = {
        "workload": {
            "entities": entities,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "rules": len(rule_set),
            "violations": len(serial.violations),
        },
        "machine": {"cpus": cpus, "platform": platform.platform()},
        "processors": processors,
        "serial_wall_seconds": round(serial_time, 4),
        "process_wall_seconds": {str(w): round(t, 4) for w, t in process_times.items()},
        "speedup_vs_serial": round(speedup, 3),
        "simulated_makespan": simulated.cost,
        "byte_identical_violations": True,
    }
    baseline = os.environ.get("REPRO_WRITE_BENCH_BASELINE")
    if baseline:
        with open(baseline, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def _correlated_hub_graph(roots: int, wide: int, narrow: int, survivor_stride: int) -> Graph:
    """A workload the static planner misjudges: every root fans out to
    ``wide`` ``b``-nodes (edge ``e2``) of which only one in
    ``survivor_stride`` satisfies the premise literal, and to ``narrow``
    ``a``-nodes (edge ``e1``) that all survive.  Statistics order the
    cheap-looking ``a`` step first; the observed cardinalities say the
    ``b`` step is the near-empty one and should run first."""
    graph = Graph("kb-selftuning")
    for index in range(roots):
        root = f"r{index}"
        graph.add_node(root, "root", {})
        for j in range(wide):
            node = f"b{index}_{j}"
            survives = (index * wide + j) % survivor_stride == 0
            graph.add_node(node, "b", {"val": 1 if survives else 0})
            graph.add_edge(root, node, "e2")
        for j in range(narrow):
            node = f"a{index}_{j}"
            graph.add_node(node, "a", {"val": j})
            graph.add_edge(root, node, "e1")
    return graph


def _selftuning_rules() -> RuleSet:
    from repro.core.ngd import NGD
    from repro.graph.pattern import Pattern

    pattern = Pattern.from_edges(
        "Qst",
        nodes=[("x", "root"), ("y", "a"), ("z", "b")],
        edges=[("x", "y", "e1"), ("x", "z", "e2")],
    )
    rule = NGD.from_text(pattern, premise="z.val = 1", conclusion="y.val < 0", name="st1")
    return RuleSet([rule], name="selftuning-rules")


def run_selftuning(
    roots: int = 120,
    wide: int = 20,
    narrow: int = 3,
    jobs: int = 4,
    processors: int = 2,
    entities: int = 600,
) -> dict:
    """Measure both halves of the self-tuning executor.

    **Adaptive replanning** runs serial Dect twice over a correlated-hub
    workload whose statistics mislead the static planner (see
    :func:`_correlated_hub_graph`): once with ``adaptive=False`` (the
    compiled order executes verbatim) and once with the default observe/
    replan loop.  Violation sets must be byte-identical; the ratio of
    ``total_operations()`` is the reported win.

    **Warm worker pools** runs the same detection request ``jobs`` times
    through the service path (:class:`~repro.service.jobs.SessionManager`
    with ``execution="processes"``, which runs jobs on pool threads and
    therefore spawns workers): once with a fresh manager per job (every
    job pays worker start-up + runtime loading — the cold regime this PR
    retires) and once through a single shared manager whose
    :class:`~repro.detect.parallel.WarmExecutorPool` keeps the crew alive
    (job 1 misses, jobs 2+ hit).  Violation records must match; per-job
    wall-clock means are reported.

    ``REPRO_WRITE_BENCH_BASELINE=path`` persists the report
    (``benchmarks/BENCH_selftuning.json`` keeps the committed baseline).
    """
    import json as _json
    import os
    import platform

    from repro.datasets.kb import KBConfig, knowledge_graph
    from repro.service.jobs import SessionManager
    from repro.service.protocol import DetectRequest
    from repro.service.registry import GraphRegistry

    # ------------------------------------------------- adaptive replanning
    graph = _correlated_hub_graph(roots, wide, narrow, survivor_stride=97)
    rules = _selftuning_rules()
    static_detector = Detector(rules, engine="batch", options=DetectionOptions(adaptive=False))
    static_result = static_detector.run(graph)
    adaptive_detector = Detector(rules, engine="batch", options=DetectionOptions(adaptive=True))
    adaptive_result = adaptive_detector.run(graph)
    if static_result.violations.to_json() != adaptive_result.violations.to_json():
        raise AssertionError("adaptive replanning changed the violation set")
    static_operations = static_result.stats.total_operations()
    adaptive_operations = adaptive_result.stats.total_operations()

    # ------------------------------------------------- warm worker pools
    config = KBConfig(
        name="kb-selftuning-service",
        num_entities=entities,
        num_entity_types=4,
        num_value_relations=4,
        num_link_relations=3,
        values_per_entity=3,
        links_per_entity=2.0,
        error_rate=0.08,
        seed=8,
        hub_link_fraction=0.4,
        num_hubs=2,
    )
    service_graph = knowledge_graph(config)
    service_rules = benchmark_rules(service_graph, count=8, max_diameter=4, seed=2)
    request = DetectRequest(
        catalog="selftuning", engine="auto", processors=processors, execution="processes"
    )

    def job(manager: SessionManager) -> tuple[float, list[dict]]:
        started = time.perf_counter()
        records = list(manager.stream_detection("kb", request))
        return time.perf_counter() - started, records

    def fresh_manager() -> SessionManager:
        registry = GraphRegistry()
        registry.register("kb", service_graph)
        return SessionManager(registry, catalogs={"selftuning": service_rules})

    cold_times: list[float] = []
    cold_records: list[dict] = []
    for _ in range(jobs):
        manager = fresh_manager()
        try:
            elapsed, records = job(manager)
        finally:
            manager.shutdown()
        cold_times.append(elapsed)
        cold_records = records

    warm_manager = fresh_manager()
    try:
        warm_times: list[float] = []
        warm_records: list[dict] = []
        for _ in range(jobs):
            elapsed, warm_records = job(warm_manager)
            warm_times.append(elapsed)
        pool_stats = warm_manager.executor_pool(processors).stats()
    finally:
        warm_manager.shutdown()

    def stream_violations(records: list[dict]) -> list[dict]:
        # completion order across worker processes is nondeterministic;
        # the *set* of violation records is what must agree
        return sorted(
            (record for record in records if record.get("type") == "violation"),
            key=lambda record: _json.dumps(record, sort_keys=True),
        )

    if stream_violations(cold_records) != stream_violations(warm_records):
        raise AssertionError("warm-pool job records differ from cold-pool records")

    cold_per_job = sum(cold_times) / len(cold_times)
    # job 1 loads the runtime (a miss by design); jobs 2+ are the steady state
    warm_steady = warm_times[1:] if len(warm_times) > 1 else warm_times
    warm_per_job = sum(warm_steady) / len(warm_steady)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    report = {
        "adaptive": {
            "workload": {
                "roots": roots,
                "wide_fanout": wide,
                "narrow_fanout": narrow,
                "violations": len(static_result.violations),
            },
            "static_operations": static_operations,
            "adaptive_operations": adaptive_operations,
            "operations_ratio": round(static_operations / max(adaptive_operations, 1), 3),
            "byte_identical_violations": True,
        },
        "warm_pool": {
            "workload": {
                "entities": entities,
                "nodes": service_graph.node_count(),
                "edges": service_graph.edge_count(),
                "rules": len(service_rules),
                "violations": len(stream_violations(warm_records)),
            },
            "jobs": jobs,
            "processors": processors,
            "cold_seconds_per_job": round(cold_per_job, 4),
            "warm_seconds_per_job": round(warm_per_job, 4),
            "warm_speedup": round(cold_per_job / warm_per_job if warm_per_job else 0.0, 3),
            "pool": pool_stats,
            "identical_violation_records": True,
        },
        "machine": {"cpus": cpus, "platform": platform.platform()},
    }
    baseline = os.environ.get("REPRO_WRITE_BENCH_BASELINE")
    if baseline:
        with open(baseline, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report
