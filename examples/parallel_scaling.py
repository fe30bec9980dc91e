"""Parallel scaling demo: PIncDect on the simulated cluster, 4 → 20 processors.

Reproduces the shape of Figures 4(i)–(l) interactively: the incremental
workload of a 15% batch update is detected with PIncDect at increasing
processor counts and with each balancing ablation, and the resulting
simulated makespans are printed side by side.

Run with::

    python examples/parallel_scaling.py [dataset]

where ``dataset`` is one of DBpedia, YAGO2, Pokec (default Pokec — the most
skewed workload, where balancing matters most).  The script exits non-zero
when a process run's violations differ from serial Dect's.
"""

from __future__ import annotations

import os
import sys

from repro import UpdateGenerator, apply_update, obs
from repro.datasets.kb import dbpedia_like, pokec_like, yago_like
from repro.datasets.rules import benchmark_rules
from repro.detect import BalancingPolicy, DetectionOptions, Detector

#: the knowledge-base analogues of the paper's graphs, by their paper names
DATASETS = {"DBpedia": dbpedia_like, "YAGO2": yago_like, "Pokec": pokec_like}


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "Pokec"
    print(f"building the {dataset} analogue ...")
    graph = DATASETS[dataset]()
    rules = benchmark_rules(graph, count=24, max_diameter=5)
    delta = UpdateGenerator(seed=7).generate(graph, size=max(1, graph.edge_count() * 15 // 100))
    updated = apply_update(graph, delta)
    print(f"  |V|={graph.node_count()}  |E|={graph.edge_count()}  |ΔG|={len(delta)}  ‖Σ‖={len(rules)}")

    inc_dect = Detector(rules, engine="incremental")
    sequential = inc_dect.run_incremental(graph, delta, graph_after=updated)
    # PIncDect's makespan includes replicating G_dΣ(ΔG); charge IncDect for finding it too
    yardstick = sequential.cost + sequential.neighborhood_size
    print(f"\nIncDect (sequential yardstick): cost {yardstick:.0f}, ΔVio = {sequential.total_changes()}")

    print("\nPIncDect makespan vs number of processors (hybrid balancing):")
    for processors in (4, 8, 12, 16, 20):
        pinc_dect = Detector(rules, engine="parallel", processors=processors)
        result = pinc_dect.run_incremental(graph, delta, graph_after=updated)
        speedup = yardstick / result.cost if result.cost else float("inf")
        print(f"  p = {processors:>2}: makespan {result.cost:10.0f}   ({speedup:4.1f}x vs IncDect)")

    print("\nBalancing ablations at p = 8 (paper: the hybrid strategy wins):")
    policies = {
        "PIncDect (hybrid)": BalancingPolicy.hybrid(),
        "PIncDect_ns (no splitting)": BalancingPolicy.no_splitting(),
        "PIncDect_nb (no rebalancing)": BalancingPolicy.no_rebalancing(),
        "PIncDect_NO (neither)": BalancingPolicy.none(),
    }
    for name, policy in policies.items():
        pinc_dect = Detector(rules, engine="parallel", processors=8, options=DetectionOptions(policy=policy))
        result = pinc_dect.run_incremental(graph, delta, graph_after=updated)
        print(f"  {name:<30} makespan {result.cost:10.0f}")

    print("\nReal multi-process execution (execution='processes', wall-clock):")
    serial_batch = Detector(rules, engine="batch")
    serial_result = serial_batch.run(graph)
    print(f"  serial Dect:     {serial_result.wall_time:6.2f}s wall")
    mismatches = []
    for processors in (1, 4):
        detector = Detector(
            rules,
            engine="parallel",
            processors=processors,
            options=DetectionOptions(execution="processes"),
        )
        result = detector.run(graph)
        same = result.violations == serial_result.violations
        if not same:
            mismatches.append(f"processes p = {processors}")
        print(
            f"  processes p = {processors}: {result.wall_time:6.2f}s wall "
            f"(violations identical: {same})"
        )
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"  ({cpus} CPU(s) available — wall-clock speedup needs several)")

    print("\nSurviving a worker crash (REPRO_FAULTS=worker_death, same answer):")
    os.environ["REPRO_FAULTS"] = "worker_death:worker=0,epoch=0,after=3"
    try:
        before = obs.metrics().total("repro_worker_restarts_total")
        detector = Detector(
            rules,
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes"),
        )
        result = detector.run(graph)
        restarts = int(obs.metrics().total("repro_worker_restarts_total") - before)
        same = result.violations == serial_result.violations
        if not same:
            mismatches.append("processes p = 2 with a worker crash")
        print(
            f"  worker 0 SIGKILLed at its 3rd seed: {restarts} restart(s), "
            f"degraded={result.degraded}, violations identical: {same}"
        )
    finally:
        del os.environ["REPRO_FAULTS"]
    if mismatches:
        sys.exit(f"violations differ from serial Dect: {', '.join(mismatches)}")


if __name__ == "__main__":
    main()
