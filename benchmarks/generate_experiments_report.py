"""Regenerate EXPERIMENTS.md from the experiment drivers.

Usage::

    python benchmarks/generate_experiments_report.py [output-path]

Runs every experiment driver with the default benchmark configuration (the
same one the pytest benchmarks use) and writes a markdown report recording
the paper's claim next to the measured series for every table and figure.
"""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import (  # noqa: E402
    ExperimentConfig,
    format_series,
    run_exp1_vary_delta,
    run_exp2_vary_graph_size,
    run_exp3_vary_diameter,
    run_exp3_vary_rules,
    run_exp4_vary_interval,
    run_exp4_vary_latency,
    run_exp4_vary_processors,
    run_exp5_effectiveness,
    run_storage_backend_comparison,
)
from repro.experiments.runner import ExperimentSeries  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_detector_overhead import measure_overhead  # noqa: E402
from bench_service_throughput import measure_service_throughput  # noqa: E402


def _block(series: ExperimentSeries, precision: int = 1) -> str:
    return "```\n" + format_series(series, precision) + "\n```\n"


def _speedup_line(series: ExperimentSeries, baseline: str, algorithm: str) -> str:
    ratios = series.speedup(baseline, algorithm)
    if not ratios:
        return ""
    values = list(ratios.values())
    return (
        f"*Measured {algorithm} vs {baseline}: "
        f"{max(values):.1f}× at the smallest x down to {min(values):.1f}× at the largest.*\n"
    )


def generate(output_path: Path) -> None:
    config = ExperimentConfig(rules_count=24, max_diameter=5, processors=8)
    sections: list[str] = []
    sections.append(
        "# EXPERIMENTS — paper vs. measured\n\n"
        f"Generated on {date.today().isoformat()} by "
        "`python benchmarks/generate_experiments_report.py` with the default\n"
        "benchmark configuration (‖Σ‖ = 24 template rules, p = 8, C = 60, intvl = 45,\n"
        "scaled-down synthetic analogues of DBpedia / YAGO2 / Pokec — see DESIGN.md §3).\n\n"
        "Measured 'time' is the deterministic cost measure described in\n"
        "`repro.detect.base`: algorithmic work units for sequential algorithms and the\n"
        "simulated cluster makespan for parallel ones.  Absolute values are therefore not\n"
        "comparable to the paper's seconds on a 20-machine Java cluster; the *shapes and\n"
        "orderings* are the reproduction target.\n"
    )

    # ---------------------------------------------------------------- Exp-1
    sections.append("\n## Exp-1 — Figures 4(a)–(d): varying |ΔG|\n")
    sections.append(
        "**Paper claim:** IncDect is 6.6–9.8× faster than Dect at |ΔG| = 5 % and 1.7–2.6× at 25 %, "
        "still winning up to ~33 %; PIncDect outperforms PDect by 5.6–9.8× down to 1.6–2.5×; the batch "
        "algorithms are insensitive to |ΔG|.\n"
    )
    for figure, dataset in (("4(a)", "DBpedia"), ("4(b)", "YAGO2"), ("4(c)", "Pokec"), ("4(d)", "Synthetic")):
        series = run_exp1_vary_delta(dataset, config=config)
        sections.append(f"\n### Figure {figure} — {dataset}\n")
        sections.append(_block(series))
        sections.append(_speedup_line(series, "Dect", "IncDect"))
        sections.append(_speedup_line(series, "PDect", "PIncDect"))

    # ---------------------------------------------------------------- Exp-2
    sections.append("\n## Exp-2 — Figure 4(e): varying |G| (Synthetic)\n")
    sections.append(
        "**Paper claim:** all algorithms take longer on larger G; the incremental algorithms are less "
        "sensitive to |G| than the batch ones; PIncDect does best throughout.\n"
    )
    series = run_exp2_vary_graph_size(config=config)
    sections.append(_block(series))

    # ---------------------------------------------------------------- Exp-3
    sections.append("\n## Exp-3 — Figures 4(f)–(g): varying ‖Σ‖\n")
    sections.append(
        "**Paper claim:** more rules cost more for every algorithm; IncDect and PIncDect scale well with ‖Σ‖.\n"
    )
    for figure, dataset in (("4(f)", "DBpedia"), ("4(g)", "YAGO2")):
        series = run_exp3_vary_rules(dataset, rule_counts=(10, 20, 30, 40, 50, 60), config=config)
        sections.append(f"\n### Figure {figure} — {dataset}\n")
        sections.append(_block(series))

    sections.append("\n## Exp-3 — Figure 4(h): varying dΣ (DBpedia)\n")
    sections.append("**Paper claim:** all algorithms take longer as the rule diameter grows (2 → 6).\n")
    series = run_exp3_vary_diameter("DBpedia", config=config)
    sections.append(_block(series))

    # ---------------------------------------------------------------- Exp-4
    sections.append("\n## Exp-4 — Figures 4(i)–(l): varying the number of processors p\n")
    sections.append(
        "**Paper claim:** PIncDect and PDect are on average 3.7× / 3.8× faster when p grows from 4 to 20; "
        "PIncDect consistently beats PDect and the ablation variants (hybrid balancing improves 1.5–1.8× "
        "over no balancing).\n"
    )
    for figure, dataset in (("4(i)", "DBpedia"), ("4(j)", "YAGO2"), ("4(k)", "Pokec"), ("4(l)", "Synthetic")):
        series = run_exp4_vary_processors(dataset, config=config)
        sections.append(f"\n### Figure {figure} — {dataset}\n")
        sections.append(_block(series))
        sections.append(_speedup_line(series, "PIncDect_NO", "PIncDect"))

    sections.append("\n## Exp-4 — Figure 4(m): varying the latency parameter C (Pokec)\n")
    sections.append(
        "**Paper claim:** an interior optimum (C ≈ 80 in the paper): small C splits too eagerly, large C "
        "falls back to local computation.\n"
    )
    series = run_exp4_vary_latency("Pokec", config=config)
    sections.append(_block(series))

    sections.append("\n## Exp-4 — Figure 4(n): varying the monitoring interval intvl (YAGO2)\n")
    sections.append(
        "**Paper claim:** an interior optimum (intvl ≈ 45 s): frequent monitoring costs messages, rare "
        "monitoring lets skew persist.\n"
    )
    series = run_exp4_vary_interval("YAGO2", config=config)
    sections.append(_block(series))

    # ---------------------------------------------------------------- Exp-5
    sections.append("\n## Exp-5 — effectiveness of NGDs\n")
    sections.append(
        "**Paper claim:** the NGDs caught 415 / 212 / 568 errors on DBpedia / YAGO2 / Pokec, 92 % of which "
        "need NGD (not GFD) expressiveness; NGD1–NGD3 and φ1–φ4 catch the concrete errors of Figure 1 and "
        "Section 7.  Here the planted error rates of the synthetic analogues determine the counts; the "
        "Figure 1 graphs each exhibit exactly one violation.\n"
    )
    series = run_exp5_effectiveness(config=config)
    sections.append(_block(series, precision=2))

    # ------------------------------------------------------- storage backends
    sections.append("\n## Storage backends — DictStore vs IndexedStore (no paper analogue)\n")
    sections.append(
        "The graph layer is pluggable (`docs/ARCHITECTURE.md`): `DictStore` preserves the "
        "original flat copy-on-read adjacency, `IndexedStore` keys adjacency by edge label "
        "with zero-copy views.  Wall-clock seconds (best of 3) on the synthetic exp2 graphs; "
        "`expand` is the label-filtered matcher-expansion kernel, `match`/`nbhd` the "
        "end-to-end detection and neighbourhood-extraction paths.  Both backends are "
        "verified to produce identical violation sets.\n"
    )
    series = run_storage_backend_comparison(config=config)
    sections.append(_block(series, precision=4))
    speedup_lines = [
        f"* {size}: " + ", ".join(f"{metric} {ratio:.2f}×" for metric, ratio in ratios.items())
        for size, ratios in series.metadata["speedups"].items()
    ]
    sections.append(
        "*IndexedStore speedups over DictStore:*\n\n" + "\n".join(speedup_lines) + "\n"
    )

    # ------------------------------------------------------- session overhead
    sections.append("\n## Detector session API — indirection overhead (no paper analogue)\n")
    sections.append(
        "The public API routes every run through a `Detector` session "
        "(`repro.detect.session`) whose kernels stream violations to sinks and honour "
        "early-termination budgets.  `benchmarks/bench_detector_overhead.py` asserts the "
        "indirection stays below 5 % on the Exp-2 synthetic workload; the measured run:\n"
    )
    overhead = measure_overhead()
    sections.append(
        "```\n"
        f"workload: {overhead['workload']}\n"
        f"raw kernel (drain(iter_dect)):   {overhead['baseline_seconds'] * 1000:.1f} ms\n"
        f"session (Detector.run + sink):   {overhead['session_seconds'] * 1000:.1f} ms\n"
        f"relative overhead:               {overhead['overhead']:+.2%}\n"
        f"violations: {overhead['violations']} (identical: {overhead['violations_identical']}), "
        f"cost identical: {overhead['costs_identical']}\n"
        "```\n"
    )

    # ------------------------------------------------------- service overhead
    sections.append("\n## Detection service — streaming overhead and throughput (no paper analogue)\n")
    sections.append(
        "`repro-detect serve` (`repro.service`) streams detections over HTTP as NDJSON "
        "with per-request budgets and keeps continuous sessions current through "
        "`run_incremental`.  `benchmarks/bench_service_throughput.py` asserts the full "
        "HTTP + NDJSON round trip stays within 25 % of consuming `Detector.stream` "
        "directly on the Exp-2 workload; the measured run:\n"
    )
    service = measure_service_throughput()
    sections.append(
        "```\n"
        f"workload: {service['workload']}\n"
        f"direct (Detector.stream):        {service['direct_seconds'] * 1000:.1f} ms\n"
        f"service (HTTP NDJSON stream):    {service['service_seconds'] * 1000:.1f} ms\n"
        f"relative overhead:               {service['overhead']:+.2%}\n"
        f"per streamed violation:          {service['service_ms_per_violation']:.2f} ms "
        f"(direct {service['direct_ms_per_violation']:.2f} ms)\n"
        f"first violation after:           {service['first_violation_ms']:.1f} ms\n"
        f"small requests/sec:              {service['requests_per_second']:.0f} "
        f"({service['small_requests']} sequential Figure-1 detections)\n"
        f"violations: {service['violations']} (identical: {service['counts_identical']})\n"
        "```\n"
    )

    # ------------------------------------------------------ process execution
    sections.append("\n## Process execution — measured wall-clock speedup (no paper analogue)\n")
    sections.append(
        "`execution=\"processes\"` runs the parallel kernels on real OS worker "
        "processes over sharded read-only graph images (`docs/ARCHITECTURE.md`, "
        "\"The execution layer\") — the first *measured* parallelism of the "
        "reproduction, with the cluster simulator retained as the deterministic "
        "cost-model oracle.  `benchmarks/bench_parallel_speedup.py` asserts "
        "byte-identical violation sets across serial / simulated / process "
        "execution on every machine and enforces the wall-clock bound where "
        "enough CPUs exist (CI: ≥ 1.3× at 4 workers).  The committed baseline "
        "(`benchmarks/BENCH_parallel.json`):\n"
    )
    baseline_path = Path(__file__).resolve().parent / "BENCH_parallel.json"
    if baseline_path.exists():
        import json as _json

        baseline = _json.loads(baseline_path.read_text(encoding="utf-8"))
        process_walls = ", ".join(
            f"p={workers}: {seconds:.2f}s"
            for workers, seconds in sorted(
                baseline["process_wall_seconds"].items(), key=lambda item: int(item[0])
            )
        )
        sections.append(
            "```\n"
            f"workload: {baseline['workload']}\n"
            f"machine:  {baseline['machine']}\n"
            f"serial Dect:          {baseline['serial_wall_seconds']:.2f}s wall\n"
            f"process backend:      {process_walls}\n"
            f"speedup vs serial:    {baseline['speedup_vs_serial']:.2f}x at "
            f"{baseline['processors']} workers\n"
            f"simulated makespan:   {baseline['simulated_makespan']:.0f} work units (oracle)\n"
            f"byte-identical sets:  {baseline['byte_identical_violations']}\n"
            "```\n"
        )
        if baseline["machine"].get("cpus", 1) < baseline.get("processors", 4):
            sections.append(
                "*The committed baseline was recorded on a "
                f"{baseline['machine'].get('cpus', 1)}-CPU container, where wall-clock "
                "parallel speedup is physically impossible — it documents overhead and "
                "parity; CI enforces the ≥ 1.3× bound on multi-core runners.*\n"
            )
    else:
        sections.append(
            "*(no BENCH_parallel.json baseline recorded yet — run "
            "`REPRO_WRITE_BENCH_BASELINE=benchmarks/BENCH_parallel.json "
            "pytest benchmarks/bench_parallel_speedup.py --benchmark-disable`)*\n"
        )

    # ------------------------------------------------------ self-tuning execution
    sections.append("\n## Self-tuning execution — adaptive replanning + warm pools (no paper analogue)\n")
    sections.append(
        "The executors observe per-step candidate cardinalities while matching and "
        "replan a rule's remaining variable order when observations drift from the "
        "compiled estimates (`docs/ARCHITECTURE.md`, \"Self-tuning execution\"); "
        "observed cardinalities persist as history documents and feed the next "
        "compile as priors.  Independently, a `WarmExecutorPool` keeps worker "
        "processes and their loaded runtime alive across `execution=\"processes\"` "
        "runs, keyed by (graph snapshot, rules digest) and invalidated on registry "
        "version bumps.  `benchmarks/bench_selftuning.py` asserts identical "
        "violation sets for adaptive-on/off and warm/cold, ≥ 1.2× fewer work "
        "units from replanning on the correlated-hub workload, and a ≥ 2× "
        "steady-state per-job win from the warm pool on the service path.  The "
        "committed baseline (`benchmarks/BENCH_selftuning.json`):\n"
    )
    selftuning_path = Path(__file__).resolve().parent / "BENCH_selftuning.json"
    if selftuning_path.exists():
        import json as _json

        selftuning = _json.loads(selftuning_path.read_text(encoding="utf-8"))
        adaptive = selftuning["adaptive"]
        warm = selftuning["warm_pool"]
        sections.append(
            "```\n"
            f"adaptive workload: {adaptive['workload']}\n"
            f"static ordering:    {adaptive['static_operations']} work units\n"
            f"adaptive replan:    {adaptive['adaptive_operations']} work units "
            f"({adaptive['operations_ratio']:.2f}x fewer)\n"
            f"byte-identical sets: {adaptive['byte_identical_violations']}\n"
            f"warm-pool workload: {warm['workload']}\n"
            f"cold jobs:          {warm['cold_seconds_per_job']:.3f}s per job "
            f"(fresh workers + runtime every request)\n"
            f"warm pool:          {warm['warm_seconds_per_job']:.3f}s per job steady-state "
            f"({warm['warm_speedup']:.2f}x; pool {warm['pool']})\n"
            f"identical records:  {warm['identical_violation_records']}\n"
            "```\n"
        )
    else:
        sections.append(
            "*(no BENCH_selftuning.json baseline recorded yet — run "
            "`REPRO_WRITE_BENCH_BASELINE=benchmarks/BENCH_selftuning.json "
            "pytest benchmarks/bench_selftuning.py --benchmark-disable`)*\n"
        )

    # ----------------------------------------------------------------- durability
    sections.append("\n## Durability — WAL, checkpoints, crash recovery (no paper analogue)\n")
    sections.append(
        "The paper assumes \"the storage layer maintains the updated graph\" and "
        "never prices it; the reproduction makes that layer explicit "
        "(`src/repro/storage/`, `docs/ARCHITECTURE.md` \"The durability layer\"): "
        "a SQLite-backed `persistent` store behind the GraphStore contract, a "
        "CRC-checked fsync'd write-ahead log with ack-implies-logged semantics, "
        "and checkpointed recovery for `serve --data-dir` that restores graphs, "
        "versions, retained snapshots, catalogs, and continuous sessions "
        "byte-identically after SIGKILL.  `benchmarks/bench_persistence.py` "
        "bounds the WAL append overhead per accepted update (< 1.25x the "
        "in-memory apply), measures cold-open (checkpoint + WAL-suffix replay "
        "vs a plain JSON graph load), and asserts byte-identical violations "
        "across `indexed`/`csr`/`persistent` engines.  The committed baseline "
        "(`benchmarks/BENCH_persistence.json`):\n"
    )
    persistence_path = Path(__file__).resolve().parent / "BENCH_persistence.json"
    if persistence_path.exists():
        import json as _json

        persistence = _json.loads(persistence_path.read_text(encoding="utf-8"))
        wal = persistence["wal"]
        cold = persistence["cold_open"]
        detect_walls = ", ".join(
            f"{engine}: {seconds:.3f}s"
            for engine, seconds in sorted(persistence["detect_wall_seconds"].items())
        )
        sections.append(
            "```\n"
            f"workload: {persistence['workload']}\n"
            f"machine:  {persistence['machine']}\n"
            f"WAL append overhead:  {wal['overhead_ratio']:.2f}x vs in-memory apply "
            f"({wal['updates']} updates, fsync per ack)\n"
            f"cold open:            {cold['recover_seconds']:.3f}s checkpoint+replay "
            f"({cold['replayed_records']} WAL records) vs "
            f"{cold['json_load_seconds']:.3f}s plain JSON load\n"
            f"detect wall seconds:  {detect_walls}\n"
            f"persistent/indexed:   {persistence['detect_persistent_vs_indexed']:.2f}x "
            "(reads served from the in-memory mirror)\n"
            f"byte-identical sets:  {persistence['byte_identical_violations']}\n"
            "```\n"
        )
    else:
        sections.append(
            "*(no BENCH_persistence.json baseline recorded yet — run "
            "`REPRO_WRITE_BENCH_BASELINE=benchmarks/BENCH_persistence.json "
            "pytest benchmarks/bench_persistence.py --benchmark-disable`)*\n"
        )

    # ------------------------------------------------------------- fault tolerance
    sections.append("\n## Fault tolerance — supervision, recovery, degradation (no paper analogue)\n")
    sections.append(
        "The paper's cluster algorithms assume workers that never fail; the "
        "reproduction's process backend supervises them "
        "(`docs/ARCHITECTURE.md`, \"Fault tolerance\"): every worker↔parent "
        "message is epoch-tagged, the parent tracks shipped-but-unconfirmed "
        "units per worker, and a SIGKILLed or hung worker is respawned with "
        "its outstanding units re-executed — at-least-once re-execution plus "
        "parent-side dedup gives byte-identical `ViolationSet`s.  Past the "
        "restart budget the run *degrades* to the parent's serial path "
        "(`degraded=True`) instead of failing; poison units are quarantined "
        "(`stop_reason=\"units_quarantined\"`).  All failure modes are "
        "reachable deterministically via `REPRO_FAULTS` "
        "(`repro.testing.faults`).  `benchmarks/bench_fault_tolerance.py` "
        "bounds crash recovery at < 1.5x a clean run and the heartbeat tax "
        "at < 2% (enforced on ≥ 4 CPUs).  The committed baseline "
        "(`benchmarks/BENCH_faults.json`):\n"
    )
    faults_path = Path(__file__).resolve().parent / "BENCH_faults.json"
    if faults_path.exists():
        import json as _json

        faults = _json.loads(faults_path.read_text(encoding="utf-8"))
        sections.append(
            "```\n"
            f"workload: {faults['workload']}\n"
            f"machine:  {faults['machine']}\n"
            f"clean run:            {faults['clean_wall_seconds']:.3f}s wall "
            f"(p = {faults['processors']})\n"
            f"crash + recovery:     {faults['crash_wall_seconds']:.3f}s wall "
            f"({faults['recovery_overhead_ratio']:.2f}x; "
            f"{faults['worker_restarts']} restart(s), "
            f"degraded={faults['crash_run_degraded']})\n"
            f"heartbeats disabled:  {faults['no_heartbeat_wall_seconds']:.3f}s wall "
            f"(tax {faults['heartbeat_overhead_fraction'] * 100:.2f}%)\n"
            f"byte-identical sets:  {faults['byte_identical_violations']}\n"
            "```\n"
        )
    else:
        sections.append(
            "*(no BENCH_faults.json baseline recorded yet — run "
            "`REPRO_WRITE_BENCH_BASELINE=benchmarks/BENCH_faults.json "
            "pytest benchmarks/bench_fault_tolerance.py --benchmark-disable`)*\n"
        )

    # ---------------------------------------------------------------- known deviations
    sections.append(
        "\n## Known deviations from the paper\n\n"
        "* Absolute running times are not comparable: the paper measures seconds of a Java\n"
        "  implementation on 20 machines over graphs with tens of millions of edges; this\n"
        "  reproduction measures deterministic work units over graphs four orders of magnitude\n"
        "  smaller (see DESIGN.md §3 for the substitution rationale).\n"
        "* The IncDect-vs-Dect advantage at 5 % updates is of the same order as the paper's\n"
        "  (≈5–12× depending on the dataset) but the exact ratios differ with the synthetic\n"
        "  analogues' density and rule selectivity.\n"
        "* The individual contributions of the two balancing mechanisms are smaller than in the\n"
        "  paper: work-unit splitting only pays off on the hub-heavy Pokec analogue, and the\n"
        "  latency/interval curves (Figures 4(m)/(n)) are flatter than the paper's, because the\n"
        "  scaled-down workloads have far fewer simultaneously-queued work units per processor.\n"
        "  The orderings (hybrid ≼ single-mechanism ≼ none, with correctness identical) still hold.\n"
    )

    output_path.write_text("".join(sections), encoding="utf-8")
    print(f"wrote {output_path} ({output_path.stat().st_size} bytes)")


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    generate(target)
