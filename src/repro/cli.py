"""Command-line entry point: detect NGD violations in a graph file.

Installed as ``repro-detect``.  Subcommands::

    repro-detect run GRAPH.json [--rules example] [--rules-file RULES.json]
                                [--engine auto|batch|parallel] [--processors 8]
                                [--execution simulated|processes]
                                [--plans-file PLANS.json]
                                [--format text|json] [--max-violations N]
    repro-detect incremental GRAPH.json --update UPDATE.json [--processors 8] [...]
    repro-detect explain GRAPH.json [--rules example] [--format text|json]
                                [--save-plans PLANS.json]
    repro-detect rules list|export [--rules effectiveness] [--output RULES.json]
    repro-detect rules discover GRAPH.json [-o RULES.json] [--min-support N]
                                [--min-confidence C] [--max-rules N]
    repro-detect serve [--host 127.0.0.1] [--port 8731] [--max-jobs N]
                       [--graph NAME=GRAPH.json ...] [--catalog NAME=RULES.json ...]

``--execution processes`` runs the parallel engine on real OS worker
processes (wall-clock parallelism over a sharded store) instead of the
deterministic cluster simulator; ``--plans-file`` / ``--save-plans``
persist compiled match plans next to their rule catalog so restarts and
worker processes skip recompilation.

``run`` performs batch detection of ``Vio(Σ, G)``; ``incremental`` computes
ΔVio(Σ, G, ΔG) against the batch update stored in ``--update``; ``explain``
compiles and prints the cost-based :class:`~repro.matching.plan.MatchPlan`
of every rule (variable order, per-variable candidate strategy with
estimated cardinality, literal schedule) without running detection; ``rules``
inspects or exports rule sets in the JSON rule-file format
(:meth:`repro.core.ngd.RuleSet.to_json`), which ``--rules-file`` loads back;
``rules discover`` mines NGDs from a graph (:mod:`repro.discovery`) straight
into that same rule-file format; ``serve`` starts the streaming detection
server (:mod:`repro.service`) with the named graphs and rule catalogs
pre-registered, printing one ``serving on http://…`` line once it is ready.

Exit codes are stable for scripting: **0** — the graph is verified clean
(the search completed with no violations / empty ΔVio), **1** — violations
were found, **2** — usage or input error (bad flags, unreadable files,
malformed rules), **3** — the search stopped early (``--max-violations`` /
``--max-cost``) without finding anything, so cleanliness was *not* verified.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections.abc import Sequence
from typing import Optional, Union

from repro import _import_started
from repro.core.builtin_rules import effectiveness_rules, example_rules
from repro.core.ngd import RuleSet
from repro.detect import (
    DetectionOptions,
    DetectionResult,
    Detector,
    IncrementalDetectionResult,
)
from repro.errors import ReproError
from repro.graph.io import load_graph, load_update
from repro.graph.store import STORE_REGISTRY, default_store_name

__all__ = ["main", "format_result", "result_to_dict"]

#: Seconds ``import repro.cli`` took, the package included: what every
#: subcommand has paid before it parses an argument.  A subcommand imports
#: what only it uses when it is dispatched (``serve``: the service and the
#: durability manager, before its ready line).
IMPORT_S = time.perf_counter() - _import_started

#: Stable exit codes (documented in the module docstring).
EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


# ---------------------------------------------------------------- formatting


def result_to_dict(result: Union[DetectionResult, IncrementalDetectionResult]) -> dict:
    """Return the JSON document for a detection result (the ``--format json`` schema).

    Batch results carry ``violations``; incremental results carry
    ``introduced`` / ``removed`` and ``total_changes``.  Violations are
    sorted by their textual form, so output is deterministic.
    """

    def violation_entry(violation) -> dict:
        # the wire form shared with the service protocol, plus the
        # variable → node dictionary for human consumption
        entry = violation.to_dict()
        entry["assignment"] = dict(zip(entry["variables"], entry["nodes"]))
        return entry

    document: dict = {
        "algorithm": result.algorithm,
        "cost": result.cost,
        "processors": result.processors,
        "stopped_early": result.stopped_early,
        "stop_reason": result.stop_reason,
    }
    if isinstance(result, IncrementalDetectionResult):
        document["introduced"] = [
            violation_entry(v) for v in sorted(result.introduced(), key=str)
        ]
        document["removed"] = [violation_entry(v) for v in sorted(result.removed(), key=str)]
        document["total_changes"] = result.total_changes()
    else:
        document["violations"] = [
            violation_entry(v) for v in sorted(result.violations, key=str)
        ]
        document["violation_count"] = result.violation_count()
    return document


def format_result(
    result: Union[DetectionResult, IncrementalDetectionResult],
    output_format: str = "text",
) -> str:
    """Render a detection result for the terminal (shared by every subcommand).

    ``output_format`` is ``"text"`` (the human-readable listing) or
    ``"json"`` (the :func:`result_to_dict` document, indented).
    """
    if output_format == "json":
        return json.dumps(result_to_dict(result), indent=2, default=str, sort_keys=True)

    lines: list[str] = []
    suffix = f" (stopped early: {result.stop_reason})" if result.stopped_early else ""
    if isinstance(result, IncrementalDetectionResult):
        lines.append(
            f"{result.algorithm}: +{len(result.introduced())} / "
            f"-{len(result.removed())} violations{suffix}"
        )
        for violation in sorted(result.introduced(), key=str):
            lines.append(f"  + {violation}")
        for violation in sorted(result.removed(), key=str):
            lines.append(f"  - {violation}")
    else:
        lines.append(f"{result.algorithm}: {result.violation_count()} violations{suffix}")
        for violation in sorted(result.violations, key=str):
            lines.append(f"  {violation}")
    return "\n".join(lines)


# ------------------------------------------------------------------- parsing


def _add_rules_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rules",
        choices=("example", "effectiveness"),
        default="example",
        help="which built-in rule set to apply (default: example = φ1–φ4)",
    )
    parser.add_argument(
        "--rules-file",
        help="load the rule set from a JSON rule file instead of the built-ins "
        "(see 'repro-detect rules export')",
    )


def _add_detection_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="path to a graph JSON file (see repro.graph.io)")
    _add_rules_arguments(parser)
    parser.add_argument(
        "--processors",
        type=int,
        default=1,
        help="simulated processors (>1 selects the parallel kernels)",
    )
    parser.add_argument(
        "--store",
        choices=sorted(STORE_REGISTRY),
        default=None,
        help=(
            "graph storage backend (default: $REPRO_GRAPH_STORE or "
            f"{default_store_name()!r}); 'dict' is the reference engine, "
            "'indexed' the label-indexed optimized one"
        ),
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--max-violations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N violations (early termination inside the kernel)",
    )
    parser.add_argument(
        "--max-cost",
        type=float,
        default=None,
        metavar="C",
        help="stop once the cost measure reaches C work units",
    )
    parser.add_argument(
        "--no-literal-pruning",
        action="store_true",
        help="disable literal-driven pruning of partial solutions",
    )
    parser.add_argument(
        "--execution",
        choices=("simulated", "processes"),
        default="simulated",
        help="parallel execution backend: 'simulated' = deterministic cluster "
        "simulator (cost = makespan), 'processes' = real OS worker processes "
        "over a sharded store (cost = aggregate work, wall-clock speedup); "
        "implies the parallel engine",
    )
    parser.add_argument(
        "--plans-file",
        default=None,
        metavar="PLANS.json",
        help="load pre-compiled match plans from this file instead of "
        "compiling (see 'repro-detect explain --save-plans')",
    )
    parser.add_argument(
        "--warm-pool",
        action="store_true",
        help="with --execution processes: keep worker processes alive "
        "between runs of this detector (the service reuses one pool "
        "across requests; here the flag mainly exercises the same path)",
    )
    parser.add_argument(
        "--no-adaptive",
        action="store_true",
        help="disable adaptive replanning from observed cardinalities "
        "(default: $REPRO_ADAPTIVE_REPLAN, on)",
    )
    parser.add_argument(
        "--save-history",
        default=None,
        metavar="HISTORY.json",
        help="persist the cardinalities observed during this run; feed "
        "them back with 'explain --observed' or embed via --save-plans",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="after the run, print the observability span tree (plan "
        "compile, per-rule work, per-step candidate counts, literal "
        "evaluations) to stderr; needs REPRO_OBS unset or 'on'",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="batch detection of Vio(Σ, G) over a whole graph"
    )
    _add_detection_arguments(run_parser)
    run_parser.add_argument(
        "--engine",
        choices=("auto", "batch", "parallel"),
        default="auto",
        help="execution engine (default: auto = batch unless --processors > 1)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    incremental_parser = subparsers.add_parser(
        "incremental", help="incremental detection of ΔVio(Σ, G, ΔG) against an update"
    )
    _add_detection_arguments(incremental_parser)
    incremental_parser.add_argument(
        "--update", required=True, help="path to a batch-update JSON file"
    )
    incremental_parser.set_defaults(handler=_cmd_incremental)

    explain_parser = subparsers.add_parser(
        "explain", help="print the compiled match plan of every rule against a graph"
    )
    explain_parser.add_argument("graph", help="path to a graph JSON file (see repro.graph.io)")
    _add_rules_arguments(explain_parser)
    explain_parser.add_argument(
        "--store",
        choices=sorted(STORE_REGISTRY),
        default=None,
        help="graph storage backend (default: process default)",
    )
    explain_parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    explain_parser.add_argument(
        "--save-plans",
        default=None,
        metavar="PLANS.json",
        help="persist the compiled plans to this file (loadable with "
        "run/incremental --plans-file; skips recompilation on restart)",
    )
    explain_parser.add_argument(
        "--observed",
        default=None,
        metavar="HISTORY.json",
        help="fold a persisted cardinality history (run/incremental "
        "--save-history) into compilation as priors; matching steps are "
        "marked '(observed prior)' and --save-plans embeds the history",
    )
    explain_parser.set_defaults(handler=_cmd_explain)

    rules_parser = subparsers.add_parser(
        "rules", help="list, export, or discover rule sets in the JSON rule-file format"
    )
    rules_parser.add_argument("action", choices=("list", "export", "discover"))
    rules_parser.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="graph JSON file to mine rules from ('discover' only)",
    )
    _add_rules_arguments(rules_parser)
    rules_parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="output format for 'list' (default: text)",
    )
    rules_parser.add_argument(
        "--output",
        "-o",
        default=None,
        help="write 'export'/'discover' output to this file instead of stdout",
    )
    rules_parser.add_argument(
        "--min-support", type=int, default=5, help="discovery: pattern support threshold (default: 5)"
    )
    rules_parser.add_argument(
        "--min-confidence",
        type=float,
        default=0.95,
        help="discovery: literal confidence threshold (default: 0.95)",
    )
    rules_parser.add_argument(
        "--max-rules", type=int, default=100, help="discovery: cap on mined rules (default: 100)"
    )
    rules_parser.add_argument(
        "--seed", type=int, default=0, help="discovery: miner RNG seed (default: 0)"
    )
    rules_parser.add_argument(
        "--store",
        choices=sorted(STORE_REGISTRY),
        default=None,
        help="graph storage backend for 'discover' (default: process default)",
    )
    rules_parser.set_defaults(handler=_cmd_rules)

    serve_parser = subparsers.add_parser(
        "serve", help="start the streaming detection server (repro.service)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8731, help="TCP port; 0 picks an ephemeral one (default: 8731)"
    )
    serve_parser.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="NAME=GRAPH.json",
        help="pre-register a graph under NAME (repeatable)",
    )
    serve_parser.add_argument(
        "--catalog",
        action="append",
        default=[],
        metavar="NAME=RULES.json",
        help="pre-register a rule catalog under NAME (repeatable); "
        "'example' and 'effectiveness' built-ins are always available",
    )
    serve_parser.add_argument(
        "--store",
        choices=sorted(STORE_REGISTRY),
        default=None,
        help="graph storage backend for registered/uploaded graphs",
    )
    serve_parser.add_argument(
        "--retain-versions",
        type=int,
        default=None,
        metavar="K",
        help="snapshot GC: keep the last K graph snapshots addressable and "
        "squash session deltas older than the window (default: unbounded)",
    )
    serve_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="bound the detection job pool at N concurrent streams; a "
        "saturated pool refuses new detect requests with HTTP 429 "
        "(default: 8)",
    )
    serve_parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable service state: recover from DIR on boot, write-ahead "
        "log every accepted mutation, checkpoint periodically (crash-safe "
        "kill -9 semantics; see docs/ARCHITECTURE.md)",
    )
    serve_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="with --data-dir: checkpoint after every N accepted updates "
        "(default: 64); checkpoints can also be forced via POST /admin/checkpoint",
    )
    serve_parser.add_argument(
        "--verbose",
        action="store_true",
        help="also emit the stdlib http.server per-request lines to stderr",
    )
    serve_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the structured access log (one "
        "'method= path= status= duration_ms= trace= job=' line per request "
        "on stderr, on by default)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    return parser


# ------------------------------------------------------------------ commands


def _load_rules(args: argparse.Namespace) -> RuleSet:
    if getattr(args, "rules_file", None):
        return RuleSet.load(args.rules_file)
    return example_rules() if args.rules == "example" else effectiveness_rules()


def _build_detector(args: argparse.Namespace, engine: str) -> Detector:
    options = DetectionOptions(
        use_literal_pruning=not args.no_literal_pruning,
        max_violations=args.max_violations,
        max_cost=args.max_cost,
        execution=getattr(args, "execution", "simulated"),
        adaptive=False if getattr(args, "no_adaptive", False) else None,
        warm_pool=getattr(args, "warm_pool", False),
    )
    return Detector(
        _load_rules(args),
        engine=engine,
        processors=args.processors,
        options=options,
        plans_file=getattr(args, "plans_file", None),
    )


def _save_history(detector: Detector, args: argparse.Namespace) -> None:
    path = getattr(args, "save_history", None)
    if not path:
        return
    if not detector.history:
        print("no cardinalities observed; history not written", file=sys.stderr)
        return
    detector.save_history(path)
    print(f"saved observed cardinalities -> {path}", file=sys.stderr)


def _print_profile(
    result: Union[DetectionResult, IncrementalDetectionResult], load_s: float
) -> None:
    """Print where the time went: start-up phases, span tree, per-step candidate counts."""
    from repro import obs
    from repro.obs.tracing import format_span_tree

    print(
        f"start-up: import_s={IMPORT_S:.3f} load_s={load_s:.3f} detect_s={result.wall_time:.3f}",
        file=sys.stderr,
    )
    trace_id = getattr(result, "trace_id", None)
    if trace_id is None:
        print(
            "repro-detect: no trace recorded (is REPRO_OBS off?)", file=sys.stderr
        )
        return
    print(f"profile (trace {trace_id}):", file=sys.stderr)
    print(format_span_tree(obs.traces(), trace_id), file=sys.stderr)
    snapshot = obs.snapshot()
    step_rows = sorted(
        (
            (dict(key), value)
            for name, key, value in snapshot["counters"]
            if name == "repro_match_candidates_examined" and value
        ),
        key=lambda row: (
            row[0].get("rule", ""),
            row[0].get("step", ""),
            row[0].get("strategy", ""),
        ),
    )
    if step_rows:
        print("per-step candidates examined:", file=sys.stderr)
        for labels, value in step_rows:
            print(
                "  rule={rule} step={step} strategy={strategy}: {count}".format(
                    rule=labels.get("rule", "?"),
                    step=labels.get("step", "?"),
                    strategy=labels.get("strategy", "?"),
                    count=int(value),
                ),
                file=sys.stderr,
            )
    evaluations = sum(
        value for name, _, value in snapshot["counters"] if name == "repro_literal_evals_total"
    )
    if evaluations:
        print(f"literal evaluations: {int(evaluations)}", file=sys.stderr)
    schedules = sum(
        value
        for name, _, value in snapshot["counters"]
        if name == "repro_compiled_schedules_total"
    )
    if schedules:
        print(f"compiled schedules built: {int(schedules)}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    load_started = time.perf_counter()
    graph = load_graph(args.graph, store=args.store)
    load_s = time.perf_counter() - load_started
    with _build_detector(args, engine=args.engine) as detector:
        result = detector.run(graph)
        _save_history(detector, args)
    print(format_result(result, args.output_format))
    if args.profile:
        _print_profile(result, load_s)
    if result.violation_count():
        return EXIT_VIOLATIONS
    # a truncated search that found nothing has not verified cleanliness
    return EXIT_INCOMPLETE if result.stopped_early else EXIT_CLEAN


def _cmd_incremental(args: argparse.Namespace) -> int:
    load_started = time.perf_counter()
    graph = load_graph(args.graph, store=args.store)
    delta = load_update(args.update)
    load_s = time.perf_counter() - load_started
    with _build_detector(args, engine="auto") as detector:
        result = detector.run_incremental(graph, delta)
        _save_history(detector, args)
    print(format_result(result, args.output_format))
    if args.profile:
        _print_profile(result, load_s)
    if result.total_changes():
        return EXIT_VIOLATIONS
    return EXIT_INCOMPLETE if result.stopped_early else EXIT_CLEAN


def _cmd_explain(args: argparse.Namespace) -> int:
    """Compile and print the match plan of every rule (cost-based order,
    per-variable strategy + estimated cardinality, literal schedule)."""
    from repro.matching.adaptive import CardinalityHistory
    from repro.matching.plan import compile_plans, format_plan, save_plans

    graph = load_graph(args.graph, store=args.store)
    rule_set = _load_rules(args)
    history = CardinalityHistory.load(args.observed) if args.observed else None
    plans = compile_plans(graph, rule_set, history=history)
    if args.save_plans:
        save_plans(plans, args.save_plans, history=history)
        print(f"saved {len(plans)} compiled plan(s) -> {args.save_plans}", file=sys.stderr)
    if args.output_format == "json":
        document = {
            "graph": args.graph,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "rules": rule_set.name,
            "plans": [plan.to_dict() for plan in plans],
        }
        print(json.dumps(document, indent=2, ensure_ascii=False))
    else:
        print(
            f"match plans for {rule_set.name} over {args.graph} "
            f"(|V|={graph.node_count()}, |E|={graph.edge_count()})"
        )
        for plan in plans:
            print(format_plan(plan))
    return EXIT_CLEAN


def _cmd_rules(args: argparse.Namespace) -> int:
    if args.action == "discover":
        return _cmd_rules_discover(args)
    if args.graph is not None:
        print("repro-detect: error: a graph argument is only valid with 'discover'", file=sys.stderr)
        return EXIT_USAGE
    rule_set = _load_rules(args)
    if args.action == "export":
        if args.output:
            rule_set.save(args.output)
        else:
            print(rule_set.to_json())
        return EXIT_CLEAN
    if args.output_format == "json":
        listing = [
            {
                "name": rule.name,
                "pattern": rule.pattern.name,
                "pattern_size": rule.pattern.size(),
                "diameter": rule.diameter(),
                "premise": str(rule.premise),
                "conclusion": str(rule.conclusion),
            }
            for rule in rule_set
        ]
        print(json.dumps({"name": rule_set.name, "rules": listing}, indent=2, ensure_ascii=False))
    else:
        print(f"{rule_set.name}: {len(rule_set)} rules, dΣ={rule_set.diameter()}")
        for rule in rule_set:
            print(f"  {rule}")
    return EXIT_CLEAN


def _cmd_rules_discover(args: argparse.Namespace) -> int:
    """Mine NGDs from a graph into the rule-file format (``RuleSet.save``)."""
    from repro.discovery import DiscoveryConfig, discover_ngds

    if args.graph is None:
        print("repro-detect: error: 'rules discover' needs a graph file", file=sys.stderr)
        return EXIT_USAGE
    graph = load_graph(args.graph, store=args.store)
    config = DiscoveryConfig(
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        max_rules=args.max_rules,
        seed=args.seed,
    )
    mined = discover_ngds(graph, config)
    if args.output:
        mined.save(args.output)
        print(
            f"discovered {len(mined)} rule(s) from {args.graph} "
            f"(dΣ={mined.diameter()}) -> {args.output}"
        )
    else:
        print(mined.to_json())
    return EXIT_CLEAN


def _parse_name_path_specs(specs: list[str], option: str) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for spec in specs:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            raise ReproError(f"{option} expects NAME=PATH, got {spec!r}")
        pairs.append((name, path))
    return pairs


def _cmd_serve(args: argparse.Namespace) -> int:
    """Start the detection service and block until interrupted."""
    service_import_started = time.perf_counter()
    from repro.service import DetectionService
    from repro.service.jobs import DEFAULT_MAX_JOBS

    if args.data_dir is not None:
        # with the other imports, so that recover_s times recovery alone
        import repro.storage.manager  # noqa: F401
    import_s = IMPORT_S + time.perf_counter() - service_import_started
    if args.checkpoint_every is not None and args.data_dir is None:
        raise ReproError("--checkpoint-every requires --data-dir")
    service = DetectionService(
        host=args.host,
        port=args.port,
        store=args.store,
        verbose=args.verbose,
        retain_versions=args.retain_versions,
        max_jobs=args.max_jobs if args.max_jobs is not None else DEFAULT_MAX_JOBS,
        data_dir=args.data_dir,
        checkpoint_every=args.checkpoint_every,
        access_log=not args.quiet,
    )
    if service.persistence is not None:
        recovered = service.persistence.recovered
        print(
            "repro-detect: recovered {graphs} graph(s), {sessions} session(s) "
            "from {checkpoint} + {replayed} WAL record(s)".format(
                graphs=recovered.get("graphs", 0),
                sessions=recovered.get("sessions", 0),
                checkpoint=recovered.get("checkpoint") or "empty checkpoint",
                replayed=recovered.get("replayed", 0),
            ),
            file=sys.stderr,
        )
    # a recovered data dir already holds its registrations: re-registering
    # the same names must not 409 the boot, so presence wins over the flags
    for name, path in _parse_name_path_specs(args.graph, "--graph"):
        if name not in service.registry:
            service.registry.register_file(name, path, store=args.store)
    for name, rules in (("example", example_rules()), ("effectiveness", effectiveness_rules())):
        if name not in service.manager.catalogs:
            service.manager.register_catalog(name, rules)
    for name, path in _parse_name_path_specs(args.catalog, "--catalog"):
        if name not in service.manager.catalogs:
            service.manager.register_catalog(name, RuleSet.load(path))
    with service:
        service.record_startup(import_s, ready_s=time.perf_counter() - _import_started)
        # the ready line is the contract scripts wait on (tests, CI smoke)
        print(f"repro-detect: serving on {service.url}", flush=True)
        print(
            f"repro-detect: {len(service.registry)} graph(s), "
            f"{len(service.manager.catalogs)} catalog(s); Ctrl-C to stop",
            file=sys.stderr,
        )
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("repro-detect: shutting down", file=sys.stderr)
    return EXIT_CLEAN


# --------------------------------------------------------------------- entry


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns a stable process exit code (see module docstring)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; surface the code
        # as a return value so embedding callers (and tests) never see exits.
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"repro-detect: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
