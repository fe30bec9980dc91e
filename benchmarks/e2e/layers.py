"""The traced run: per-layer metrics, measured from outside the library.

Nothing under ``src/`` is instrumented.  Each probe calls one layer's public
function with the same inputs the end-to-end stages use, inside a span
(name, start, end, parent, workload) kept in memory and handed back with the
result.  A layer's time is the median of its spans; counts come from the
result objects and repeat exactly from run to run.

Every probe imports what it needs itself.  When a later change removes an
internal module or function, the import fails, that probe's metrics are left
out and a ``skipped`` note says why; the rest of the traced run is
unaffected.  Any other exception is a bug in the probe or a changed API and
ends the run: a layer is never reported as a number it did not measure.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import stages

#: a cold ``processes`` run this much slower than the fastest one sat in a protocol wait
STALL_SECONDS = 0.5
PROFILE_GROUPS = (
    ("detect/parallel/workunits", "detect.parallel.workunits"),
    ("matching/plan", "matching.plan"),
    ("matching/compiled", "matching.compiled"),
    ("matching/adaptive", "matching.adaptive"),
    ("graph/store", "graph.store"),
    ("graph/graph", "graph.graph"),
    ("detect/dect", "detect.dect"),
    ("repro/obs/", "obs"),
    ("repro/expr/", "expr"),
    ("core/violations", "core.violations"),
)


class Skipped(Exception):
    """A probe cannot run on this tree for a reason it names; its metrics are left out."""


class Tracer:
    """In-memory spans ``[name, start, end, parent index]``; the ``--out`` row names their workload."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))


class Context:
    """What every probe shares: the inputs, the tracer, and the metrics so far."""

    def __init__(self, prepared: stages.Prepared, plan: stages.Plan, outcome: stages.Outcome) -> None:
        from repro.core.ngd import RuleSet
        from repro.graph.io import load_graph

        self.prepared, self.plan, self.outcome = prepared, plan, outcome
        #: spans per probe that starts processes, and per probe that stays in this one
        self.spawns, self.reps = plan.restarts, 3 * plan.restarts
        self.tracer = Tracer()
        self.metrics: dict[str, float] = {}
        with self.tracer.span("graph.io.load"):
            self.graph = load_graph(prepared.graph_file)
        text = prepared.rules_file.read_text(encoding="utf-8")
        with self.tracer.span("expr.parse_rules"):
            self.rules = RuleSet.from_json(text)
        self.batches = prepared.batches()
        self.violations = None  # Vio(Σ, G₀), set by probe_detect

    def absorb(self, part: stages.Outcome) -> None:
        """Fold a stage's op tally and notes into the run's."""
        self.outcome.attempted += part.attempted
        self.outcome.failed += part.failed
        self.outcome.notes += part.notes


def probe_load(ctx: Context) -> None:
    from repro.core.ngd import RuleSet
    from repro.graph.io import load_graph

    text = ctx.prepared.rules_file.read_text(encoding="utf-8")
    for _ in range(ctx.reps - 1):  # the Context made the first of each
        with ctx.tracer.span("graph.io.load"):
            load_graph(ctx.prepared.graph_file)
        with ctx.tracer.span("expr.parse_rules"):
            RuleSet.from_json(text)
    ctx.metrics["graph.io.load_s"] = ctx.tracer.median("graph.io.load")
    ctx.metrics["graph.io.load_bytes"] = ctx.prepared.graph_file.stat().st_size
    ctx.metrics["expr.parse_rules_s"] = ctx.tracer.median("expr.parse_rules")


def probe_freeze(ctx: Context) -> None:
    engine = stages.frozen_engine()
    if engine is None:
        raise Skipped("no read-only engine in STORE_REGISTRY")
    some_node = next(iter(ctx.graph.node_ids()))
    for _ in range(ctx.reps):
        with ctx.tracer.span("graph.store.freeze"):
            frozen = ctx.graph.with_backend(engine)
            frozen.neighbours(some_node)  # the first adjacency read builds the layout
    ctx.metrics["graph.store.freeze_s"] = ctx.tracer.median("graph.store.freeze")


def probe_detect(ctx: Context) -> None:
    """The whole operation the next probes take apart, and the counts behind it."""
    from repro.detect import Detector

    for _ in range(ctx.reps):
        with ctx.tracer.span("detect.session.run"):
            result = Detector(ctx.rules, engine="batch").run(ctx.graph)
    ctx.outcome.record(
        "traced.detect_s",
        ctx.tracer.median("detect.session.run"),
        stages.digest_of(result.violations) == ctx.prepared.expected[0],
    )
    stats = result.stats
    ctx.metrics.update({
        "detect_raw_s": ctx.tracer.median("detect.session.run"),
        "matching.candidates_examined": stats.candidates_examined,
        "matching.expansions": stats.expansions,
        "matching.edge_checks": stats.edge_checks,
        "matching.literal_evaluations": stats.literal_evaluations,
        "matching.matches_emitted": stats.matches_emitted,
        "matching.match_yield": stats.matches_emitted / max(stats.expansions, 1),
        "detect.cost": result.cost,
        "detect.violations": len(result.violations),
    })
    ctx.violations = result.violations


def probe_plan(ctx: Context) -> None:
    """Statistics pass and plan compilation."""
    from repro.matching.plan import GraphStatistics, compile_plans

    for _ in range(ctx.reps):
        with ctx.tracer.span("matching.plan.statistics"):
            GraphStatistics.from_graph(ctx.graph)
        with ctx.tracer.span("matching.plan.compile_plans"):
            plans = compile_plans(ctx.graph, ctx.rules)
    statistics_s = ctx.tracer.median("matching.plan.statistics")
    ctx.metrics.update({
        "matching.plan.statistics_s": statistics_s,
        "matching.plan.compile_s": ctx.tracer.median("matching.plan.compile_plans") - statistics_s,
        "matching.plan.schedules": sum(len(plan.steps) for plan in plans),
    })


def probe_search(ctx: Context) -> None:
    """The batch kernel on plans handed to it, and what the session adds around it."""
    from repro.detect import Detector
    from repro.detect.dect import iter_dect
    from repro.detect.observers import drain
    from repro.matching.plan import compile_plans

    for _ in range(ctx.reps):
        # whole and in parts, in turns: each pair sees the same machine
        with ctx.tracer.span("paired.detect.session.run"):
            Detector(ctx.rules, engine="batch").run(ctx.graph)
        with ctx.tracer.span("traced.detect"):
            plans = compile_plans(ctx.graph, ctx.rules)
            with ctx.tracer.span("detect.dect.search"):
                drain(iter_dect(ctx.graph, ctx.rules, plans=plans))
    whole, parts = ctx.tracer.durations("paired.detect.session.run"), ctx.tracer.durations("traced.detect")
    ctx.metrics.update({
        "detect.dect.search_s": ctx.tracer.median("detect.dect.search"),
        "detect.session.overhead_s": statistics.median(run - traced for run, traced in zip(whole, parts)),
        # the same operation, timed whole and timed as its traced parts
        "trace.overhead_ratio": statistics.median(traced / run for run, traced in zip(whole, parts)),
    })


def probe_seed_scan(ctx: Context) -> None:
    from repro.matching.candidates import MatchStatistics
    from repro.matching.compiled import resolve_compiled
    from repro.matching.plan import compile_plans, first_step_candidates

    plans = compile_plans(ctx.graph, ctx.rules)
    for _ in range(ctx.reps):
        with ctx.tracer.span("matching.plan.seed_scan"):
            for rule, plan in zip(ctx.rules, plans):
                first_step_candidates(ctx.graph, rule, plan, plan.order, True, MatchStatistics(), resolve_compiled(None))
    ctx.metrics["matching.plan.seed_scan_s"] = ctx.tracer.median("matching.plan.seed_scan")


def probe_profile(ctx: Context) -> None:
    """One cProfile pass of ``Detector.run``; self time grouped by module."""
    from repro.detect import Detector

    profile = cProfile.Profile()
    profile.runcall(Detector(ctx.rules, engine="batch").run, ctx.graph)
    totals = dict.fromkeys([name for _, name in PROFILE_GROUPS] + ["other"], 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        path = filename.replace(os.sep, "/")
        group = next((name for fragment, name in PROFILE_GROUPS if fragment in path), "other")
        totals[group] += tottime
    whole = sum(totals.values())
    for name, seconds in totals.items():
        ctx.metrics[f"prof.{name}.self_share"] = seconds / whole


def probe_serialize(ctx: Context) -> None:
    from repro.service.protocol import encode_record, violation_record

    for _ in range(ctx.reps):
        with ctx.tracer.span("core.violations.serialize"):
            ctx.violations.to_json()
        with ctx.tracer.span("service.protocol.encode"):
            for violation in ctx.violations:
                encode_record(violation_record(violation))
    ctx.metrics["core.violations.serialize_s"] = ctx.tracer.median("core.violations.serialize")
    ctx.metrics["service.protocol.encode_s"] = ctx.tracer.median("service.protocol.encode")


def probe_incremental(ctx: Context) -> None:
    """Decompose every ΔG op: parse, apply, neighbourhood BFS, pivots, IncDect."""
    from repro.detect.incdect import iter_inc_dect
    from repro.detect.observers import drain
    from repro.graph.io import update_from_list
    from repro.graph.neighborhood import multi_source_nodes_within_hops
    from repro.graph.updates import apply_update
    from repro.matching.incmatch import find_update_pivots
    from repro.matching.plan import compile_plans

    tracer, graph, rules = ctx.tracer, ctx.graph, ctx.rules
    plans = compile_plans(graph, rules)
    hops = max(rules.diameter(), 1)
    violations = ctx.violations
    neighbourhoods, costs, changes = [], [], []
    for index, entries in enumerate(ctx.batches, start=1):
        with tracer.span("traced.inc_update"):
            with tracer.span("graph.io.update_parse"):
                delta = update_from_list(entries)
            with tracer.span("graph.updates.apply"):
                after = apply_update(graph, delta)
            with tracer.span("detect.incdect.search"):
                result = drain(iter_inc_dect(graph, rules, delta, graph_after=after, plans=plans))
        with tracer.span("graph.neighborhood.bfs"):
            multi_source_nodes_within_hops(after, delta.touched_nodes(), hops)
        with tracer.span("matching.incmatch.pivots"):
            for rule in rules:
                find_update_pivots(rule, delta, graph, after)
        graph = after
        violations = violations.apply_delta(result.delta)
        ok = index not in ctx.prepared.expected or stages.digest_of(violations) == ctx.prepared.expected[index]
        ctx.outcome.record("traced.inc_update_ms", tracer.durations("traced.inc_update")[-1] * 1000.0, ok)
        neighbourhoods.append(result.neighborhood_size or 0)
        costs.append(result.cost)
        changes.append(result.delta.total_changes())
    ctx.metrics.update({
        "graph.io.update_parse_s": tracer.median("graph.io.update_parse"),
        "graph.updates.apply_s": tracer.median("graph.updates.apply"),
        "graph.neighborhood.bfs_s": tracer.median("graph.neighborhood.bfs"),
        "matching.incmatch.pivots_s": tracer.median("matching.incmatch.pivots"),
        "detect.incdect.search_s": tracer.median("detect.incdect.search"),
        "detect.incdect.neighborhood_nodes": statistics.median(neighbourhoods),
        "detect.incdect.cost": statistics.median(costs),
        "detect.incdect.changes": statistics.median(changes),
    })


def probe_registry(ctx: Context) -> None:
    """The service's update path without HTTP or the WAL: registry + session listener."""
    from repro.detect import Detector
    from repro.graph.io import update_from_list
    from repro.service import GraphRegistry, SessionManager
    from repro.service.protocol import parse_detect_request

    registry = GraphRegistry()
    manager = SessionManager(registry, catalogs={stages.CATALOG: ctx.rules})
    try:
        registry.register(stages.GRAPH_NAME, ctx.graph)
        manager.create_session(stages.GRAPH_NAME, parse_detect_request({"catalog": stages.CATALOG}))
        for entries in ctx.batches:
            delta = update_from_list(entries)
            with ctx.tracer.span("service.registry.apply"):
                registry.apply_update(stages.GRAPH_NAME, delta)
        final = registry.get(stages.GRAPH_NAME).graph
        for _ in range(ctx.reps):
            with ctx.tracer.span("detect.session.stream"):
                for _violation in Detector(ctx.rules, engine="batch").stream(final):
                    pass
    finally:
        manager.shutdown()
    ctx.metrics["service.registry.apply_s"] = ctx.tracer.median("service.registry.apply")
    ctx.metrics["detect.session.stream_s"] = ctx.tracer.median("detect.session.stream")


def probe_streams(ctx: Context) -> None:
    """The two update streams end to end, as the untraced run takes them, for their tails.

    The service stream is the untraced one with ``plan.restarts`` timed
    ``kill -9`` + restart cycles in place of one.
    """
    part = stages.Outcome()
    try:
        ready = stages.setup_stage(ctx.prepared, 1, part)
        stages.service_stage(ready, ctx.prepared, ctx.plan, ctx.plan.restarts, part)
        started = time.perf_counter()
        stages.incremental_stage(ready, ctx.prepared, part)
        stream_s = time.perf_counter() - started
    finally:
        ctx.absorb(part)
    inc, svc = part.samples["inc_update_ms"], part.samples["svc_update_ms"]
    ctx.metrics.update({
        "inc_update_raw_p50_ms": statistics.median(inc),
        "svc_update_raw_p50_ms": statistics.median(svc),
        "inc_update_p90_ms": statistics.quantiles(inc, n=10)[8],
        "inc_updates_per_s": len(inc) / stream_s,
        "svc_update_p90_ms": statistics.quantiles(svc, n=10)[8],
        "svc_detect_s": statistics.median(part.samples["svc_detect_s"]),
        "svc_first_violation_ms": statistics.median(part.samples["svc_first_violation_ms"]),
        "recover_s": statistics.median(part.samples["recover_s"]),
        "service.requests_failed": part.failed,
        "storage.recover.replayed_records": statistics.median(part.samples["recover_replayed"]),
    })


def probe_wal(ctx: Context) -> None:
    """Append the stream's update records to a write-ahead log of their own."""
    from repro.storage.wal import WriteAheadLog

    path = ctx.prepared.directory / "probe.wal"
    fsyncs = 0
    real_fsync = os.fsync

    def counting_fsync(descriptor):
        nonlocal fsyncs
        fsyncs += 1
        real_fsync(descriptor)

    os.fsync = counting_fsync  # the log flushes through os.fsync; counting there needs no hook inside it
    try:
        with WriteAheadLog(path) as log:
            for version, entries in enumerate(ctx.batches, start=1):
                record = {"type": "update", "graph": stages.GRAPH_NAME, "version": version, "delta": entries}
                with ctx.tracer.span("storage.wal.append"):
                    log.append_many([record])
    finally:
        os.fsync = real_fsync
    ctx.metrics["storage.wal.append_s"] = ctx.tracer.median("storage.wal.append")
    ctx.metrics["storage.wal.bytes_per_update"] = path.stat().st_size / len(ctx.batches)
    ctx.metrics["storage.wal.fsyncs"] = fsyncs


def probe_checkpoint(ctx: Context) -> None:
    from repro.service import GraphRegistry, SessionManager
    from repro.service.protocol import parse_detect_request
    from repro.storage.manager import PersistenceManager

    data_dir = ctx.prepared.directory / "probe-data"
    registry = GraphRegistry()
    manager = SessionManager(registry)
    persistence = PersistenceManager(data_dir, registry, manager, checkpoint_every=None)
    try:
        persistence.recover()
        registry.register(stages.GRAPH_NAME, ctx.graph)
        manager.register_catalog(stages.CATALOG, ctx.rules)
        manager.create_session(stages.GRAPH_NAME, parse_detect_request({"catalog": stages.CATALOG}))
        for _ in range(ctx.spawns):
            with ctx.tracer.span("storage.checkpoint"):
                persistence.checkpoint()
    finally:
        persistence.close()
        manager.shutdown()
    ctx.metrics["storage.checkpoint_s"] = ctx.tracer.median("storage.checkpoint")
    ctx.metrics["storage.checkpoint_bytes"] = sum(
        path.stat().st_size for path in Path(data_dir, "checkpoints").rglob("*") if path.is_file()
    )


def probe_processes(ctx: Context) -> None:
    """What starting processes costs: cold worker pools (full crew, one worker, a graph too
    small to matter) and the CLI."""
    from repro.core import example_rules
    from repro.datasets.figure1 import figure1_g2
    from repro.detect import DetectionOptions, Detector

    options = DetectionOptions(execution="processes")
    tiny, tiny_rules = figure1_g2(), example_rules()
    for _ in range(ctx.spawns):
        with ctx.tracer.span("detect.parallel.executor.startup"):
            Detector(tiny_rules, engine="parallel", processors=stages.processors(), options=options).run(tiny)
    crew, single, cli = stages.Outcome(), stages.Outcome(), stages.Outcome()
    stages.parallel_stage(ctx.prepared, 2 * ctx.spawns + 1, crew)
    stages.parallel_stage(ctx.prepared, ctx.spawns, single, workers=1)
    stages.cli_stage(ctx.prepared, ctx.spawns, cli)
    for part in (crew, single, cli):
        ctx.absorb(part)
    runs = crew.samples["detect_par_s"]
    ctx.metrics.update({
        "detect.parallel.executor.startup_s": ctx.tracer.median("detect.parallel.executor.startup"),
        "detect.parallel.executor.one_worker_ratio": (
            min(single.samples["detect_par_s"]) / ctx.tracer.median("detect.session.run")
        ),
        "detect.parallel.executor.stall_share": sum(run > min(runs) + STALL_SECONDS for run in runs) / len(runs),
        "detect_par_s": statistics.median(runs),
        "cli_run_s": statistics.median(cli.samples["cli_run_s"]),
    })


PROBES = (
    probe_load, probe_freeze, probe_detect, probe_plan, probe_search, probe_seed_scan, probe_profile,
    probe_serialize, probe_incremental, probe_registry, probe_streams, probe_wal, probe_checkpoint,
    probe_processes,
)


def differences(metrics: dict) -> dict:
    """Return the metrics that are one measured time minus another, where both were measured."""
    pairs = {
        "detect.dect.expand_s": ("detect.dect.search_s", "matching.plan.seed_scan_s", 1.0),
        # what HTTP, JSON and the WAL add to the same work done in process
        "service.http.update_overhead_ms": ("svc_update_raw_p50_ms", "service.registry.apply_s", 1000.0),
        "service.http.detect_overhead_s": ("svc_detect_s", "detect.session.stream_s", 1.0),
    }
    return {
        name: metrics[whole] - metrics[part] * scale
        for name, (whole, part, scale) in pairs.items()
        if whole in metrics and part in metrics
    }


def traced_run(prepared: stages.Prepared, plan: stages.Plan, outcome: stages.Outcome) -> dict:
    """Run every probe; return ``metric -> {"value"}`` plus the spans under ``"trace.spans"``."""
    ctx = Context(prepared, plan, outcome)
    for probe in PROBES:
        try:
            probe(ctx)
        except (ImportError, Skipped) as exc:
            outcome.notes.append(f"skipped {probe.__name__}: {type(exc).__name__}: {exc}")
    ctx.metrics.update(differences(ctx.metrics))
    metrics = {name: {"value": float(value)} for name, value in ctx.metrics.items()}
    metrics["trace.spans"] = {"value": float(len(ctx.tracer.spans)), "spans": ctx.tracer.spans}
    return metrics
