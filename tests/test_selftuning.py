"""Self-tuning execution: adaptive replanning, history priors, warm pools.

Three layers are covered:

* the :class:`~repro.matching.adaptive.AdaptiveController` unit semantics
  (minimum samples, drift detection, memoised suffix revision);
* end-to-end parity — adaptive on/off must produce byte-identical
  ``ViolationSet``\\ s across every store backend and execution mode, and
  the observe/replan loop must actually *save work* on the correlated-hub
  workload the static planner misjudges;
* the :class:`~repro.detect.parallel.WarmExecutorPool` — warm runs must
  match cold runs byte-for-byte, including across invalidation and
  registry version bumps, and one-run spool directories must never
  outlive their run.
"""

from __future__ import annotations

import glob
import os
import tempfile

import pytest

from repro.detect import DetectionOptions, Detector, WarmExecutorPool
from repro.errors import SessionError
from repro.experiments.runner import _correlated_hub_graph, _selftuning_rules
from repro.graph.updates import UpdateGenerator
from repro.matching.adaptive import (
    MIN_SAMPLES,
    AdaptiveController,
    CardinalityHistory,
    resolve_adaptive,
)
from repro.matching.plan import compile_plans, save_plans

from engines import new_store

BACKENDS = ("dict", "indexed", "csr")


@pytest.fixture(scope="module")
def hub_graph():
    return _correlated_hub_graph(roots=60, wide=12, narrow=3, survivor_stride=53)


@pytest.fixture(scope="module")
def hub_rules():
    return _selftuning_rules()


def _run(graph, rules, *, adaptive, backend=None, engine="batch", processors=None, **options):
    if backend is not None:
        graph = graph.with_backend(new_store(backend))
    detector = Detector(
        rules,
        engine=engine,
        processors=processors,
        options=DetectionOptions(adaptive=adaptive, **options),
    )
    return detector.run(graph), detector


# --------------------------------------------------------------- controller


class TestAdaptiveController:
    def _plan_and_wide_step(self, hub_graph, hub_rules):
        plan = compile_plans(hub_graph, hub_rules)[0]
        # the premise-dead wide step ('z' over label 'b') sits after the
        # narrow 'y' step in the statistics-compiled order
        steps = {step.variable: step for step in plan.steps}
        return plan, steps["z"]

    def test_no_drift_below_min_samples(self, hub_graph, hub_rules):
        plan, wide = self._plan_and_wide_step(hub_graph, hub_rules)
        controller = AdaptiveController(plan)
        for _ in range(MIN_SAMPLES - 1):
            controller.observe(wide, 0)
        assert controller.order_for(plan.order, 0) == plan.order

    def test_drift_revises_suffix(self, hub_graph, hub_rules):
        plan, wide = self._plan_and_wide_step(hub_graph, hub_rules)
        controller = AdaptiveController(plan)
        for _ in range(MIN_SAMPLES):
            controller.observe(wide, 0)
        revised = controller.order_for(plan.order, 1)
        assert revised != plan.order, "drifted wide step should move forward"
        assert revised[:1] == plan.order[:1], "bound prefix must be preserved"
        assert sorted(revised) == sorted(plan.order)
        assert controller.replans == 1
        # memoised: asking again neither recomputes nor double-counts
        assert controller.order_for(plan.order, 1) == revised
        assert controller.replans == 1

    def test_observations_matching_estimates_never_drift(self, hub_graph, hub_rules):
        plan, wide = self._plan_and_wide_step(hub_graph, hub_rules)
        controller = AdaptiveController(plan)
        for _ in range(MIN_SAMPLES * 2):
            controller.observe(wide, int(wide.estimated_candidates) or 1)
        assert controller.order_for(plan.order, 1) == plan.order
        assert controller.replans == 0

    def test_threshold_env(self, hub_graph, hub_rules, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTIVE_DRIFT", "1000000")
        plan, wide = self._plan_and_wide_step(hub_graph, hub_rules)
        controller = AdaptiveController(plan)
        for _ in range(MIN_SAMPLES):
            controller.observe(wide, 0)
        assert controller.order_for(plan.order, 1) == plan.order

    def test_resolve_adaptive_modes(self, hub_graph, hub_rules, monkeypatch):
        plans = compile_plans(hub_graph, hub_rules)
        assert resolve_adaptive(plans, False) is None
        controllers = resolve_adaptive(plans, True)
        assert controllers is not None and len(controllers) == len(plans)
        assert resolve_adaptive(plans, controllers) is controllers
        monkeypatch.setenv("REPRO_ADAPTIVE_REPLAN", "off")
        assert resolve_adaptive(plans, None) is None
        assert resolve_adaptive((), True) is None


# ------------------------------------------------------------------ parity


class TestAdaptiveParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine,processors", [("batch", None), ("parallel", 4)])
    def test_batch_sets_byte_identical(self, hub_graph, hub_rules, backend, engine, processors):
        static, _ = _run(
            hub_graph, hub_rules, adaptive=False, backend=backend,
            engine=engine, processors=processors,
        )
        adaptive, _ = _run(
            hub_graph, hub_rules, adaptive=True, backend=backend,
            engine=engine, processors=processors,
        )
        assert static.violations.to_json() == adaptive.violations.to_json()
        assert len(static.violations) > 0

    def test_adaptive_saves_work_on_misjudged_workload(self, hub_graph, hub_rules):
        static, _ = _run(hub_graph, hub_rules, adaptive=False)
        adaptive, _ = _run(hub_graph, hub_rules, adaptive=True)
        assert (
            adaptive.stats.total_operations() < static.stats.total_operations()
        ), "the observe/replan loop should cut work on the correlated-hub workload"

    @pytest.mark.parametrize("backend", ("dict", "indexed"))
    @pytest.mark.parametrize("engine,processors", [("incremental", None), ("parallel", 4)])
    def test_incremental_deltas_byte_identical(self, kb_like, backend, engine, processors):
        graph, rules, delta = kb_like
        graph = graph.with_backend(new_store(backend))
        results = {}
        for adaptive in (False, True):
            detector = Detector(
                rules,
                engine=engine,
                processors=processors,
                options=DetectionOptions(adaptive=adaptive),
            )
            results[adaptive] = detector.run_incremental(graph, delta).delta
        assert results[False].introduced.to_json() == results[True].introduced.to_json()
        assert results[False].removed.to_json() == results[True].removed.to_json()


@pytest.fixture(scope="module")
def kb_like():
    from repro.datasets.kb import KBConfig, knowledge_graph
    from repro.datasets.rules import benchmark_rules

    graph = knowledge_graph(
        KBConfig(
            name="kb-selftuning-tests",
            num_entities=120,
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
    )
    rules = benchmark_rules(graph, count=10, max_diameter=4, seed=2)
    delta = UpdateGenerator(seed=21).generate(graph, 60, insert_ratio=0.5)
    return graph, rules, delta


# ------------------------------------------------------------------ history


class TestCardinalityHistory:
    def test_run_harvests_and_round_trips(self, hub_graph, hub_rules, tmp_path):
        _result, detector = _run(hub_graph, hub_rules, adaptive=True)
        assert detector.history, "an adaptive run should harvest observations"
        path = tmp_path / "history.json"
        detector.save_history(path)
        loaded = CardinalityHistory.load(path)
        assert loaded
        from repro.matching.plan import GraphStatistics

        stats = GraphStatistics.from_graph(hub_graph)
        priors = loaded.priors_for(hub_rules.rules()[0].name, stats)
        assert priors, "persisted observations should resolve as priors"

    def test_history_informed_compile_moves_dead_step_first(self, hub_graph, hub_rules):
        _result, detector = _run(hub_graph, hub_rules, adaptive=True)
        cold = compile_plans(hub_graph, hub_rules)[0]
        informed = compile_plans(hub_graph, hub_rules, history=detector.history)[0]
        assert informed.order != cold.order, (
            "the observed near-empty wide step should reorder the next compile"
        )
        # priors are a cost-model input only: matches must be unaffected
        static, _ = _run(hub_graph, hub_rules, adaptive=False)
        informed_result = Detector(hub_rules, engine="batch").run(hub_graph, plans=(informed,))
        assert informed_result.violations.to_json() == static.violations.to_json()

    def test_plans_file_embeds_history(self, hub_graph, hub_rules, tmp_path):
        _result, detector = _run(hub_graph, hub_rules, adaptive=True)
        path = tmp_path / "plans.json"
        plans = compile_plans(hub_graph, hub_rules, history=detector.history)
        save_plans(plans, path, history=detector.history)
        revived = Detector(hub_rules, plans_file=str(path))
        revived.compile_plans(hub_graph)  # adoption happens on first plan fetch
        assert revived.history, "a plans file with embedded history should seed the session"


# ---------------------------------------------------------------- warm pool


class TestWarmPool:
    def test_warm_pool_requires_processes(self, hub_rules):
        with pytest.raises(SessionError):
            Detector(hub_rules, options=DetectionOptions(warm_pool=True))

    def test_warm_matches_cold_and_reuses_crew(self, kb_like):
        graph, rules, _delta = kb_like
        cold = Detector(
            rules,
            engine="auto",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run(graph)
        with Detector(
            rules,
            engine="auto",
            processors=2,
            options=DetectionOptions(execution="processes", warm_pool=True),
        ) as detector:
            first = detector.run(graph)
            second = detector.run(graph)
            stats = detector.executor_pool().stats()
            assert stats["misses"] == 1 and stats["hits"] == 1 and stats["warm"]
            # invalidation forces a reload but never changes the answer
            detector.executor_pool().invalidate()
            third = detector.run(graph)
            assert detector.executor_pool().stats()["misses"] == 2
        for result in (first, second, third):
            assert result.violations.to_json() == cold.violations.to_json()
        assert detector.executor_pool().stats()["warm"] is False

    def test_service_pool_survives_version_bump(self, kb_like):
        from repro.service.jobs import SessionManager
        from repro.service.protocol import DetectRequest
        from repro.service.registry import GraphRegistry

        graph, rules, delta = kb_like
        registry = GraphRegistry()
        registry.register("kb", graph)
        manager = SessionManager(registry, catalogs={"cat": rules})
        request = DetectRequest(catalog="cat", engine="auto", processors=2, execution="processes")
        try:
            def violations(records):
                return sorted(
                    (
                        {k: v for k, v in r.items() if k not in ("type", "introduced")}
                        for r in records
                        if r.get("type") == "violation"
                    ),
                    key=str,
                )

            first = violations(manager.stream_detection("kb", request))
            second = violations(manager.stream_detection("kb", request))
            assert first == second
            pool = manager.executor_pool(2)
            assert pool.stats()["hits"] >= 1

            registry.apply_update("kb", delta)
            after, _version = registry.get("kb").snapshot()
            cold = Detector(
                rules,
                engine="auto",
                processors=2,
                options=DetectionOptions(execution="processes"),
            ).run(after)
            bumped = violations(manager.stream_detection("kb", request))
            assert bumped == sorted(
                (v.to_dict() for v in cold.violations), key=str
            ), "post-bump warm job must match a cold run over the new snapshot"
        finally:
            manager.shutdown()
        assert manager.executor_pool(2).stats()["warm"] is False


# ------------------------------------------------------------ spool hygiene


def _spool_dirs() -> set[str]:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-exec-*")))


class TestSpoolCleanup:
    def test_abandoned_run_removes_spool(self, kb_like, monkeypatch):
        graph, rules, _delta = kb_like
        monkeypatch.setenv("REPRO_EXECUTION_START_METHOD", "spawn")
        before = _spool_dirs()
        detector = Detector(
            rules,
            engine="auto",
            processors=2,
            options=DetectionOptions(execution="processes"),
        )
        stream = detector.stream(graph)
        next(stream)  # workers are up, the spool exists
        stream.close()  # consumer walks away mid-run
        assert _spool_dirs() == before, "abandoning a run must not leak its spool"

    def test_completed_run_removes_spool(self, kb_like, monkeypatch):
        graph, rules, _delta = kb_like
        monkeypatch.setenv("REPRO_EXECUTION_START_METHOD", "spawn")
        before = _spool_dirs()
        Detector(
            rules,
            engine="auto",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run(graph)
        assert _spool_dirs() == before

    def test_warm_pool_shutdown_removes_spool(self, kb_like, monkeypatch):
        graph, rules, _delta = kb_like
        monkeypatch.setenv("REPRO_EXECUTION_START_METHOD", "spawn")
        before = _spool_dirs()
        pool = WarmExecutorPool(2, start_method="spawn")
        try:
            with Detector(
                rules,
                engine="auto",
                processors=2,
                executor_pool=pool,
                options=DetectionOptions(execution="processes"),
            ) as detector:
                detector.run(graph)
            assert _spool_dirs() != before or pool.stats()["warm"], (
                "a live warm pool keeps its runtime spool"
            )
        finally:
            pool.shutdown()
        assert _spool_dirs() == before, "shutdown must drop the pool's spool"
