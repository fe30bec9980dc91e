"""Warm worker pools.

:class:`~repro.detect.parallel.WarmExecutorPool` keeps worker processes and
their loaded runtime alive across ``execution="processes"`` runs.  Warm runs
must match cold runs byte for byte, including across invalidation and
registry version bumps, and one-run spool directories must never outlive
their run.
"""

from __future__ import annotations

import glob
import os
import tempfile

import pytest

from repro.detect import DetectionOptions, Detector, WarmExecutorPool
from repro.errors import SessionError
from repro.graph.updates import UpdateGenerator


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


# ---------------------------------------------------------------- warm pool


class TestWarmPool:
    def test_warm_pool_requires_processes(self, kb_like):
        _graph, rules, _delta = kb_like
        with pytest.raises(SessionError):
            Detector(rules, options=DetectionOptions(warm_pool=True))

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

    def test_incremental_runs_reuse_the_warm_crew(self, kb_like):
        graph, rules, _delta = kb_like
        delta = UpdateGenerator(seed=2).generate(graph, 60, insert_ratio=0.5)
        cold = Detector(
            rules,
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run_incremental(graph, delta)
        assert len(cold.delta.removed) > 0
        with Detector(
            rules,
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes", warm_pool=True),
        ) as detector:
            results = [detector.run_incremental(graph, delta) for _ in range(2)]
            # the neighbourhood images are delta-specific: every run reloads
            # them, but on the same live crew
            stats = detector.executor_pool().stats()
            assert stats["misses"] == 2 and stats["hits"] == 0 and stats["fallbacks"] == 0
            assert stats["warm"]
        for result in results:
            assert result.delta.introduced.to_json() == cold.delta.introduced.to_json()
            assert result.delta.removed.to_json() == cold.delta.removed.to_json()

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
    def test_abandoned_run_removes_spool(self, kb_like, force_start_method):
        graph, rules, _delta = kb_like
        force_start_method("spawn")
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

    def test_completed_run_removes_spool(self, kb_like, force_start_method):
        graph, rules, _delta = kb_like
        force_start_method("spawn")
        before = _spool_dirs()
        Detector(
            rules,
            engine="auto",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run(graph)
        assert _spool_dirs() == before

    def test_warm_pool_shutdown_removes_spool(self, kb_like, force_start_method):
        graph, rules, _delta = kb_like
        force_start_method("spawn")
        before = _spool_dirs()
        pool = WarmExecutorPool(2)
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
