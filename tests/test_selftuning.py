"""Spool hygiene of ``execution="processes"`` runs.

A spawned crew reads its graph images from a spool directory the run
writes; that directory must never outlive its run, however the run ends.
"""

from __future__ import annotations

import glob
import os
import tempfile

import pytest

from repro.detect import DetectionOptions, Detector


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
    return graph, rules


# ------------------------------------------------------------ spool hygiene


def _spool_dirs() -> set[str]:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-exec-*")))


class TestSpoolCleanup:
    def test_abandoned_run_removes_spool(self, kb_like, force_start_method):
        graph, rules = kb_like
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
        graph, rules = kb_like
        force_start_method("spawn")
        before = _spool_dirs()
        Detector(
            rules,
            engine="auto",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run(graph)
        assert _spool_dirs() == before

    def test_completed_incremental_run_removes_spool(self, kb_like, force_start_method):
        # PIncDect spools two images, G and G ⊕ ΔG; neither outlives the run
        from repro.graph.updates import UpdateGenerator

        graph, rules = kb_like
        delta = UpdateGenerator(seed=21).generate(graph, 40, insert_ratio=0.5)
        force_start_method("spawn")
        before = _spool_dirs()
        Detector(
            rules,
            engine="auto",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run_incremental(graph, delta)
        assert _spool_dirs() == before
