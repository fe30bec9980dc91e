"""Tests for the read-only graph images the process backend ships to workers.

The image contract the executor relies on: a spooled image round-trips
through the graph/io JSON format onto the sealed ``frozen`` engine, is
loaded at most once per process, and an :class:`ExecutionRuntime`
unpickled with its images spooled reads the same images its parent holds.  Process
PDect places the simulator's seed list, one unit per first-step candidate;
PIncDect seeds each pivot by the simulator's ownership hash.  PIncDect
replicates ``N_C(ΔG)`` only when every pattern is connected; a rule set
with a disconnected pattern ships the full graphs and still finds the same
ΔVio.
"""

from __future__ import annotations

import pickle
import zlib

import pytest

from repro.core.builtin_rules import example_rules
from repro.core.ngd import NGD, RuleSet
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import DetectionOptions, Detector
from repro.detect.parallel.executor import (
    ExecutionRuntime,
    load_spooled,
    spool_image,
)
from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import UpdateGenerator, apply_update
from repro.matching.plan import compile_plans


@pytest.fixture(scope="module")
def kb():
    config = KBConfig(
        name="kb-images",
        num_entities=80,
        num_entity_types=4,
        num_value_relations=3,
        num_link_relations=3,
        values_per_entity=2,
        links_per_entity=2.0,
        error_rate=0.05,
        seed=13,
    )
    return knowledge_graph(config)


def _same_content(left, right) -> bool:
    return (
        set(map(str, left.node_ids())) == set(map(str, right.node_ids()))
        and sorted(str(edge.key()) for edge in left.edges()) == sorted(str(edge.key()) for edge in right.edges())
    )


class TestSpool:
    def test_spool_and_load_round_trip(self, kb, tmp_path):
        path = spool_image(kb, tmp_path / "image.json")
        loaded = load_spooled(path)
        assert _same_content(loaded, kb)
        assert loaded.node_count() == kb.node_count()

    def test_loaded_images_are_frozen_read_only(self, kb, tmp_path):
        path = spool_image(kb, tmp_path / "image.json")
        image = load_spooled(path)
        assert image.store_backend == "frozen"
        with pytest.raises(GraphError):
            image.add_node("new", "label")

    def test_spooling_leaves_only_the_image(self, kb, tmp_path):
        spool_image(kb, tmp_path / "image.json")
        assert [entry.name for entry in tmp_path.iterdir()] == ["image.json"]

    def test_empty_graph_round_trips(self, tmp_path):
        path = spool_image(Graph("empty"), tmp_path / "image.json")
        image = load_spooled(path)
        assert image.node_count() == 0
        assert image.store_backend == "frozen"

    def test_each_load_reads_the_file(self, kb, tmp_path):
        # a plain load keeps nothing per process: the runtime keeps what it loaded
        path = spool_image(kb, tmp_path / "image.json")
        first = load_spooled(path)
        spool_image(Graph("empty"), path)
        assert load_spooled(path).node_count() == 0
        assert first.node_count() == kb.node_count()

    def test_a_foreign_file_is_refused(self, tmp_path):
        target = tmp_path / "image.json"
        target.write_text('{"hello": "world"}', encoding="utf-8")
        with pytest.raises(GraphError):
            load_spooled(target)


class TestRuntimePayload:
    def test_spawn_runtime_reads_the_parent_images(self, kb, tmp_path):
        rules = list(example_rules())
        before = kb.induced_subgraph(list(kb.node_ids())[:30])
        runtime = ExecutionRuntime(
            plans=compile_plans(kb, rules),
            image=kb,
            before_image=before,
        )
        spooled = runtime.spooled(str(tmp_path))
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["before.json", "image.json"]
        # the parent's runtime keeps its graphs
        assert (runtime.image, runtime.before_image) == (kb, before)
        rebuilt = pickle.loads(pickle.dumps(spooled))
        assert [plan.order for plan in rebuilt.plans] == [plan.order for plan in runtime.plans]
        after_image = rebuilt.graph_for(True)
        before_image = rebuilt.graph_for(False)
        assert _same_content(after_image, kb)
        assert _same_content(before_image, before)
        # loaded once, then kept on the runtime
        assert rebuilt.graph_for(True) is after_image

    def test_a_batch_runtime_serves_every_unit_from_its_one_image(self, kb, tmp_path):
        rules = list(example_rules())
        runtime = ExecutionRuntime(plans=compile_plans(kb, rules), image=kb)
        spooled = runtime.spooled(str(tmp_path))
        assert spooled.before_image is None
        assert [entry.name for entry in tmp_path.iterdir()] == ["image.json"]
        assert runtime.graph_for(True) is kb
        assert runtime.graph_for(False) is kb


def _disconnected_rule() -> NGD:
    pattern = Pattern(
        "disconnected",
        nodes=[("x", "type_0"), ("a", "integer"), ("y", "type_1"), ("b", "integer")],
        edges=[("x", "a", "rel_0"), ("y", "b", "rel_0")],
    )
    return NGD.from_text(pattern, "", "a.val <= b.val", name="disc")


class TestSeeding:
    """The runtime and seeds a process run hands its workers (none is started)."""

    @pytest.fixture
    def captured(self, monkeypatch):
        from repro.detect.parallel.executor import ProcessRun

        calls = []

        def drain(run, seeds, graph_for, dedupe):
            calls.append((run.runtime(), [(owner, unit) for owner, unit, _ in seeds], run.processors))
            return
            yield

        monkeypatch.setattr(ProcessRun, "drain", drain)
        return calls

    @staticmethod
    def _detector(rules) -> Detector:
        return Detector(
            rules, engine="parallel", processors=2, options=DetectionOptions(execution="processes")
        )

    def test_process_and_simulated_pdect_place_the_same_seeds(self, kb, captured, monkeypatch):
        from repro.detect.parallel.cluster import SimulatedRun

        simulated = []
        drain = SimulatedRun.drain

        def record(run, seeds, graph_for, dedupe):
            seeds = list(seeds)
            simulated.append([(owner, unit) for owner, unit, _ in seeds])
            return (yield from drain(run, seeds, graph_for, dedupe))

        monkeypatch.setattr(SimulatedRun, "drain", record)
        rules = benchmark_rules(kb, count=6, max_diameter=3, seed=0)
        self._detector(rules).run(kb)
        Detector(rules, engine="parallel", processors=2).run(kb)
        [(runtime, seeds, processors)] = captured
        assert runtime.before_image is None
        assert _same_content(runtime.graph_for(True), kb)
        # one seed list: a unit per first-step candidate, on the same worker
        assert seeds == simulated[0]
        assert all(len(unit.assignment) == 1 and unit.from_insertion for _, unit in seeds)
        assert {owner for owner, _ in seeds} == set(range(processors))

    def test_process_and_simulated_pincdect_place_the_same_seeds(self, kb, captured, monkeypatch):
        from repro.detect.parallel.cluster import SimulatedRun

        simulated = []
        drain = SimulatedRun.drain

        def record(run, seeds, graph_for, dedupe):
            seeds = list(seeds)
            simulated.append([(owner, unit) for owner, unit, _ in seeds])
            return (yield from drain(run, seeds, graph_for, dedupe))

        monkeypatch.setattr(SimulatedRun, "drain", record)
        rules = benchmark_rules(kb, count=6, max_diameter=2, seed=0)
        delta = UpdateGenerator(seed=5).generate(kb, 10, insert_ratio=0.5)
        self._detector(rules).run_incremental(kb, delta)
        Detector(rules, engine="parallel", processors=2).run_incremental(kb, delta)
        [(_, seeds, _)] = captured
        # one seed list: a unit per update pivot, on the worker that owns it
        assert seeds
        assert seeds == simulated[0]

    def test_connected_rules_ship_the_candidate_neighbourhood(self, kb, captured):
        rules = benchmark_rules(kb, count=6, max_diameter=2, seed=0)
        assert all(rule.pattern.is_connected() for rule in rules)
        delta = UpdateGenerator(seed=5).generate(kb, 10, insert_ratio=0.5)
        result = self._detector(rules).run_incremental(kb, delta)
        [(runtime, seeds, processors)] = captured
        after, before = runtime.graph_for(True), runtime.graph_for(False)
        assert after.node_count() == result.neighborhood_size < kb.node_count()
        assert before.node_count() < kb.node_count()
        assert seeds
        for owner, unit in seeds:
            pivot = unit.assignment[0][1]
            # the pivot lives in the image its unit searches, and starts on
            # the worker the simulator's ownership hash names
            assert runtime.graph_for(unit.from_insertion).has_node(pivot)
            assert owner == zlib.crc32(repr(pivot).encode()) % processors

    def test_a_disconnected_pattern_ships_the_full_graphs(self, kb, captured):
        rules = RuleSet(list(benchmark_rules(kb, count=6, max_diameter=3, seed=0)) + [_disconnected_rule()])
        delta = UpdateGenerator(seed=5).generate(kb, 20, insert_ratio=0.5)
        self._detector(rules).run_incremental(kb, delta)
        [(runtime, _, _)] = captured
        assert _same_content(runtime.graph_for(False), kb)
        assert _same_content(runtime.graph_for(True), apply_update(kb, delta))


class TestDisconnectedPatterns:
    def test_disconnected_rule_set_ships_full_graphs(self, kb, force_start_method):
        # N_C(ΔG) cannot serve a pattern whose far component is found by a
        # label scan, so PIncDect replicates the whole graphs instead
        rule = _disconnected_rule()
        assert not rule.pattern.is_connected()
        rules = RuleSet(list(benchmark_rules(kb, count=6, max_diameter=3, seed=0)) + [rule])
        delta = UpdateGenerator(seed=5).generate(kb, 20, insert_ratio=0.5)
        expected = Detector(rules, engine="incremental").run_incremental(kb, delta)
        assert expected.total_changes() > 0
        force_start_method("spawn")
        processes = Detector(
            rules, engine="parallel", processors=2, options=DetectionOptions(execution="processes")
        ).run_incremental(kb, delta)
        assert processes.delta == expected.delta
        assert processes.neighborhood_size > 0
